"""The real serving path: a ``python -m repro serve`` child and closed-loop
HTTP clients in this process.

Each client thread opens one TCP connection per request (the server
speaks HTTP/1.0), waits for the whole body, and only then sends its next
request, replaying a pre-drawn sequence of query ranks. Responses are
kept and checked after the window so the clients do no parsing while
the clock runs.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
from time import perf_counter
from typing import List, Tuple
from urllib.parse import quote

import paths
from workloads import ALPHA

HOST = "127.0.0.1"


class Server:
    """One ``repro serve`` process; ``setup_s`` runs from launch to the
    first answer it returns."""

    def __init__(self, graph_path: str, first_query: str, k: int) -> None:
        with socket.socket() as probe:
            probe.bind((HOST, 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=paths.SRC, PYTHONUNBUFFERED="1")
        launched = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", graph_path, "--port", str(self.port)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = self.process.stdout.readline()
            if "serving on" not in banner:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.first = self.fetch(first_query, k)
            self.setup_s = perf_counter() - launched
        except BaseException:
            self.stop()
            raise

    def fetch(self, query: str, k: int) -> Tuple[int, bytes]:
        """One GET /search on its own connection: (status, body)."""
        connection = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            connection.request(
                "GET", f"/search?q={quote(query)}&k={k}&alpha={ALPHA}"
            )
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            return 0, repr(error).encode("utf-8")
        finally:
            connection.close()

    def stop(self) -> None:
        """Ctrl-C the server (its clean exit path) and wait until it ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def closed_loop(
    server: Server,
    queries: List[str],
    k: int,
    sequences: List[List[int]],
    seconds: float,
) -> dict:
    """One client thread per sequence, all starting together.

    Returns per-op ``(rank, latency_s, status, body)`` tuples and each
    client's think gaps (response received → next request sent: how late
    the generator ran).
    """
    results: List[List[tuple]] = [[] for _ in sequences]
    gaps: List[List[float]] = [[] for _ in sequences]
    barrier = threading.Barrier(len(sequences) + 1)

    def client(slot: int) -> None:
        sequence = sequences[slot]
        mine, my_gaps = results[slot], gaps[slot]
        barrier.wait()
        deadline = perf_counter() + seconds
        done = None
        while True:
            started = perf_counter()
            if started >= deadline:
                break
            if done is not None:
                my_gaps.append(started - done)
            rank = sequence[len(mine) % len(sequence)]
            status, body = server.fetch(queries[rank], k)
            done = perf_counter()
            mine.append((rank, done - started, status, body))

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()
    return {
        "ops": [op for client_ops in results for op in client_ops],
        "gaps_s": [gap for client_gaps in gaps for gap in client_gaps],
    }
