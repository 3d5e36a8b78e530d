"""A WikiSearch-style HTTP search service (standard library only).

The paper ships its engine as an always-on web service ("We provide an
online query service and name it WikiSearch"). This module is the
reproduction's equivalent: a small JSON-over-HTTP API plus a minimal
HTML page, built on :mod:`http.server` so it carries no dependencies.

Endpoints:

* ``GET /``                     — HTML search page,
* ``GET /search?q=...&k=...&alpha=...`` — JSON answers,
* ``GET /healthz``              — liveness probe,
* ``GET /metrics``              — Prometheus text exposition (request
  latency histograms, per-endpoint counters, kernel work counters),
* ``GET /statz``                — JSON service statistics (last error
  detail, storage accounting, the metrics as JSON),
* ``GET /debug/queries``        — the query flight recorder's ring
  (recent and slow queries; :mod:`repro.obs.flight`),
* ``GET /debug/queries/<id>``   — one recorded query in full, including
  its Chrome-trace span tree.

The query logic lives in :class:`SearchService`, a plain object that is
fully testable without sockets; the HTTP handler is a thin shell.

:func:`create_server` serves HTTP/1.0, one connection per request, from
a fixed set of :data:`REQUEST_WORKERS` request workers started with the
server. Each worker blocks in ``accept()`` on the listening socket, so
the kernel's listen backlog is the queue: a connection waits there until
a worker is free, and none is turned away. A worker gives a connection
:data:`REQUEST_TIMEOUT` seconds in all to deliver its request, so a
client that sends nothing, or sends it a byte at a time, holds a worker
no longer. A reply leaves in one write when it fits the handler's write
buffer. ``server_close()`` shuts the listening socket down, which wakes
every worker blocked in ``accept()``, then joins the workers.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .core.central_graph import SearchAnswer
from .core.engine import EmptyQueryError, KeywordSearchEngine
from .core.state import TooManyKeywordsError
from .graph.csr import KnowledgeGraph
from .instrumentation import KernelCounters
from .obs.flight import FlightRecorder
from .obs.metrics import MetricsRegistry, record_kernel_counters
from .viz import edge_predicates

#: Bounded endpoint label set — unknown paths collapse to "other" so a
#: scanner cannot explode the metric cardinality.
_KNOWN_ENDPOINTS = (
    "/", "/healthz", "/search", "/metrics", "/statz", "/debug/queries",
)

#: Prometheus text exposition format version (content negotiation).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Metric names as module-level constants (lint RPR012: registry calls
#: must not build names inline, so grep and the docs table stay the
#: single source of truth).
METRIC_HTTP_REQUESTS = "repro_http_requests_total"
METRIC_HTTP_REQUEST_SECONDS = "repro_http_request_seconds"
METRIC_HTTP_ERRORS = "repro_http_errors_total"

#: Request workers per server: the fewest at which one slow query does
#: not hold up every other request. Measured on a 2-core host, /healthz
#: behind a looping 56 ms query took 60 ms with one worker and 1.1 ms
#: with two or four; one to four clients saw no more throughput from
#: more workers (the GIL serializes each request's Python half), and
#: each extra worker cost ≈ 0.5 MB of peak RSS (EXPERIMENTS.md).
REQUEST_WORKERS = 2

#: Seconds a worker gives a connection to deliver its whole request
#: (and, afresh, to take the reply). Also the longest ``server_close()``
#: waits for busy workers.
REQUEST_TIMEOUT = 5.0


def _endpoint_label(path: str) -> str:
    if path.startswith("/debug/queries"):
        # /debug/queries/<id> must not explode cardinality: every record
        # lookup shares the listing endpoint's label.
        return "/debug/queries"
    return path if path in _KNOWN_ENDPOINTS else "other"

_PAGE = """<!doctype html>
<html><head><meta charset="utf-8"><title>WikiSearch (reproduction)</title>
<style>
 body {{ font-family: sans-serif; margin: 2rem auto; max-width: 48rem; }}
 input[type=text] {{ width: 24rem; }}
 pre {{ background: #f6f6f6; padding: 0.5rem; }}
</style></head>
<body>
<h1>WikiSearch — Central Graph keyword search (reproduction)</h1>
<p>{n_nodes} nodes / {n_edges} edges indexed. Quote phrases:
<code>"gradient descent" xml</code>.</p>
<form action="/search" method="get">
  <input type="text" name="q" placeholder="keywords...">
  <input type="hidden" name="pretty" value="1">
  k <input type="number" name="k" value="5" min="1" max="50" style="width:4rem">
  &alpha; <input type="number" name="alpha" value="0.1" step="0.05"
                 min="0.01" max="0.99" style="width:5rem">
  <button type="submit">Search</button>
</form>
</body></html>
"""


#: One reply: status, content type, body, and for an error reply the
#: JSON payload its body encodes (``error``, and for a failed query its
#: ``query_id`` and ``phase``).
_Reply = Tuple[int, str, str, Optional[Dict]]


def _json_error(status: int, message: str) -> _Reply:
    payload = {"error": message}
    return status, "application/json", json.dumps(payload), payload


class SearchService:
    """HTTP-agnostic query service wrapping one engine.

    The service is the only writer of its metrics: every GET it serves
    counts once in ``repro_http_*``, and every query it answers adds
    its kernel work, summed over its levels, to ``repro_kernel_*``
    once. Several services over one engine keep separate counts.

    Args:
        engine: the search engine answering ``/search``.
        registry: metrics destination; a fresh :class:`MetricsRegistry`
            when omitted.
        flight: query flight recorder backing ``/debug/queries``. When
            omitted, the engine's attached recorder is adopted (so
            several services sharing one engine expose one ring), else
            a fresh env-configured recorder is built and attached.

    Attributes:
        last_error: detail of the most recent error reply —
            ``{"endpoint", "status", "message", "query_id", "phase",
            "unix_time"}`` — or ``None`` before the first. ``query_id``
            is the flight-recorder record id (fetch the full trace at
            ``/debug/queries/<id>``) and ``phase`` the engine phase that
            failed; both are ``None`` for errors that never reached the
            engine. Replaced whole on each error reply, never mutated.
        started_unix: service construction time (epoch seconds).
    """

    def __init__(
        self,
        engine: KeywordSearchEngine,
        registry: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.engine = engine
        self.graph: KnowledgeGraph = engine.graph
        self.registry = registry if registry is not None else MetricsRegistry()
        if flight is not None:
            self.flight = flight
        elif engine.flight is not None:
            self.flight = engine.flight
        else:
            self.flight = FlightRecorder.from_env()
        engine.flight = self.flight
        self.last_error: Optional[Dict] = None
        self.started_unix = time.time()

    def _record_kernel_work(self, level_profile: List) -> None:
        """Add one answered query's kernel counters, summed over its
        levels, to the registry under the backend's tier."""
        tier = self.engine.backend.counter_tier
        if tier is None:
            return
        totals = KernelCounters()
        for outcome in level_profile:
            if outcome.counters is not None:
                totals.add(outcome.counters)
        record_kernel_counters(totals, tier, self.registry)

    # ------------------------------------------------------------------
    # Pure request logic (unit-testable)
    # ------------------------------------------------------------------
    def index_page(self) -> str:
        return _PAGE.format(
            n_nodes=self.graph.n_nodes, n_edges=self.graph.n_edges
        )

    def answer_payload(self, answer: SearchAnswer) -> Dict:
        """JSON-serializable view of one ranked answer."""
        graph = self.graph
        central = answer.graph
        return {
            "central_node": central.central_node,
            "central_text": graph.node_text[central.central_node],
            "depth": central.depth,
            "score": answer.score,
            "nodes": [
                {
                    "id": node,
                    "text": graph.node_text[node],
                    "keywords": [
                        answer.keywords[column]
                        for column in columns
                        if column < len(answer.keywords)
                    ],
                }
                for node, columns in central.member_columns()
            ],
            "edges": [
                {
                    "source": source,
                    "target": target,
                    "predicates": edge_predicates(graph, source, target),
                }
                for source, target in central.sorted_edges()
            ],
        }

    def handle_search(
        self,
        query: str,
        k: int = 5,
        alpha: float = 0.1,
    ) -> "tuple[int, Dict]":
        """Run one query; returns (http_status, json_payload). An
        answered query adds its kernel work to the registry."""
        if not query.strip():
            return 400, {"error": "missing query parameter 'q'"}
        if not (1 <= k <= 100):
            return 400, {"error": "k must be between 1 and 100"}
        if not (0.0 < alpha < 1.0):
            return 400, {"error": "alpha must lie strictly in (0, 1)"}
        from .text.suggest import suggest_for_dropped

        try:
            result = self.engine.search(query, k=k, alpha=alpha)
        except TooManyKeywordsError as error:
            return 400, {"error": str(error)}
        except EmptyQueryError as error:
            # "Did you mean": nearby vocabulary for the unmatched terms.
            suggestions = suggest_for_dropped(
                self.engine.index, query.split()
            )
            return 404, {
                "error": str(error),
                "suggestions": suggestions,
                # Flight-recorder linkage: the failed query's record id
                # and failing phase (None when recording was off).
                "query_id": getattr(error, "query_id", None),
                "phase": getattr(error, "phase", None),
            }
        self._record_kernel_work(result.level_profile)
        payload = {
            "query": query,
            "query_id": result.query_id,
            "keywords": list(result.keywords),
            "dropped_terms": list(result.dropped_terms),
            "depth": result.depth,
            "n_central_nodes": result.n_central_nodes,
            "milliseconds": result.milliseconds(),
            "answers": [
                self.answer_payload(answer) for answer in result.answers
            ],
        }
        if result.dropped_terms:
            payload["suggestions"] = suggest_for_dropped(
                self.engine.index, result.dropped_terms
            )
        return 200, payload

    def handle_path(self, path: str) -> "tuple[int, str, str]":
        """Dispatch one GET path; returns (status, content_type, body).

        Every dispatch lands in the request counter and the latency
        histogram (labelled by endpoint); an error reply also counts in
        the error counter and replaces ``last_error``.
        """
        parsed = urlparse(path)
        endpoint = _endpoint_label(parsed.path)
        start = time.perf_counter()
        status, content_type, body, error = self._dispatch(parsed)
        seconds = time.perf_counter() - start
        self.registry.counter(
            METRIC_HTTP_REQUESTS, "HTTP GETs served",
            endpoint=endpoint,
        ).inc()
        self.registry.histogram(
            METRIC_HTTP_REQUEST_SECONDS, "HTTP request latency",
            endpoint=endpoint,
        ).observe(seconds)
        if error is not None:
            self.registry.counter(
                METRIC_HTTP_ERRORS, "HTTP error responses",
                endpoint=endpoint,
            ).inc()
            # One assignment publishes the whole record: a /statz reader
            # sees the previous error or this one, never a mix.
            self.last_error = {
                "endpoint": endpoint,
                "status": status,
                "message": error["error"],
                "query_id": error.get("query_id"),
                "phase": error.get("phase"),
                "unix_time": time.time(),
            }
        return status, content_type, body

    def _dispatch(self, parsed) -> _Reply:
        if parsed.path == "/":
            return 200, "text/html; charset=utf-8", self.index_page(), None
        if parsed.path == "/healthz":
            queries = self.registry.value(METRIC_HTTP_REQUESTS, endpoint="/search")
            return 200, "application/json", json.dumps(
                {"status": "ok", "queries": int(queries)}
            ), None
        if parsed.path == "/metrics":
            return (
                200, PROMETHEUS_CONTENT_TYPE,
                self.registry.render_prometheus(), None,
            )
        if parsed.path == "/statz":
            # Graph storage accounting: mmap-backed stores report their
            # resident page estimate alongside the full CSR size, so an
            # operator can tell page cache from heap. The request and
            # error counts are the metrics snapshot's.
            last_error = self.last_error
            payload = {
                "service": {
                    "last_error": dict(last_error) if last_error else None,
                    "started_unix": self.started_unix,
                    "uptime_seconds": time.time() - self.started_unix,
                },
                "storage": self.graph.memory_report(),
                "metrics": self.registry.snapshot(),
            }
            return 200, "application/json", json.dumps(payload), None
        if parsed.path == "/debug/queries":
            return 200, "application/json", json.dumps(
                self.flight.debug_payload()
            ), None
        if parsed.path.startswith("/debug/queries/"):
            raw_id = parsed.path[len("/debug/queries/"):]
            try:
                query_id = int(raw_id)
            except ValueError:
                return _json_error(
                    400, f"query id must be an integer, got {raw_id!r}"
                )
            record = self.flight.get(query_id)
            if record is None:
                return _json_error(
                    404, f"no flight record for query id {query_id}"
                )
            return 200, "application/json", json.dumps(
                record.as_dict(include_trace=True)
            ), None
        if parsed.path == "/search":
            params = parse_qs(parsed.query)
            query = params.get("q", [""])[0]
            try:
                k = int(params.get("k", ["5"])[0])
                alpha = float(params.get("alpha", ["0.1"])[0])
            except ValueError:
                return _json_error(400, "k and alpha must be numeric")
            status, payload = self.handle_search(query, k=k, alpha=alpha)
            indent = 2 if params.get("pretty") else None
            return (
                status, "application/json", json.dumps(payload, indent=indent),
                payload if status >= 400 else None,
            )
        return _json_error(404, "not found")


class _DeadlineReader(io.RawIOBase):
    """A socket's receive side that gives up at a fixed deadline.

    A socket timeout bounds each ``recv`` on its own, so a client that
    sends a byte just inside it keeps the reader waiting for as long as
    it likes. Here every ``recv`` waits at most until ``deadline`` (a
    ``time.monotonic()`` value); past it a read raises ``TimeoutError``,
    which the request handler answers by dropping the connection.
    """

    def __init__(self, connection: socket.socket, deadline: float) -> None:
        super().__init__()
        self._connection = connection
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not received in time")
        self._connection.settimeout(left)
        return self._connection.recv_into(buffer)


class _Handler(BaseHTTPRequestHandler):
    service: SearchService  # injected by create_server

    #: Buffered replies are flushed once: status line, headers and a
    #: body that fits leave in one ``send``. 16 KiB holds nine in ten
    #: short-query replies; 32 KiB and up read a higher peak RSS.
    wbufsize = 1 << 14

    def setup(self) -> None:
        super().setup()
        # The whole request must arrive within ``timeout`` of the worker
        # taking the connection, however the client paces its bytes.
        self.rfile.close()
        self.rfile = io.BufferedReader(
            _DeadlineReader(self.connection, time.monotonic() + self.timeout)
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        # The reply gets a timeout of its own, not what the request left.
        self.connection.settimeout(self.timeout)
        status, content_type, body = self.service.handle_path(self.path)
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output quiet; hook in real logging if needed


class SearchServer(HTTPServer):
    """An :class:`HTTPServer` whose requests run on a fixed worker set.

    :data:`REQUEST_WORKERS` daemon threads, started here, each accept a
    connection and handle it, then the next. They serve from the start;
    ``serve_forever()`` only blocks until ``shutdown()``.

    Attributes:
        service: the :class:`SearchService` every worker answers from.
        workers: the request worker threads.
    """

    #: The backlog is the only queue: if a burst overflows it, the kernel
    #: drops SYNs and the clients wait out a retransmit of ≥ 1 s.
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        address: Tuple[str, int],
        handler: type,
        service: SearchService,
    ) -> None:
        super().__init__(address, handler)
        self.service = service
        self._stopped = threading.Event()
        self.workers: List[threading.Thread] = [
            threading.Thread(
                target=self._work, name=f"repro-http-{number}", daemon=True
            )
            for number in range(REQUEST_WORKERS)
        ]
        for worker in self.workers:
            worker.start()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Block until :meth:`shutdown`; the workers do the serving."""
        self._stopped.wait()

    def shutdown(self) -> None:
        """Let ``serve_forever()`` return."""
        self._stopped.set()

    def _work(self) -> None:
        # socketserver's step: a blocking accept, then finish_request,
        # handle_error on a failure and shutdown_request.
        while not self._stopped.is_set():
            self._handle_request_noblock()

    def server_close(self) -> None:
        """Stop accepting, join the workers, close the listening socket.

        Shutting the listening socket down wakes every worker blocked in
        ``accept()`` (Linux), and connections still in the backlog are
        reset unanswered. Busy workers get at most
        :data:`REQUEST_TIMEOUT` seconds in all to finish.
        """
        self._stopped.set()
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening: closed already, or never activated
        deadline = time.monotonic() + REQUEST_TIMEOUT
        for worker in self.workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        super().server_close()


def create_server(
    engine: KeywordSearchEngine,
    host: str = "127.0.0.1",
    port: int = 0,
) -> SearchServer:
    """Build a ready-to-serve HTTP server (port 0 = ephemeral).

    The request workers start here. Call ``serve_forever()`` on the
    result, or run it in a thread; stop it with ``shutdown()``, then give
    back the port and the workers with ``server_close()``:

    >>> server = create_server(engine)          # doctest: +SKIP
    >>> threading.Thread(target=server.serve_forever, daemon=True).start()
    >>> server.shutdown(); server.server_close()  # doctest: +SKIP
    """
    service = SearchService(engine)
    handler = type(
        "BoundHandler",
        (_Handler,),
        {"service": service, "timeout": REQUEST_TIMEOUT},
    )
    return SearchServer((host, port), handler, service)
