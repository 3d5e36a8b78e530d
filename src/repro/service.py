"""A WikiSearch-style HTTP search service (standard library only).

The paper ships its engine as an always-on web service ("We provide an
online query service and name it WikiSearch"). This module is the
reproduction's equivalent: a small JSON-over-HTTP API plus a minimal
HTML page, served from plain sockets so it carries no dependencies.

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
* ``GET /debug/queries/<id>``   — one recorded query in full (phases,
  per-level accounting and wall times, outcome).

The query logic lives in :class:`SearchService`, a plain object that is
fully testable without sockets; the request shell around it reads a
request head, splits the request line and writes one reply.

:func:`create_server` serves HTTP/1.0, one connection per request, from
a fixed set of :data:`REQUEST_WORKERS` request workers started with the
server. Each worker blocks in ``accept()`` on the listening socket, so
the kernel's listen backlog is the queue: a connection waits there until
a worker is free, and none is turned away. A worker gives a connection
:data:`REQUEST_TIMEOUT` seconds in all to deliver its request, so a
client that sends nothing, or sends it a byte at a time, holds a worker
no longer. Status line, headers and body leave in one ``sendall``.
``server_close()`` shuts the listening socket down, which wakes every
worker blocked in ``accept()``, then joins the workers.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .core.central_graph import SearchAnswer
from .core.engine import EmptyQueryError, KeywordSearchEngine
from .core.state import TooManyKeywordsError
from .graph.csr import KnowledgeGraph
from .instrumentation import PHASE_INITIALIZATION, PHASE_TOTAL, KernelCounters
from .obs.flight import FlightRecorder
from .obs.metrics import MetricsRegistry, record_kernel_counters
from .parallel.backend import LevelOutcome

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


def _account_levels(
    level_profile: List[LevelOutcome],
) -> Tuple[List[Dict[str, float]], Dict[str, int], KernelCounters]:
    """One pass over a served query's ``level_profile``: its flight
    record's ``levels`` rows (the level, its account and its
    wall time under ``ms``), the ``counters`` those rows and the kernel
    work counters sum to, and the kernel counters as the
    :class:`KernelCounters` the service adds to ``repro_kernel_*`` — so
    the metrics and the records agree by construction."""
    levels: List[Dict[str, float]] = []
    counters: Dict[str, int] = {}
    kernel = KernelCounters()
    for outcome in level_profile:
        attrs = {
            key: int(value)
            for key, value in outcome.account().items()
        }
        levels.append(
            {"level": int(outcome.level), **attrs, "ms": outcome.seconds * 1e3}
        )
        for key, value in attrs.items():
            counters[key] = counters.get(key, 0) + value
        if outcome.counters is not None:
            kernel.add(outcome.counters)
    counters.update(kernel.as_dict())
    return levels, counters, kernel


def _json_error(status: int, message: str) -> _Reply:
    payload = {"error": message}
    return status, "application/json", json.dumps(payload), payload


class SearchService:
    """HTTP-agnostic query service wrapping one engine.

    The service is the only writer of its metrics and of its flight
    records: every GET it serves counts once in ``repro_http_*``; every
    query it answers adds its kernel work, summed over its levels, to
    ``repro_kernel_*`` once; and every query it runs, answered or
    failed, leaves one record, a view of its ``SearchResult`` or of the
    exception. Several services over one engine keep separate counts
    and separate records.

    Args:
        engine: the search engine answering ``/search``.
        registry: metrics destination; a fresh :class:`MetricsRegistry`
            when omitted.
        flight: query flight recorder backing ``/debug/queries``; a
            fresh env-configured :class:`FlightRecorder` when omitted.

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
        self.flight = flight if flight is not None else FlightRecorder()
        self.last_error: Optional[Dict] = None
        self.started_unix = time.time()

    # ------------------------------------------------------------------
    # Pure request logic (unit-testable)
    # ------------------------------------------------------------------
    def index_page(self) -> str:
        return _PAGE.format(
            n_nodes=self.graph.n_nodes, n_edges=self.graph.n_edges
        )

    def answer_payload(self, answer: SearchAnswer) -> Dict:
        """JSON-serializable view of one ranked answer.

        Read from the answer's sorted views (node ids with their
        contribution masks, edge keys) and one
        :meth:`KnowledgeGraph.edge_predicates` lookup for all its edges;
        no set is built."""
        graph = self.graph
        text = graph.node_text
        central = answer.graph
        keywords = answer.keywords
        n_keywords = len(keywords)
        edges = central.sorted_edges()
        return {
            "central_node": central.central_node,
            "central_text": text[central.central_node],
            "depth": central.depth,
            "score": answer.score,
            "nodes": [
                {
                    "id": node,
                    "text": text[node],
                    # Most members carry no keyword: no comprehension.
                    "keywords": [
                        keywords[column]
                        for column in columns
                        if column < n_keywords
                    ] if columns else [],
                }
                for node, columns in central.member_columns()
            ],
            "edges": [
                {"source": source, "target": target, "predicates": predicates}
                for (source, target), predicates in zip(
                    edges, graph.edge_predicates(edges)
                )
            ],
        }

    def handle_search(
        self,
        query: str,
        k: int = 5,
        alpha: float = 0.1,
    ) -> "tuple[int, Dict]":
        """Run one query; returns (http_status, json_payload). Every
        query that reaches the engine leaves a flight record; an
        answered one also adds its kernel work to the registry."""
        if not query.strip():
            return 400, {"error": "missing query parameter 'q'"}
        if not (1 <= k <= 100):
            return 400, {"error": "k must be between 1 and 100"}
        if not (0.0 < alpha < 1.0):
            return 400, {"error": "alpha must lie strictly in (0, 1)"}
        from .text.suggest import suggest_for_dropped

        backend = self.engine.backend.name
        start = time.perf_counter()
        try:
            result = self.engine.search(query, k=k, alpha=alpha)
        except Exception as error:
            empty = isinstance(error, EmptyQueryError)
            phase = PHASE_INITIALIZATION if empty else PHASE_TOTAL
            record = self.flight.record_error(
                query, error, phase,
                (time.perf_counter() - start) * 1e3, backend,
            )
            # Flight-recorder linkage: the failed query's record id and
            # failing phase (None when recording is off).
            linkage = {
                "query_id": record.query_id if record else None,
                "phase": phase if record else None,
            }
            if isinstance(error, TooManyKeywordsError):
                return 400, {"error": str(error), **linkage}
            if not empty:
                raise
            # "Did you mean": nearby vocabulary for the unmatched terms.
            suggestions = suggest_for_dropped(
                self.engine.index, query.split()
            )
            return 404, {
                "error": str(error),
                "suggestions": suggestions,
                **linkage,
            }
        # The levels are summed once, for the record and the metrics.
        levels, counters, kernel = _account_levels(result.level_profile)
        record = self.flight.record(query, result, backend, levels, counters)
        tier = self.engine.backend.counter_tier
        if tier is not None:
            record_kernel_counters(kernel, tier, self.registry)
        payload = {
            "query": query,
            "query_id": record.query_id if record else None,
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
            # operator can tell page cache from heap; beside it the
            # engine's search arenas, whose count times size plus the
            # graph is the process's query memory. The request and
            # error counts are the metrics snapshot's.
            last_error = self.last_error
            payload = {
                "service": {
                    "last_error": dict(last_error) if last_error else None,
                    "started_unix": self.started_unix,
                    "uptime_seconds": time.time() - self.started_unix,
                },
                "storage": {
                    **self.graph.memory_report(),
                    **self.engine.arenas.report(),
                },
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
            return 200, "application/json", json.dumps(record.as_dict()), None
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
            # The payload is built afresh for this reply and holds no
            # cycle, so the encoder's cycle check (a marker per dict and
            # list) would find nothing; the bytes are the same without.
            body = json.dumps(payload, indent=indent, check_circular=False)
            return (
                status, "application/json", body,
                payload if status >= 400 else None,
            )
        return _json_error(404, "not found")


#: The ``Server`` header of every reply.
SERVER_VERSION = "BaseHTTP/0.6 Python/" + sys.version.split()[0]

#: The most bytes a request head (request line and header fields) may
#: take: a request line still unfinished past it is answered 414, a
#: head whose blank line does not end within it 431.
MAX_REQUEST_HEAD = 1 << 16

#: A header field that announces a request body.
_BODY_FIELD = re.compile(rb"\n(content-length|transfer-encoding)[ \t]*:", re.I)


def _reply_bytes(status: int, content_type: str, body: str) -> bytes:
    """Status line, headers and body of one HTTP/1.0 reply."""
    encoded = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
        f"Server: {SERVER_VERSION}\r\n"
        f"Date: {formatdate(usegmt=True)}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(encoded)}\r\n\r\n"
    )
    return head.encode("latin-1") + encoded


def _read_head(connection: socket.socket, deadline: float) -> Optional[bytes]:
    """The request head, read until its blank line, end of input or
    :data:`MAX_REQUEST_HEAD` bytes, whichever comes first; ``None`` if
    the client sent nothing or ``deadline`` (a ``time.monotonic()``
    value) passed first. A socket timeout bounds each ``recv`` on its
    own, so every ``recv`` here waits at most until the deadline:
    however the client paces its bytes, the head arrives in time or
    the connection is dropped."""
    head = b""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        connection.settimeout(left)
        try:
            chunk = connection.recv(MAX_REQUEST_HEAD)
        except OSError:  # the deadline's timeout, or a reset
            return None
        if not chunk:
            return head or None
        # Resume the search for the blank line just before the new bytes.
        start = max(0, len(head) - 3)
        head += chunk
        if (
            head.find(b"\r\n\r\n", start) >= 0
            or head.find(b"\n\n", start) >= 0
            or len(head) >= MAX_REQUEST_HEAD
        ):
            return head


class SearchServer:
    """An HTTP/1.0 server whose requests run on a fixed worker set.

    :data:`REQUEST_WORKERS` daemon threads, started here, each accept a
    connection on the listening socket and serve it
    (:meth:`handle_connection`), then the next. They serve from the
    start; ``serve_forever()`` only blocks until ``shutdown()``.

    Attributes:
        service: the :class:`SearchService` every worker answers from.
        server_address: the bound ``(host, port)``.
        socket: the listening socket.
        workers: the request worker threads.
    """

    def __init__(self, address: Tuple[str, int], service: SearchService) -> None:
        self.service = service
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            # The backlog is the only queue: if a burst overflows it, the
            # kernel drops SYNs and the clients wait out a retransmit of
            # ≥ 1 s.
            self.socket.listen(socket.SOMAXCONN)
        except OSError:
            self.socket.close()
            raise
        self.server_address: Tuple[str, int] = self.socket.getsockname()[:2]
        self._stopped = threading.Event()
        self.workers: List[threading.Thread] = [
            threading.Thread(
                target=self._work, name=f"repro-http-{number}", daemon=True
            )
            for number in range(REQUEST_WORKERS)
        ]
        for worker in self.workers:
            worker.start()

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown`; the workers do the serving."""
        self._stopped.wait()

    def shutdown(self) -> None:
        """Let ``serve_forever()`` return."""
        self._stopped.set()

    def _work(self) -> None:
        while not self._stopped.is_set():
            try:
                connection, _ = self.socket.accept()
            except OSError:
                continue  # shut down by server_close, or a failed accept
            try:
                self.handle_connection(connection)
            except OSError:
                pass  # the client went away mid-reply
            except Exception:
                # As socketserver did: report it and take the next
                # connection, so no request can end a worker.
                traceback.print_exc()
            finally:
                connection.close()

    def handle_connection(self, connection: socket.socket) -> None:
        """Serve one connection: read its request head within
        :data:`REQUEST_TIMEOUT`, answer it, then shut the connection
        down (the caller closes it).

        The request line is split here and a GET's target dispatched
        through :meth:`SearchService.handle_path`. The shell answers
        itself, with a JSON ``{"error"}`` body: 400 for a malformed
        request line, 501 for any method but GET, 414 / 431 for a head
        past :data:`MAX_REQUEST_HEAD`, and 500 when ``handle_path``
        raises. Status line, headers and body leave in one ``sendall``;
        a head that does not arrive in time gets no reply. After a reply
        to a request that may have bytes unread (a head cut short, or
        one declaring a body), the rest is read and dropped, within
        :data:`REQUEST_TIMEOUT`, before the connection closes: closing
        on unread bytes resets it, and the client could lose the reply.
        """
        head = _read_head(connection, time.monotonic() + REQUEST_TIMEOUT)
        if head is None:
            return
        line_end = head.find(b"\n")
        blank = [head.find(mark) for mark in (b"\r\n\r\n", b"\n\n")]
        head_end = min((at for at in blank if at >= 0), default=-1)
        # Unless the head was read whole and declares no body, request
        # bytes may still be in flight.
        unread = True
        if line_end < 0 or line_end >= MAX_REQUEST_HEAD:
            reply = _json_error(414, "request line too long") if len(
                head
            ) >= MAX_REQUEST_HEAD else _json_error(400, "malformed request line")
        elif head_end >= MAX_REQUEST_HEAD or (
            head_end < 0 and len(head) >= MAX_REQUEST_HEAD
        ):
            reply = _json_error(431, "request header fields too large")
        else:
            fields_end = head_end + 1 if head_end >= 0 else len(head)
            unread = _BODY_FIELD.search(head, 0, fields_end) is not None
            reply = self._answer(head[:line_end].decode("latin-1").split())
        status, content_type, body, _ = reply
        # The reply gets a timeout of its own, not what the request left.
        deadline = time.monotonic() + REQUEST_TIMEOUT
        connection.settimeout(REQUEST_TIMEOUT)
        connection.sendall(_reply_bytes(status, content_type, body))
        connection.shutdown(socket.SHUT_WR)
        if unread:
            while _read_head(connection, deadline):
                pass

    def _answer(self, words: List[str]) -> _Reply:
        """The reply to a request line split into ``words``."""
        if len(words) not in (2, 3) or (
            len(words) == 3 and not words[2].startswith("HTTP/")
        ):
            return _json_error(400, "malformed request line")
        if words[0] != "GET":
            return _json_error(501, f"unsupported method {words[0]!r}")
        try:
            return (*self.service.handle_path(words[1]), None)
        except Exception:
            traceback.print_exc()
            return _json_error(500, "internal error")

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
            pass  # not listening: closed already
        deadline = time.monotonic() + REQUEST_TIMEOUT
        for worker in self.workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        self.socket.close()


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
    return SearchServer((host, port), SearchService(engine))
