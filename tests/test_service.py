"""The WikiSearch-style HTTP service."""

import ast
import builtins
import json
import queue
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import service as service_module
from repro.analysis.lint import package_root
from repro.core.engine import KeywordSearchEngine
from repro.service import SearchService, create_server

from conftest import keyword_star


@pytest.fixture(scope="module")
def engine(request):
    graph, _ = request.getfixturevalue("tiny_kb")
    return KeywordSearchEngine(graph)


@pytest.fixture(scope="module")
def service(engine):
    return SearchService(engine)


# ---------------------------------------------------------------------------
# Pure request logic
# ---------------------------------------------------------------------------
def test_index_page_mentions_graph_size(service):
    page = service.index_page()
    assert "WikiSearch" in page
    assert str(service.graph.n_nodes) in page


def test_handle_search_success(service):
    status, payload = service.handle_search("machine learning", k=3)
    assert status == 200
    assert payload["keywords"] == ["machin", "learn"]
    assert payload["answers"]
    answer = payload["answers"][0]
    assert {"central_node", "central_text", "depth", "score", "nodes",
            "edges"} <= set(answer)
    # Node payloads annotate carried keywords.
    carried = [n for n in answer["nodes"] if n["keywords"]]
    assert carried


def test_handle_search_validations(service):
    assert service.handle_search("")[0] == 400
    assert service.handle_search("x", k=0)[0] == 400
    assert service.handle_search("x", alpha=1.5)[0] == 400


def test_handle_search_unmatched_is_404(service):
    status, payload = service.handle_search("zzzzqqq")
    assert status == 404
    assert "error" in payload


def test_handle_path_routing(service):
    status, content_type, body = service.handle_path("/")
    assert status == 200 and content_type.startswith("text/html")
    status, _, body = service.handle_path("/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"
    status, _, _ = service.handle_path("/nope")
    assert status == 404
    status, _, body = service.handle_path("/search?q=machine+learning&k=2")
    assert status == 200
    assert len(json.loads(body)["answers"]) <= 2
    status, _, _ = service.handle_path("/search?q=x&k=notanumber")
    assert status == 400


def test_stats_counters(engine):
    """``/healthz``'s ``queries`` is the ``/search`` request counter;
    reading it before the first ``/search`` registers no series."""
    service = SearchService(engine)
    assert json.loads(service.handle_path("/healthz")[2])["queries"] == 0
    assert '"/search"' not in service.registry.render_prometheus()
    service.handle_path("/search?q=machine+learning")
    service.handle_path("/search?q=zzzz")
    assert json.loads(service.handle_path("/healthz")[2])["queries"] == 2
    registry = service.registry
    assert registry.value(
        service_module.METRIC_HTTP_REQUESTS, endpoint="/search"
    ) == 2
    assert registry.value(
        service_module.METRIC_HTTP_ERRORS, endpoint="/search"
    ) == 1
    assert registry.value(
        service_module.METRIC_HTTP_ERRORS, endpoint="/healthz"
    ) == 0


def test_services_over_one_engine_keep_separate_counts(engine):
    """Each service owns its registry and its flight recorder: a query
    served by one shows in its ``/metrics`` and ``/debug/queries`` only,
    kernel counters included, and ``/statz`` reports the same counts as
    ``/metrics``."""
    first, second = SearchService(engine), SearchService(engine)
    assert first.registry is not second.registry
    assert first.flight is not second.flight
    for _ in range(3):
        # k=60 takes the search past level 0, so the kernel does work.
        first.handle_path("/search?q=machine+learning&k=60")
    second.handle_path("/search?q=zzzzqqq")
    first_text = first.handle_path("/metrics")[2]
    second_text = second.handle_path("/metrics")[2]
    assert 'repro_http_requests_total{endpoint="/search"} 3' in first_text
    assert 'repro_http_errors_total' not in first_text
    assert 'repro_http_requests_total{endpoint="/search"} 1' in second_text
    assert 'repro_http_errors_total{endpoint="/search"} 1' in second_text
    assert "repro_kernel_" in first_text
    assert "repro_kernel_" not in second_text
    for service in (first, second):
        assert _statz_counts(service) == _metrics_counts(service)
    # Separate records, each numbered from 1.
    assert [r.query_id for r in first.flight.recent()] == [3, 2, 1]
    assert {r.outcome for r in first.flight.recent()} == {"ok"}
    (failed,) = second.flight.recent()
    assert (failed.query_id, failed.outcome) == (1, "error")


def _statz_counts(service):
    """Every counter of a ``/statz`` reply, keyed as ``/metrics`` keys
    them, plus the ``/statz`` GET itself (counted after its reply)."""
    snapshot = json.loads(service.handle_path("/statz")[2])["metrics"]
    counts = {
        name + labels: value
        for name, family in snapshot.items()
        if name.endswith("_total")
        for labels, value in family.items()
    }
    key = 'repro_http_requests_total{endpoint="/statz"}'
    counts[key] = counts.get(key, 0.0) + 1
    return counts


def _metrics_counts(service):
    """Every counter line of a ``/metrics`` reply."""
    rows = (
        line.rsplit(" ", 1)
        for line in service.handle_path("/metrics")[2].splitlines()
        if not line.startswith("#")
    )
    return {
        key: float(value)
        for key, value in rows
        if key.split("{")[0].endswith("_total")
    }


def test_metrics_endpoint_prometheus_format(engine):
    from repro.obs import MetricsRegistry

    service = SearchService(engine, registry=MetricsRegistry())
    service.handle_path("/search?q=machine+learning&k=2")
    service.handle_path("/healthz")
    status, content_type, body = service.handle_path("/metrics")
    assert status == 200
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    assert "# TYPE repro_http_requests_total counter" in body
    assert 'repro_http_requests_total{endpoint="/search"} 1' in body
    assert 'repro_http_requests_total{endpoint="/healthz"} 1' in body
    assert "# TYPE repro_http_request_seconds histogram" in body
    assert 'repro_http_request_seconds_bucket{endpoint="/search",le="+Inf"} 1' in body
    assert 'repro_http_request_seconds_count{endpoint="/search"} 1' in body


def test_statz_endpoint_per_endpoint_counts_and_last_error(engine):
    import json as json_module

    from repro.obs import MetricsRegistry

    service = SearchService(engine, registry=MetricsRegistry())
    service.handle_path("/search?q=machine+learning&k=2")
    service.handle_path("/search?q=zzzzqqq")
    service.handle_path("/bogus")
    status, content_type, body = service.handle_path("/statz")
    assert status == 200
    assert content_type == "application/json"
    payload = json_module.loads(body)
    stats = payload["service"]
    assert set(stats) == {"last_error", "started_unix", "uptime_seconds"}
    assert stats["last_error"]["endpoint"] == "other"
    assert stats["last_error"]["status"] == 404
    assert stats["last_error"]["message"] == "not found"
    assert stats["uptime_seconds"] >= 0
    requests = payload["metrics"]["repro_http_requests_total"]
    errors = payload["metrics"]["repro_http_errors_total"]
    assert requests['{endpoint="/search"}'] == 2
    assert requests['{endpoint="other"}'] == 1
    assert errors['{endpoint="/search"}'] == 1
    assert errors['{endpoint="other"}'] == 1


def test_error_metrics_recorded(engine):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    service = SearchService(engine, registry=registry)
    service.handle_path("/search?q=zzzzqqq")
    text = registry.render_prometheus()
    assert 'repro_http_errors_total{endpoint="/search"} 1' in text


# ---------------------------------------------------------------------------
# Flight recorder endpoints
# ---------------------------------------------------------------------------
def _debug_service(engine, max_records=8):
    from repro.obs import FlightRecorder, MetricsRegistry

    return SearchService(
        engine,
        registry=MetricsRegistry(),
        flight=FlightRecorder(max_records=max_records, slow_ms=0),
    )


def test_debug_queries_listing_and_detail(engine):
    service = _debug_service(engine)
    status, _, body = service.handle_path("/search?q=machine+learning&k=2")
    assert status == 200
    query_id = json.loads(body)["query_id"]
    assert query_id is not None

    status, content_type, body = service.handle_path("/debug/queries")
    assert status == 200 and content_type == "application/json"
    listing = json.loads(body)
    assert listing["completed"] == 1
    assert listing["recent"][0]["query_id"] == query_id
    assert listing["recent"][0]["outcome"] == "ok"

    status, _, body = service.handle_path(f"/debug/queries/{query_id}")
    assert status == 200
    detail = json.loads(body)
    assert detail["query"] == "machine learning"
    assert detail["phases"]["total"] > 0
    assert detail["levels"] and all("ms" in row for row in detail["levels"])
    # A record is a view of the result: no span tree, no trace.
    assert "spans" not in detail and "trace" not in detail

    status, _, _ = service.handle_path("/debug/queries/notanumber")
    assert status == 400
    status, _, _ = service.handle_path("/debug/queries/999999")
    assert status == 404


def test_last_error_links_to_flight_record(engine):
    service = _debug_service(engine)
    status, _, body = service.handle_path("/search?q=zzzzqqq")
    assert status == 404
    error_payload = json.loads(body)
    assert error_payload["query_id"] is not None
    assert error_payload["phase"] == "initialization"

    last_error = service.last_error
    assert last_error["query_id"] == error_payload["query_id"]
    assert last_error["phase"] == "initialization"
    # The linked record is servable.
    status, _, body = service.handle_path(
        f"/debug/queries/{last_error['query_id']}"
    )
    assert status == 200
    assert json.loads(body)["outcome"] == "error"


def test_services_on_one_engine_share_the_recorder(engine):
    """Two services share a recorder only when both are handed it: their
    queries then go into one ring, numbered in one sequence, and either
    service serves the other's records."""
    first = _debug_service(engine)
    second = SearchService(engine, flight=first.flight)
    assert second.flight is first.flight
    first.handle_path("/search?q=machine+learning&k=2")
    second.handle_path("/search?q=zzzzqqq")
    assert [r.query_id for r in first.flight.recent()] == [2, 1]
    status, _, body = first.handle_path("/debug/queries/2")
    assert status == 200
    assert json.loads(body)["outcome"] == "error"
    # Left to itself, a service on the same engine keeps its own records.
    assert SearchService(engine).flight is not first.flight


def test_text_empty_after_stemming_is_a_recorded_404(engine):
    """Only stop words: nothing is left to search for. The 404 links to
    an ``error`` record of phase ``initialization`` with no keywords,
    and ``last_error`` links to the same record."""
    service = _debug_service(engine)
    status, _, body = service.handle_path("/search?q=the+of+and")
    assert status == 404
    payload = json.loads(body)
    assert payload["phase"] == "initialization"
    status, _, body = service.handle_path(
        f"/debug/queries/{payload['query_id']}"
    )
    assert status == 200
    record = json.loads(body)
    assert record["outcome"] == "error"
    assert record["error_phase"] == "initialization"
    assert record["keywords"] == [] and record["dropped_terms"] == []
    assert service.flight.get(payload["query_id"]).keywords == ()
    assert service.last_error["query_id"] == payload["query_id"]
    assert service.last_error["phase"] == "initialization"


#: Lock constructors the recorder swaps for recording ones.
_LOCK_CONSTRUCTORS = ("Lock", "RLock")

#: A nested acquisition waits this long before it is reported as a
#: deadlock instead of hanging the test.
_DEADLOCK_SECONDS = 10.0


def _lock_sites():
    """``(path, line)`` of every lock construction in ``src/repro``,
    paths relative to the package (a ``from threading import Lock`` is a
    site too: the recorder cannot swap a name bound at import)."""
    root = package_root()
    sites = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LOCK_CONSTRUCTORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "threading"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "threading"
                and {a.name for a in node.names} & set(_LOCK_CONSTRUCTORS)
            ):
                sites.add((relative, node.lineno))
    return sites


class _RecordingLock:
    """A lock from ``src/repro`` that reports, to its recorder, every
    acquisition made while its thread already holds a recording lock."""

    def __init__(self, inner, site, recorder):
        self._inner = inner
        self.site = site
        self._recorder = recorder

    def acquire(self, blocking=True, timeout=-1):
        stack = self._recorder.held()
        reentry = any(lock is self for lock in stack)
        if stack and not reentry:
            self._recorder.nested.extend(
                (outer.site, self.site) for outer in stack
            )
            if blocking and timeout == -1:
                timeout = _DEADLOCK_SECONDS
        if not self._inner.acquire(blocking, timeout):
            if stack and not reentry:
                raise RuntimeError(f"deadlock: {self.site} never acquired")
            return False
        stack.append(self)
        self._recorder.acquired.add(self.site)
        return True

    def release(self):
        stack = self._recorder.held()
        del stack[len(stack) - 1 - stack[::-1].index(self)]
        self._inner.release()

    def locked(self):
        return self._inner.locked()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class _LockRecorder:
    """Every lock ``src/repro`` constructs while it is active is a
    :class:`_RecordingLock`; every blocking call (sleep, socket, file,
    subprocess, untimed queue get) made while one is held is noted."""

    def __init__(self, monkeypatch):
        self._local = threading.local()
        self.built, self.acquired = set(), set()
        self.nested, self.blocking = [], []
        root = package_root()
        for name in _LOCK_CONSTRUCTORS:
            original = getattr(threading, name)

            def construct(*args, _original=original, **kwargs):
                lock = _original(*args, **kwargs)
                caller = sys._getframe(1)
                path = Path(caller.f_code.co_filename)
                if not path.is_relative_to(root):
                    return lock
                site = (path.relative_to(root).as_posix(), caller.f_lineno)
                self.built.add(site)
                return _RecordingLock(lock, site, self)

            monkeypatch.setattr(threading, name, construct)
        watched = [(time, "sleep"), (builtins, "open"),
                   (subprocess.Popen, "__init__")]
        watched += [
            (socket.socket, method)
            for method in ("accept", "connect", "recv", "recv_into",
                           "send", "sendall")
        ]
        for owner, name in watched:
            self._watch(monkeypatch, owner, name)
        untimed_get = queue.Queue.get

        def get(queue_, block=True, timeout=None):
            if block and timeout is None:
                self._note_blocking("queue.Queue.get")
            return untimed_get(queue_, block, timeout)

        monkeypatch.setattr(queue.Queue, "get", get)

    def held(self):
        """This thread's stack of held recording locks."""
        return self._local.__dict__.setdefault("stack", [])

    def _note_blocking(self, what):
        stack = self.held()
        if stack:
            self.blocking.append((what, [lock.site for lock in stack]))

    def _watch(self, monkeypatch, owner, name):
        original = getattr(owner, name)
        what = f"{getattr(owner, '__name__', owner)}.{name}"

        def call(*args, **kwargs):
            self._note_blocking(what)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    def assert_flat(self):
        """No lock was acquired under another; nothing blocked under one."""
        assert self.nested == [], sorted(set(self.nested))
        assert self.blocking == [], self.blocking


@pytest.fixture
def lock_recorder(monkeypatch):
    return _LockRecorder(monkeypatch)


def test_debug_endpoints_under_concurrency(engine, lock_recorder):
    """Hammer /metrics, /statz and /debug/queries while /search runs:
    exact request counts, no ring corruption, and no thread ever holds
    two locks at once or blocks under one."""
    from concurrent.futures import ThreadPoolExecutor

    service = _debug_service(engine, max_records=4)
    n_search, n_read = 24, 30
    paths = ["/search?q=machine+learning&k=1"] * n_search + [
        "/metrics",
        "/statz",
        "/debug/queries",
    ] * (n_read // 3)
    with ThreadPoolExecutor(max_workers=8) as executor:
        statuses = list(
            executor.map(lambda p: service.handle_path(p)[0], paths)
        )
    lock_recorder.assert_flat()
    assert statuses.count(200) == len(paths)
    for endpoint, count in (
        ("/search", n_search),
        ("/metrics", n_read // 3),
        ("/statz", n_read // 3),
        ("/debug/queries", n_read // 3),
    ):
        assert service.registry.value(
            service_module.METRIC_HTTP_REQUESTS, endpoint=endpoint
        ) == count
    # Every search was recorded exactly once; the ring stayed bounded.
    assert service.flight.completed == n_search
    listing = service.flight.debug_payload()
    assert len(listing["recent"]) == 4
    ids = [row["query_id"] for row in listing["recent"]]
    assert len(set(ids)) == len(ids)


def _status(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def test_every_lock_in_src_is_flat_under_every_endpoint(
    tiny_kb, lock_recorder
):
    """Every lock ``src/repro`` constructs — found by the recorder, and
    matched against the construction sites in the source — is acquired
    with no other lock held and no blocking call under it, while every
    HTTP endpoint is served to concurrent clients and the locked
    ablation engine runs on two threads."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.activation import activation_levels
    from repro.parallel import LockedDictEngine

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    server = _serve(engine)
    port = server.server_address[1]
    try:
        assert _status(port, "/search?q=machine+learning&k=2") == 200
        query_id = server.service.flight.debug_payload()["recent"][0][
            "query_id"
        ]
        paths = {
            "/": 200,
            "/healthz": 200,
            "/search?q=machine+learning&k=2": 200,
            "/search?q=data+learning&k=3": 200,
            "/search?q=zzzzqqq": 404,
            "/search?q=machine&k=x": 400,
            "/metrics": 200,
            "/statz": 200,
            "/debug/queries": 200,
            f"/debug/queries/{query_id}": 200,
            "/debug/queries/x": 400,
            "/nowhere": 404,
        }
        with ThreadPoolExecutor(max_workers=4) as clients:
            got = list(clients.map(lambda p: _status(port, p), list(paths) * 3))
    finally:
        _stop(server)
    assert got == list(paths.values()) * 3

    locked = LockedDictEngine(graph, engine.weights, engine.index, n_threads=2)
    activation = activation_levels(engine.weights, 3.0, 0.1)
    assert locked.search("machine learning data", activation, k=5).answers

    lock_recorder.assert_flat()
    assert lock_recorder.built == _lock_sites()
    assert lock_recorder.acquired == lock_recorder.built


# ---------------------------------------------------------------------------
# Real HTTP round-trip (ephemeral port)
# ---------------------------------------------------------------------------
def _serve(engine):
    server = create_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _stop(server):
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def server(engine):
    server = _serve(engine)
    yield server
    _stop(server)


def _get(server, path, timeout=10):
    port = server.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, response.read().decode("utf-8")


def test_http_health(server):
    status, body = _get(server, "/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def test_http_search_roundtrip(server):
    status, body = _get(server, "/search?q=machine+learning&k=2&pretty=1")
    assert status == 200
    payload = json.loads(body)
    assert payload["query"] == "machine learning"
    assert payload["answers"]


def test_a_query_over_64_keywords_gets_400_with_the_limit():
    """The keyword limit reaches the client: 64 keyword groups are
    answered, 65 get a 400 whose message names the limit — not a
    dropped connection from the worker's catch-all."""
    from urllib.parse import quote

    graph, words = keyword_star(65)
    engine = KeywordSearchEngine(graph, average_distance=2.0)
    status, payload = SearchService(engine).handle_search(" ".join(words), k=1)
    assert status == 400 and "at most 64 keywords" in payload["error"]
    server = _serve(engine)
    try:
        status, body = _get(server, f"/search?q={quote(' '.join(words[:64]))}&k=1")
        assert status == 200
        assert len(json.loads(body)["keywords"]) == 64
        with pytest.raises(urllib.error.HTTPError) as refused:
            _get(server, f"/search?q={quote(' '.join(words))}&k=1")
        assert refused.value.code == 400
        error = json.loads(refused.value.read().decode("utf-8"))["error"]
        assert "at most 64 keywords" in error and "has 65" in error
    finally:
        _stop(server)


def test_a_query_over_64_keywords_links_its_flight_record():
    """The 400 for too many keywords carries the failed query's record
    id and phase, as the 404 does, so ``/statz`` leads to the record."""
    graph, words = keyword_star(65)
    service = SearchService(KeywordSearchEngine(graph, average_distance=2.0))
    status, _, body = service.handle_path(
        "/search?q=" + "+".join(words) + "&k=1"
    )
    assert status == 400
    payload = json.loads(body)
    (record,) = service.flight.debug_payload()["recent"]
    assert record["outcome"] == "error"
    assert payload["query_id"] == record["query_id"]
    assert payload["phase"] == "total"
    last_error = json.loads(service.handle_path("/statz")[2])["service"][
        "last_error"
    ]
    assert last_error["query_id"] == record["query_id"] is not None
    assert last_error["phase"] == "total"


def test_http_index_page(server):
    status, body = _get(server, "/")
    assert status == 200
    assert "<form" in body


def test_http_error_status(server):
    import urllib.error

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/search?q=zzzzqqq")
    assert excinfo.value.code == 404


def test_http_metrics_and_statz(server):
    status, body = _get(server, "/metrics")
    assert status == 200
    assert "repro_http_requests_total" in body
    status, body = _get(server, "/statz")
    assert status == 200
    assert json.loads(body)["metrics"]["repro_http_requests_total"][
        '{endpoint="/metrics"}'
    ] >= 1


def test_http_debug_queries_roundtrip(server):
    _get(server, "/search?q=machine+learning&k=1")
    status, body = _get(server, "/debug/queries")
    assert status == 200
    listing = json.loads(body)
    assert listing["completed"] >= 1
    query_id = listing["recent"][0]["query_id"]
    status, body = _get(server, f"/debug/queries/{query_id}")
    assert status == 200
    assert json.loads(body)["query_id"] == query_id


# ---------------------------------------------------------------------------
# The request worker set
# ---------------------------------------------------------------------------
def _idle(server):
    """A client connection that sends nothing."""
    return socket.create_connection(server.server_address, timeout=10)


def _taken(monkeypatch):
    """An event set whenever a request worker takes a connection, before
    it reads the request."""
    taken = threading.Event()
    handle = service_module.SearchServer.handle_connection

    def note_and_handle(server, connection):
        taken.set()
        handle(server, connection)

    monkeypatch.setattr(
        service_module.SearchServer, "handle_connection", note_and_handle
    )
    return taken


def _rebinds(engine, port):
    """The listening socket is gone: the same port binds again."""
    create_server(engine, port=port).server_close()


def test_server_close_joins_workers_and_frees_the_port(engine):
    """Both workers are blocked in ``accept`` when the server closes:
    shutting the listening socket down wakes them at once, not after
    the request timeout."""
    server = _serve(engine)
    assert len(server.workers) == service_module.REQUEST_WORKERS
    assert all(w.name.startswith("repro-http-") for w in server.workers)
    assert _get(server, "/healthz")[0] == 200
    port = server.server_address[1]
    time.sleep(0.05)
    started = time.monotonic()
    _stop(server)
    assert time.monotonic() - started < 1
    assert not any(worker.is_alive() for worker in server.workers)
    _rebinds(engine, port)


def test_server_close_waits_out_an_idle_connection(engine, monkeypatch):
    """``server_close`` returns within the request timeout while a
    worker holds a connection that sends nothing; the worker blocked in
    ``accept`` is woken at once, and the holder ends when the timeout
    drops its connection (the join may give up just before that)."""
    monkeypatch.setattr(service_module, "REQUEST_TIMEOUT", 0.5)
    taken = _taken(monkeypatch)
    server = _serve(engine)
    port = server.server_address[1]
    idle = _idle(server)
    try:
        assert taken.wait(10), "no worker took the idle connection"
        started = time.monotonic()
        _stop(server)
        assert time.monotonic() - started < 0.5 + 1.0
    finally:
        idle.close()
    for worker in server.workers:
        worker.join(1)
    assert not any(worker.is_alive() for worker in server.workers)
    _rebinds(engine, port)


def test_idle_connection_frees_its_worker(engine, monkeypatch):
    """A connection that sends nothing is closed after the handler
    timeout, so the one worker answers the next request. Without the
    timeout it would wait on the idle connection for good: the client's
    own timeout is the guard."""
    monkeypatch.setattr(service_module, "REQUEST_WORKERS", 1)
    monkeypatch.setattr(service_module, "REQUEST_TIMEOUT", 0.3)
    server = _serve(engine)
    idle = _idle(server)
    try:
        started = time.monotonic()
        assert _get(server, "/healthz", timeout=5)[0] == 200
        assert time.monotonic() - started < 5
    finally:
        idle.close()
        _stop(server)


def test_slow_drip_request_frees_its_worker(engine, monkeypatch):
    """A client sending one byte every 0.2 s never lets a 0.3 s socket
    timeout fire; the whole request still has only 0.3 s to arrive, so
    the one worker answers the next request. A per-recv timeout alone
    would keep serving the drip for as long as it lasts (4 s, past the
    client's 3 s guard)."""
    monkeypatch.setattr(service_module, "REQUEST_WORKERS", 1)
    monkeypatch.setattr(service_module, "REQUEST_TIMEOUT", 0.3)
    taken = _taken(monkeypatch)
    server = _serve(engine)
    stop = threading.Event()
    drip = _idle(server)

    def send_slowly():
        for byte in b"GET /" + b"a" * 19:
            if stop.wait(0.2):
                return
            try:
                drip.sendall(bytes([byte]))
            except OSError:
                return  # the server dropped the connection

    dripper = threading.Thread(target=send_slowly, daemon=True)
    dripper.start()
    try:
        assert taken.wait(10), "the worker never took it"
        started = time.monotonic()
        assert _get(server, "/healthz", timeout=3)[0] == 200
        assert time.monotonic() - started < 3
    finally:
        stop.set()
        dripper.join()
        drip.close()
        _stop(server)


N_BURST = 32


def test_a_burst_behind_a_held_worker_waits_in_the_backlog(
    engine, monkeypatch
):
    """The listen backlog is the request queue. With the one worker held
    by an idle connection, 32 connections opened at once from one thread
    all complete their handshake (a short backlog would drop SYNs, to be
    retried only after a second), and once the worker is free every one
    is answered 200."""
    import selectors

    monkeypatch.setattr(service_module, "REQUEST_WORKERS", 1)
    taken = _taken(monkeypatch)
    server = _serve(engine)
    idle = _idle(server)
    selector = selectors.DefaultSelector()
    clients = []
    try:
        assert taken.wait(10), "the worker never took the idle connection"
        for _ in range(N_BURST):
            client = socket.socket()
            client.setblocking(False)
            client.connect_ex(server.server_address)
            clients.append(client)
            selector.register(client, selectors.EVENT_WRITE)
        connected, deadline = 0, time.monotonic() + 0.9
        while connected < N_BURST and time.monotonic() < deadline:
            for key, _ in selector.select(deadline - time.monotonic()):
                client = key.fileobj
                assert client.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
                client.send(b"GET /healthz HTTP/1.0\r\n\r\n")
                selector.modify(client, selectors.EVENT_READ, data=[])
                connected += 1
        assert connected == N_BURST, f"{connected} of {N_BURST} got through"
        idle.close()
        replies, deadline = [], time.monotonic() + 30
        while len(replies) < N_BURST and time.monotonic() < deadline:
            for key, _ in selector.select(deadline - time.monotonic()):
                chunk = key.fileobj.recv(65536)
                if chunk:
                    key.data.append(chunk)
                else:
                    selector.unregister(key.fileobj)
                    replies.append(b"".join(key.data))
    finally:
        selector.close()
        for client in clients:
            client.close()
        idle.close()
        _stop(server)
    assert len(replies) == N_BURST
    assert all(reply.startswith(b"HTTP/1.0 200 OK\r\n") for reply in replies)


def test_two_workers_serving_at_once_leave_at_most_two_arenas(tiny_kb):
    """Each query leases a search arena and returns it: four clients
    against the two request workers leave one or two arenas, which
    ``/statz`` reports beside the graph's storage."""
    engine = KeywordSearchEngine(tiny_kb[0])
    server = _serve(engine)
    errors = []

    def client():
        try:
            for _ in range(10):
                _get(server, "/search?q=machine+learning&k=3")
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        storage = json.loads(_get(server, "/statz")[1])["storage"]
    finally:
        _stop(server)
    assert not errors, errors
    assert 1 <= storage["search_arenas"] <= service_module.REQUEST_WORKERS == 2
    assert storage["search_arena_bytes"] == (
        engine.arenas.report()["search_arena_bytes"]
    )
    assert storage["search_arena_bytes"] >= storage["search_arenas"] * (
        engine.graph.n_nodes * (1 + 1 + 1 + 1 + 2 + 4 + 8 + 8)
    )
    assert engine.arenas.leased == 0


def _raw_request(server, request):
    """Send ``request`` bytes on one connection: the reply's status
    line and JSON body."""
    with socket.create_connection(server.server_address, timeout=10) as client:
        client.sendall(request)
        chunks = []
        while chunk := client.recv(65536):
            chunks.append(chunk)
    head, body = b"".join(chunks).split(b"\r\n\r\n", 1)
    return head.split(b"\r\n", 1)[0].decode(), json.loads(body)


@pytest.mark.parametrize("request_line, status", [
    (b"GET\r\n\r\n", "400 Bad Request"),
    (b"GET /healthz HTTP/1.0 extra\r\n\r\n", "400 Bad Request"),
    (b"GET /healthz NOTHTTP\r\n\r\n", "400 Bad Request"),
    (b"POST /search HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
     "501 Not Implemented"),
    (b"HEAD / HTTP/1.0\r\n\r\n", "501 Not Implemented"),
    # A body far past the first read: it is drained, not reset away.
    (b"POST /search HTTP/1.0\r\nContent-Length: 300000\r\n\r\n"
     + b"x" * 300000, "501 Not Implemented"),
], ids=[
    "no-target", "extra-word", "not-http", "post", "head", "post-large-body",
])
def test_the_shell_answers_what_it_cannot_dispatch(
    server, request_line, status
):
    got, payload = _raw_request(server, request_line)
    assert got == f"HTTP/1.0 {status}"
    assert set(payload) == {"error"}


def test_an_oversize_head_gets_414_or_431(server):
    line = b"GET /search?q=" + b"a" * service_module.MAX_REQUEST_HEAD
    status, payload = _raw_request(server, line + b" HTTP/1.0\r\n\r\n")
    assert status == "HTTP/1.0 414 Request-URI Too Long"
    assert "request line" in payload["error"]
    fields = b"".join(
        b"X-Filler-%d: %s\r\n" % (number, b"b" * 1000) for number in range(80)
    )
    status, payload = _raw_request(
        server, b"GET /healthz HTTP/1.0\r\n" + fields + b"\r\n"
    )
    assert status == "HTTP/1.0 431 Request Header Fields Too Large"
    assert "header" in payload["error"]
    # A small head whose body fills the first read is not oversize.
    status, payload = _raw_request(
        server,
        b"GET /healthz HTTP/1.0\r\nContent-Length: 70000\r\n\r\n"
        + b"x" * 70000,
    )
    assert status == "HTTP/1.0 200 OK" and payload["status"] == "ok"
    # The worker is free again.
    assert _get(server, "/healthz")[0] == 200


def test_a_worker_outlives_an_exception_outside_the_reply(
    engine, monkeypatch, capsys
):
    """A request whose handling raises past ``handle_path``'s guard
    loses its reply, not its worker: after more such requests than
    there are workers, the next request is still answered."""
    handle = service_module.SearchServer.handle_connection
    failures = [service_module.REQUEST_WORKERS + 1]

    def fail_then_handle(server, connection):
        if failures[0]:
            failures[0] -= 1
            raise RuntimeError("planted worker failure")
        handle(server, connection)

    monkeypatch.setattr(
        service_module.SearchServer, "handle_connection", fail_then_handle
    )
    server = _serve(engine)
    try:
        for _ in range(service_module.REQUEST_WORKERS + 1):
            with socket.create_connection(
                server.server_address, timeout=10
            ) as client:
                client.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                try:
                    assert client.recv(65536) == b""
                except ConnectionResetError:
                    pass  # closed with the request unread
        assert _get(server, "/healthz")[0] == 200
        assert all(worker.is_alive() for worker in server.workers)
    finally:
        _stop(server)
    err = capsys.readouterr().err
    assert err.count("RuntimeError: planted worker failure") == (
        service_module.REQUEST_WORKERS + 1
    )


def test_queries_run_on_request_workers(server, monkeypatch):
    engine = server.service.engine
    search, threads = engine.search, []

    def recording_search(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return search(*args, **kwargs)

    monkeypatch.setattr(engine, "search", recording_search)
    for _ in range(3):
        assert _get(server, "/search?q=machine+learning&k=1")[0] == 200
    assert len(threads) == 3
    assert all(name.startswith("repro-http-") for name in threads)


# ---------------------------------------------------------------------------
# The bytes on the wire
# ---------------------------------------------------------------------------
HTTP_GOLDENS = Path(__file__).parent / "data" / "http_goldens.json"


def _raw_get(server, path):
    """One HTTP/1.0 GET on its own connection: the reply's raw bytes."""
    with socket.create_connection(server.server_address, timeout=10) as client:
        client.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while chunk := client.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_replies_match_the_recorded_goldens(tiny_kb, monkeypatch):
    """Status line, every header but ``Date``, and the body of ``/``,
    ``/healthz``, two ``/search`` (one larger than the write buffer), a
    404, a 400 and ``/metrics`` are the bytes the shell sent before its
    workers accepted their own connections."""
    import hashlib
    import types

    from repro.core.results import SearchResult

    golden = json.loads(HTTP_GOLDENS.read_text())["replies"]
    monkeypatch.setattr(
        SearchResult,
        "milliseconds",
        lambda result: {name: 0.0 for name in result.timer.seconds},
    )
    monkeypatch.setattr(service_module, "time", types.SimpleNamespace(
        perf_counter=lambda: 0.0, monotonic=time.monotonic, time=time.time,
    ))
    server = _serve(KeywordSearchEngine(tiny_kb[0]))
    try:
        replies = [_raw_get(server, row["path"]) for row in golden]
    finally:
        _stop(server)
    # One body is larger than a socket's default send buffer.
    assert any(row["body_length"] > 1 << 16 for row in golden)
    python = sys.version.split()[0]
    for row, reply in zip(golden, replies):
        head, body = reply.split(b"\r\n\r\n", 1)
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = [line.split(": ", 1) for line in lines]
        assert status_line == row["status_line"], row["path"]
        assert [name for name, _ in headers if name == "Date"] == ["Date"]
        assert [[name, value] for name, value in headers if name != "Date"] == [
            [name, value.format(python_version=python)]
            for name, value in row["headers"]
        ], row["path"]
        assert len(body) == row["body_length"], row["path"]
        assert hashlib.sha256(body).hexdigest() == row["body_sha256"], row["path"]


def test_every_reply_leaves_in_one_send(server, monkeypatch):
    """Status line, headers and body go to the socket in one ``sendall``,
    a reply far larger than a socket buffer too."""
    sent = []
    for method in ("send", "sendall"):
        original = getattr(socket.socket, method)

        def record(sock, data, *args, _method=method, _original=original):
            if threading.current_thread().name.startswith("repro-http-"):
                sent.append((_method, len(data)))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, method, record)
    for path in (
        "/healthz",
        "/search?q=machine+learning&k=3",
        "/search?q=machine+learning+knowledge+graph&k=50&pretty=1",
    ):
        sent.clear()
        reply = _raw_get(server, path)
        assert sent == [("sendall", len(reply))], path
    assert len(reply) > 1 << 16
