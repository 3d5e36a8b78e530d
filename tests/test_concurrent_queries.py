"""Request threads sharing one engine must not share a query's buffers.

The server's request workers answer requests side by side, all of them
through one :class:`SearchService`, one engine and one
:class:`VectorizedBackend`, and the native whole-level call runs with the
GIL released. Whatever a level writes must therefore belong to the query:
with the output buffers cached on the backend, two queries overwrote each
other's frontier and Central-Node lists and about a third of the answers
at two clients were wrong. The buffers and the whole-level call bound to
them live on the query's ``SearchState``, and after a concurrent run the
backend holds nothing but its configuration. The same goes for what a
level *reports*: the
NumPy tier (since removed) once published a level's kernel counters
through an attribute of the shared backend, so concurrent queries could
swap level profiles; the inherited level is checked for that on
``SequentialBackend``.
Stage two is checked the same way — every ranked answer's node and edge
sets, not only its Central-Node id: the batched ``extract_graphs``
call's ``marks`` / stack / member / pair scratch and its output
buffers belong to the search arena the query leased, and
``rank_graphs`` works on those and on buffers of its own, so two
requests walking back at the same moment (the calls run with the GIL
released) have nothing of each other's to see. And for where a level's
spans go: the tracer used to be an attribute the bottom-up loop set on
the shared backend, so a traced query's ``chunk`` spans landed in the
tree of whichever query started last; it travels on the query's
``SearchState`` now. The last test runs the same check over real HTTP,
through the server's worker set.
"""

import json
import sys
import threading
import urllib.request
from urllib.parse import quote

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.core.engine import KeywordSearchEngine
from repro.eval.queries import KeywordWorkload
from repro.graph.generators import wiki2018_config, wiki_like_kb
from repro.instrumentation import PhaseTimer
from repro.obs.flight import FlightRecorder
from repro.obs.tracing import Tracer
from repro.parallel import (
    ExpansionBackend,
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)
from repro.service import METRIC_HTTP_REQUESTS, SearchService, create_server

N_THREADS = 3
N_QUERIES = 60
K = 5


def _stage_two(nodes, edges):
    """One ranked answer's extracted node and edge sets, comparable."""
    return sorted(nodes), sorted(tuple(edge) for edge in edges)


@pytest.fixture(scope="module")
def engine():
    graph, _ = wiki_like_kb(wiki2018_config())
    return KeywordSearchEngine(graph)


@pytest.fixture(scope="module")
def expected(engine):
    """Query → answer of the sequential reference route."""
    reference = KeywordSearchEngine(
        engine.graph,
        backend=SequentialBackend(),
        index=engine.index,
        weights=engine.weights,
        average_distance=engine.average_distance,
    )
    workload = KeywordWorkload(engine.index, seed=16)
    queries = [workload.sample_query(2 + i % 3) for i in range(N_QUERIES)]
    answers = {}
    for query in queries:
        result = reference.search(query, k=K)
        answers[query] = (
            [answer.graph.central_node for answer in result.answers],
            [answer.score for answer in result.answers],
            result.depth,
            result.n_central_nodes,
            [_stage_two(answer.graph.nodes, answer.graph.edges)
             for answer in result.answers],
        )
    assert len(answers) >= 50
    return answers


@pytest.fixture(scope="module")
def sequential_engine(engine):
    return KeywordSearchEngine(
        engine.graph,
        backend=SequentialBackend(),
        index=engine.index,
        weights=engine.weights,
        average_distance=engine.average_distance,
    )


def _levels(service, payload):
    """The query's recorded level rows without their wall times, which
    differ between any two runs."""
    return [
        {key: value for key, value in row.items() if key != "ms"}
        for row in service.flight.get(payload["query_id"]).levels
    ]


def _matches(expected, query, status, payload):
    """Does one ``/search`` payload carry the reference answer?"""
    nodes, scores, depth, nc, graphs = expected[query]
    answers = payload.get("answers", [])
    got_graphs = [
        _stage_two(
            (node["id"] for node in answer["nodes"]),
            ((edge["source"], edge["target"]) for edge in answer["edges"]),
        )
        for answer in answers
    ]
    return (
        status == 200
        and [answer["central_node"] for answer in answers] == nodes
        and [answer["score"] for answer in answers]
        == pytest.approx(scores, abs=1e-9)
        and got_graphs == graphs
        and payload["depth"] == depth
        and payload["n_central_nodes"] == nc
    )


def _run_clients(client, n_clients):
    """``client(i)`` on ``n_clients`` threads at once, under a short
    switch interval; returns the exceptions they raised."""
    errors = []

    def guarded(i):
        try:
            client(i)
        except Exception as error:  # reported by the caller
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(n_clients)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def _assert_threads_get_serial_results(engine, expected):
    # Every record stays in the ring until its client has read it.
    service = SearchService(
        engine, flight=FlightRecorder(max_records=(N_THREADS + 1) * N_QUERIES)
    )
    queries = list(expected)
    serial_levels = {}
    for query in queries:
        _, payload = service.handle_search(query, k=K)
        serial_levels[query] = _levels(service, payload)
    # The service's kernel counters after one serial pass (none on a
    # route without a counter tier).
    serial_counts = service.registry.snapshot()
    assert bool(serial_counts) == (engine.backend.counter_tier is not None)
    wrong = []

    def client(i):
        # Each client starts elsewhere in the list, so different queries
        # are in flight at the same moment.
        offset = i * N_QUERIES // N_THREADS
        for query in queries[offset:] + queries[:offset]:
            status, payload = service.handle_search(query, k=K)
            if not _matches(expected, query, status, payload) or (
                _levels(service, payload) != serial_levels[query]
            ):
                wrong.append((query, status))

    errors = _run_clients(client, N_THREADS)
    assert not errors, errors
    assert not wrong, f"{len(wrong)} of {N_THREADS * N_QUERIES} answers differ: {wrong[:3]}"
    # Each answered query added its kernel work once: no increment was
    # lost or doubled between the request threads.
    assert service.registry.snapshot() == {
        name: {labels: value * (N_THREADS + 1) for labels, value in family.items()}
        for name, family in serial_counts.items()
    }
    # The level buffers and the bound whole-level call stayed with each
    # query's state: the shared backend carries nothing.
    assert not vars(engine.backend)


def test_threads_sharing_one_service_get_reference_answers(engine, expected):
    _assert_threads_get_serial_results(engine, expected)


def test_threads_sharing_the_inherited_level_get_serial_level_profiles(
    sequential_engine, expected
):
    _assert_threads_get_serial_results(sequential_engine, expected)


def _chunk_spans(tracer):
    """``(level, chunk_size)`` of every ``chunk`` span of ``tracer``, each
    checked to hang (through its ``phase:expansion``) under a ``level``
    span of the same tree and level."""
    spans = {span.span_id: span for span in tracer.finished_spans()}
    found = []
    for span in spans.values():
        if span.name != "chunk":
            continue
        phase = spans.get(span.parent_id)
        assert phase is not None and phase.name == "phase:expansion", span
        parent = spans.get(phase.parent_id)
        assert parent is not None and parent.name == "level", span
        assert parent.attrs["level"] == span.attrs["level"], span
        found.append((span.attrs["level"], span.attrs["chunk_size"]))
    return sorted(found)


class _Rendezvous(ExpansionBackend):
    """One search's handle on the shared pool: delegates every level to
    it, and holds the search after its first level until the other
    search has run its first level too."""

    def __init__(self, shared, mine, theirs):
        self.shared, self.mine, self.theirs = shared, mine, theirs

    def expand(self, graph, state, level):
        raise AssertionError("levels go to the shared backend")

    def run_level(self, graph, state, level, k, may_expand, timer):
        outcome = self.shared.run_level(
            graph, state, level, k, may_expand, timer
        )
        self.mine.set()
        assert self.theirs.wait(timeout=60)
        return outcome


def test_traced_queries_sharing_a_thread_pool_keep_their_own_chunk_spans(engine):
    graph = engine.graph
    rng = np.random.default_rng(21)
    activation = np.zeros(graph.n_nodes, dtype=np.int32)
    problems = [
        [rng.choice(graph.n_nodes, size=4, replace=False) for _ in range(q)]
        for q in (2, 3)
    ]
    with ThreadPoolBackend(n_threads=2) as backend:
        searcher = BottomUpSearch(graph, backend=backend)
        serial = []
        for sets in problems:
            tracer = Tracer(enabled=True)
            searcher.run(
                sets, activation, k=K, timer=PhaseTimer(tracer=tracer)
            )
            serial.append(_chunk_spans(tracer))
            # Chunks at several levels, or the overlap below shows nothing.
            assert len({level for level, _ in serial[-1]}) >= 2

        started = [threading.Event(), threading.Event()]
        tracers = [Tracer(enabled=True), Tracer(enabled=True)]
        errors = []

        def client(i):
            try:
                held = _Rendezvous(backend, started[i], started[1 - i])
                BottomUpSearch(graph, backend=held).run(
                    problems[i], activation, k=K,
                    timer=PhaseTimer(tracer=tracers[i]),
                )
            except Exception as error:  # reported by the main thread below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert [_chunk_spans(tracer) for tracer in tracers] == serial


N_HTTP_QUERIES = 20


def test_http_clients_through_the_worker_set_get_reference_answers(
    engine, expected
):
    """3 client threads × 20 ``/search`` requests over real HTTP, each on
    its own connection, answered by the server's request workers: every
    payload equals the ``SequentialBackend`` answer."""
    queries = list(expected)
    server = create_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = "http://127.0.0.1:%d/search?k=%d&q=" % (server.server_address[1], K)
    wrong = []

    def client(i):
        for query in queries[i * N_HTTP_QUERIES:(i + 1) * N_HTTP_QUERIES]:
            with urllib.request.urlopen(base + quote(query), timeout=60) as r:
                status, payload = r.status, json.loads(r.read())
            if not _matches(expected, query, status, payload):
                wrong.append((query, status))

    try:
        errors = _run_clients(client, N_THREADS)
    finally:
        server.shutdown()
        server.server_close()
    assert not errors, errors
    assert not wrong, f"{len(wrong)} of {N_THREADS * N_HTTP_QUERIES} answers differ: {wrong[:3]}"
    assert server.service.registry.value(
        METRIC_HTTP_REQUESTS, endpoint="/search"
    ) == N_THREADS * N_HTTP_QUERIES
    assert not vars(engine.backend)
