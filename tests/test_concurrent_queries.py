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
released) have nothing of each other's to see. The last test runs the
same check over real HTTP, through the server's worker set.
"""

import json
import sys
import threading
import urllib.request
from urllib.parse import quote

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.eval.queries import KeywordWorkload
from repro.graph.generators import wiki2018_config, wiki_like_kb
from repro.obs.flight import FlightRecorder
from repro.parallel import SequentialBackend, VectorizedBackend
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
