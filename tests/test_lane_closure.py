"""Lane closure: the bottom-up loop's fourth stop is exact.

``BottomUpSearch`` stops once no further Central Node can exist (the
lane-closure rule, :mod:`repro.core.bottom_up`). Here Algorithm 1 runs
as printed — ``backend.run_level`` until k Central Nodes, an empty
frontier or ``lmax`` — beside it on random graphs, q 1..8, α ∈ {0.05,
0.4, 0.8} and k up to 400, for every stage-one route. The Central Nodes
and their depths must be equal, M equal on every cell ≤ the depth, and
the answers and their scores equal by ``==``. ``LockedDictEngine``, which
runs its own loop, must agree with the engine on all of that plus the
termination reason and depth. Each comparison also asserts that the
rule fired on a stated share of the corpus, so it cannot pass by never
stopping early.
"""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.core.engine import KeywordSearchEngine
from repro.core.state import INFINITE_LEVEL, TERMINATED_NO_MORE_CENTRAL
from repro.core.top_down import TopDownConfig, process_top_down
from repro.graph.builder import GraphBuilder
from repro.parallel import (
    LockedDictEngine,
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)

from conftest import unabridged_search

#: Ten words with Zipf-like frequencies: the rare ones are the keyword
#: lanes that close early, the common ones keep the search going.
WORDS = (
    "alpha", "beta", "gamma", "delta", "omega",
    "sigma", "theta", "lambda", "kappa", "zeta",
)
ALPHAS = (0.05, 0.4, 0.8)
#: A per block of eight graphs. Under A = 8 activation levels reach 16,
#: so blocked neighbours hold sources back for levels on end: lanes
#: stay open on retries alone, which A = 3 hardly ever shows.
AVERAGE_DISTANCES = (3.0, 8.0)
N_GRAPHS = 40
#: The rule fires on 65 of the corpus's 351 cases (19 %); a mask term
#: dropped on any route makes that route stop too early somewhere in it.
MIN_FIRED_SHARE = 0.15


def _graph(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 90))
    weights = 1.0 / np.arange(1, len(WORDS) + 1) ** 2.0
    builder = GraphBuilder()
    for _ in range(n):
        words = rng.choice(
            WORDS,
            size=int(rng.integers(1, 3)),
            replace=False,
            p=weights / weights.sum(),
        )
        builder.add_node(" ".join(words))
    seen = set()
    for _ in range(int(n * rng.uniform(1.0, 1.5))):
        source, target = int(rng.integers(n)), int(rng.integers(n))
        if source != target and (source, target) not in seen:
            seen.add((source, target))
            builder.add_edge(source, target, "p")
    return builder.build()


def _corpus():
    """``(graph, engine, query, alpha, k)`` for every case."""
    for seed in range(N_GRAPHS):
        graph = _graph(seed)
        engine = KeywordSearchEngine(
            graph,
            backend=SequentialBackend(),
            average_distance=AVERAGE_DISTANCES[seed // 8 % 2],
        )
        rng = np.random.default_rng(seed + 1000)
        q = 1 + seed % 8
        query = " ".join(rng.permutation(WORDS)[:q])
        for alpha in ALPHAS:
            for k in (int(rng.integers(1, 10)), 50, 400):
                yield graph, engine, query, alpha, k


def _answers(graph, state, weights, k):
    return [
        (
            answer.central_node,
            answer.depth,
            sorted(answer.nodes),
            sorted(answer.edges),
            answer.score,
        )
        for answer in process_top_down(
            graph, state, weights, TopDownConfig(k=k)
        )[0]
    ]


def _masked(matrix, depth):
    return np.where(matrix <= depth, matrix, INFINITE_LEVEL)


ROUTES = {
    "sequential": SequentialBackend,
    "vectorized": VectorizedBackend,
    "threads": lambda: ThreadPoolBackend(n_threads=2, chunks_per_thread=1),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_lane_closure_matches_the_unabridged_loop(route):
    fired = cases = 0
    with ROUTES[route]() as backend:
        for graph, engine, query, alpha, k in _corpus():
            sets = [
                nodes
                for _, nodes in engine.index.query_node_sets(query)
                if len(nodes)
            ]
            if not sets:
                continue
            activation = engine.activation_for(alpha)
            label = f"{route}: {query!r} alpha={alpha} k={k}"
            result = BottomUpSearch(graph, backend=backend).run(
                sets, activation, k
            )
            reference, levels = unabridged_search(
                graph, backend, sets, activation, k
            )
            cases += 1
            assert sorted(result.central_nodes) == sorted(
                reference.central_nodes
            ), label
            if result.central_nodes:
                assert result.depth == max(
                    depth for _, depth in reference.central_nodes
                ), label
            assert np.array_equal(
                _masked(result.state.matrix, result.depth),
                _masked(reference.matrix, result.depth),
            ), label
            assert _answers(graph, result.state, engine.weights, k) == _answers(
                graph, reference, engine.weights, k
            ), label
            if result.terminated == TERMINATED_NO_MORE_CENTRAL:
                fired += 1
                assert result.levels_executed < levels, label
            else:
                assert result.levels_executed == levels, label
                assert np.array_equal(
                    result.state.matrix, reference.matrix
                ), label
    assert cases > 300
    assert fired >= MIN_FIRED_SHARE * cases, (fired, cases)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_locked_lane_closure_matches_the_engine(n_threads):
    fired = cases = 0
    for graph, engine, query, alpha, k in _corpus():
        if not any(len(nodes) for _, nodes in engine.index.query_node_sets(query)):
            continue
        locked = LockedDictEngine(
            graph, engine.weights, engine.index, n_threads=n_threads
        )
        expected = engine.search(query, k=k, alpha=alpha)
        actual = locked.search(query, engine.activation_for(alpha), k=k)
        label = f"{query!r} alpha={alpha} k={k}"
        cases += 1
        assert [
            (a.graph.central_node, a.graph.depth, sorted(a.graph.nodes),
             sorted(a.graph.edges), a.score)
            for a in actual.answers
        ] == [
            (a.graph.central_node, a.graph.depth, sorted(a.graph.nodes),
             sorted(a.graph.edges), a.score)
            for a in expected.answers
        ], label
        assert actual.n_central_nodes == expected.n_central_nodes, label
        assert actual.depth == expected.depth, label
        assert actual.terminated == expected.terminated, label
        fired += actual.terminated == TERMINATED_NO_MORE_CENTRAL
    assert cases > 300
    assert fired >= MIN_FIRED_SHARE * cases, (fired, cases)
