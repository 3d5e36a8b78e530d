"""Search arenas: the memory a query runs in, leased per query.

``KeywordSearchEngine.search`` leases one arena from its pool for each
call and returns it when the call ends. The arena keeps M, the per-node
arrays, the whole-level outputs, the bound calls and stage two's scratch
from one query to the next, so a query must see a reset arena exactly as
a fresh allocation, two queries in flight must never share one, and
nothing a query returns may point into it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig, KeywordSearchEngine
from repro.core.results import EmptyQueryError
from repro.core.state import (
    ArenaLeaseError,
    ArenaPool,
    SearchArena,
    TooManyKeywordsError,
)
from repro.core.top_down import (
    _EDGE_CAPACITY,
    _NODE_CAPACITY,
    _PAIR_CAPACITY,
)
from repro.eval.queries import KeywordWorkload
from repro.graph.generators import wiki2018_config, wiki_like_kb
from repro.parallel._native import StageTwoScratch
from repro.parallel.vectorized import _native_kernel

from conftest import keyword_star

K = 5


@pytest.fixture(scope="module")
def graph():
    return wiki_like_kb(wiki2018_config())[0]


@pytest.fixture(scope="module")
def engine(graph):
    return KeywordSearchEngine(graph)


@pytest.fixture(scope="module")
def queries(engine):
    """Four queries of each of two to six keywords, each with answers."""
    workload = KeywordWorkload(engine.index, seed=42)
    found = {knum: [] for knum in range(2, 7)}
    for attempt in range(400):
        knum = 2 + attempt % 5
        if len(found[knum]) == 4:
            continue
        query = workload.sample_query(knum)
        result = engine.search(query, k=K)
        if result.answers and len(result.keywords) == knum:
            found[knum].append(query)
    assert all(len(queries) == 4 for queries in found.values())
    return found


def _snapshot(result):
    """Every field of a result that could be read out of an arena."""
    return (
        [
            (
                answer.graph.central_node,
                answer.score,
                sorted(answer.graph.nodes),
                sorted(answer.graph.edges),
                list(answer.graph.member_columns()),
            )
            for answer in result.answers
        ],
        result.depth,
        result.n_central_nodes,
        result.terminated,
        result.peak_state_nbytes,
        result.stage_two,
        [
            (
                outcome.level, outcome.frontier_size, outcome.new_central,
                outcome.new_hits, outcome.edges_scanned, outcome.live_lanes,
                outcome.counters,
            )
            for outcome in result.level_profile
        ],
    )


def test_peak_state_nbytes_is_the_state_plus_its_widest_frontier(graph, queries):
    """Table IV's peak, charged once per query from the arena: M, the
    five per-node arrays and the activation, plus the widest frontier an
    expanded level left, on arenas reused across q."""
    from repro.core.bottom_up import BottomUpSearch
    from repro.text.query_parser import parse_query, resolve_keyword_groups

    engine = KeywordSearchEngine(graph)
    search = BottomUpSearch(graph)
    pool = ArenaPool(graph.n_nodes)
    activation, max_activation = engine._activation(0.1)
    for knum in (2, 6, 3, 5):
        for query in queries[knum][:2]:
            sets = [
                nodes
                for _, nodes in resolve_keyword_groups(
                    parse_query(query), engine.index
                )
                if len(nodes)
            ]
            with pool.lease() as arena:
                result = search.run(
                    sets, activation, K, max_activation=max_activation,
                    arena=arena,
                )
                state = result.state
                arrays = (
                    state.matrix, state.f_identifier, state.c_identifier,
                    state.keyword_node, state.central_level,
                    state.activation, state.finite_count,
                )
                widest = max(
                    (o.frontier_size for o in result.level_profile if o.expanded),
                    default=0,
                )
                assert result.peak_state_nbytes == (
                    sum(a.nbytes for a in arrays) + 8 * widest
                ), query


def _arena_arrays(arena):
    arrays = {
        "matrix": arena.matrix,
        "f_identifier": arena.f_identifier,
        "c_identifier": arena.c_identifier,
        "keyword_node": arena.keyword_node,
        "central_level": arena.central_level,
        "finite_count": arena.finite_count,
    }
    for number, scratch in enumerate(arena._scratches):
        arrays[f"marks{number}"] = scratch.arrays["marks"]
    return arrays


def test_a_reset_arena_equals_a_fresh_one_bitwise(engine, queries):
    """After q = 6, then q = 2, then q = 6 queries, a reset for q = 6
    gives what a fresh arena's reset gives, byte for byte."""
    pool = ArenaPool(engine.graph.n_nodes)
    engine_pool, engine.arenas = engine.arenas, pool
    try:
        for knum in (6, 2, 6):
            assert engine.search(queries[knum][0], k=K).answers
    finally:
        engine.arenas = engine_pool
    (used,) = pool._arenas
    assert used.matrix.shape[1] == 6
    assert len(used._scratches) == 1
    used.reset(6)
    fresh = SearchArena(engine.graph.n_nodes)
    fresh.reset(6)
    got = _arena_arrays(used)
    want = _arena_arrays(fresh)
    want["marks0"] = np.zeros(engine.graph.n_nodes, dtype=np.int32)
    assert set(got) == set(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].tobytes() == array.tobytes(), name


def test_a_planted_double_lease_raises():
    pool = ArenaPool(8)
    with pool.lease() as arena:
        # A bug that returns an arena while its query still runs.
        pool._free.append(arena)
        with pytest.raises(ArenaLeaseError):
            with pool.lease():
                pass
        assert arena.leased
    assert not arena.leased
    with pytest.raises(ArenaLeaseError):
        arena.release()


def test_a_failed_query_returns_its_lease(engine):
    with pytest.raises(EmptyQueryError):
        engine.search("zzzzqqq xxyyzz")
    assert engine.arenas.leased == 0
    graph, words = keyword_star(65)
    star = KeywordSearchEngine(graph, average_distance=2.0)
    with pytest.raises(TooManyKeywordsError):
        star.search(" ".join(words), k=1)
    assert star.arenas.leased == 0
    assert star.arenas.report()["search_arenas"] == 1
    # The returned arena serves the next query.
    assert star.search(" ".join(words[:64]), k=1).answers
    assert star.arenas.report()["search_arenas"] == 1


def test_a_result_does_not_change_after_later_queries(engine, queries):
    """Nothing a result holds lives in the arena: 50 later queries on
    the same engine leave it as it was, and it equals what a fresh
    engine returns for the same query."""
    query = queries[4][0]
    result = engine.search(query, k=K)
    before = _snapshot(result)
    later = [q for knum in range(2, 7) for q in queries[knum]]
    for number in range(50):
        engine.search(later[number % len(later)], k=K, alpha=(0.1, 0.3)[number % 2])
    assert _snapshot(result) == before
    fresh = KeywordSearchEngine(
        engine.graph, index=engine.index, weights=engine.weights,
        average_distance=engine.average_distance,
    )
    assert _snapshot(fresh.search(query, k=K)) == before


def test_threaded_stage_two_gives_each_chunk_its_own_scratch(engine, queries):
    threaded = KeywordSearchEngine(
        engine.graph, config=EngineConfig(top_down_threads=3),
        index=engine.index, weights=engine.weights,
        average_distance=engine.average_distance,
    )
    for knum in range(2, 7):
        for query in queries[knum]:
            assert _snapshot(threaded.search(query, k=K))[0] == _snapshot(
                engine.search(query, k=K)
            )[0]
    (arena,) = threaded.arenas._arenas
    marks = {id(scratch.arrays["marks"]) for scratch in arena._scratches}
    assert len(arena._scratches) == len(marks) == 3


def test_a_lease_frees_buffers_grown_past_their_capacities(engine, queries):
    """One large query does not pin its peak: at the lease's end a
    stage-two buffer that grew is back at its starting capacity, and
    the engine's scratch starts at the route's capacities."""
    assert engine.search(queries[2][0], k=K).answers
    for arena in engine.arenas._arenas:
        for scratch in arena._scratches:
            assert scratch.capacities == (
                _NODE_CAPACITY, _EDGE_CAPACITY, _PAIR_CAPACITY
            )
    n = 16

    def make(capacities):
        nodes, edges, pairs = (np.empty(c, np.int64) for c in capacities)
        return StageTwoScratch(
            _native_kernel(), marks=np.zeros(n, np.int32),
            stack=np.empty(n, np.int64), members=np.empty(n, np.int64),
            pairs=pairs, out_nodes=nodes, out_edges=edges,
        )

    pool = ArenaPool(n)
    with pool.lease() as arena:
        (scratch,) = arena.scratches(1, (4, 4, 4), make)
        scratch.grow((8, 9, 10))
        assert [len(scratch.arrays[name]) for name in scratch.GROWABLE] == [
            8, 9, 10
        ]
        # Columns for ten graphs span more cells than the node capacity.
        scratch.extract_columns(10)
        scratch.rank_columns(10, 3)
        assert scratch.columns_nbytes > 0
    assert [len(scratch.arrays[name]) for name in scratch.GROWABLE] == [4] * 3
    assert scratch.columns_nbytes == 0
    with pool.lease() as again:
        assert again is arena
        assert arena.scratches(1, (4, 4, 4), make) == [scratch]
        # Scratch started at other capacities is not reused.
        (other,) = arena.scratches(1, (1, 1, 1), make)
        assert other is not scratch and other.capacities == (1, 1, 1)
    assert pool.report() == {
        "search_arenas": 1, "search_arena_bytes": arena.nbytes
    }


@pytest.mark.parametrize("n_threads", [2, 3, 4])
def test_threads_with_mixed_q_and_alpha_get_sequential_answers(
    graph, engine, queries, n_threads
):
    jobs = [
        (query, alpha)
        for knum in range(2, 7)
        for query in queries[knum]
        for alpha in (0.1, 0.3)
    ]
    engine = KeywordSearchEngine(
        graph, index=engine.index, weights=engine.weights,
        average_distance=engine.average_distance,
    )
    want = {
        job: _snapshot(engine.search(job[0], k=K, alpha=job[1])) for job in jobs
    }
    wrong, errors = [], []

    def client(offset):
        try:
            for job in jobs[offset:] + jobs[:offset]:
                if _snapshot(engine.search(job[0], k=K, alpha=job[1])) != want[job]:
                    wrong.append(job)
        except Exception as error:  # reported below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(i * len(jobs) // n_threads,))
        for i in range(n_threads)
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
    assert not errors and not wrong, (errors, wrong[:3])
    assert engine.arenas.leased == 0
    assert 1 <= engine.arenas.report()["search_arenas"] <= n_threads
