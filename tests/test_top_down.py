"""Top-down processing: extraction, level-cover, dedup, ranking."""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core import top_down
from repro.core.bottom_up import BottomUpSearch
from repro.core.central_graph import CentralGraph
from repro.core.state import SearchState
from repro.core.top_down import (
    HittingDAG,
    TopDownConfig,
    deduplicate_by_containment,
    extract_central_graph,
    level_cover_prune,
    process_top_down,
    rank_central_graphs,
)
from repro.core.weights import node_weights
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, random_graph
from repro.parallel._native import StageTwoScratch
from repro.parallel.vectorized import _native_kernel

from conftest import zero_activation
from test_fused_kernel import _fuzz_kb, _fuzz_problem


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def _search(graph, sets, activation=None, k=1, lmax=24):
    if activation is None:
        activation = zero_activation(graph)
    return BottomUpSearch(graph, lmax=lmax).run(_sets(*sets), activation, k)


def test_extract_chain_single_paths(chain5):
    result = _search(chain5, ([0], [4]))
    answer = extract_central_graph(chain5, result.state, 2, 2)
    assert answer.central_node == 2
    assert answer.nodes == {0, 1, 2, 3, 4}
    assert answer.edges == {(0, 1), (1, 2), (4, 3), (3, 2)}
    assert answer.all_nodes_reach_central()
    assert answer.covers_all(2)


def test_extract_multipath_diamond(diamond):
    """Both parallel shortest paths belong to the Central Graph."""
    result = _search(diamond, ([0], [3]), k=2)
    centrals = dict(result.central_nodes)
    assert centrals.get(1) == 1 or centrals.get(3) == 2
    # Search again targeting the two-hop central at node 3's side:
    # extract at whichever central covers both keywords via both bridges.
    state = result.state
    # Node 1 and node 2 are both hit by both BFS instances at level 1.
    answer = extract_central_graph(diamond, state, 1, 1)
    assert answer.nodes >= {0, 1, 3}
    # The sibling bridge 2 is NOT part of paths to central node 1.
    assert 2 not in answer.nodes


def test_extract_respects_multi_predecessors():
    # Two sources both adjacent to the central: both hitting paths kept.
    builder = GraphBuilder()
    for i in range(4):
        builder.add_node(str(i))
    builder.add_edge(0, 2, "p")
    builder.add_edge(1, 2, "p")
    builder.add_edge(3, 2, "p")
    graph = builder.build()
    result = _search(graph, ([0, 1], [3]))
    answer = extract_central_graph(graph, result.state, 2, 1)
    assert answer.edges == {(0, 2), (1, 2), (3, 2)}
    assert answer.keyword_contributions == {
        0: frozenset({0}),
        1: frozenset({0}),
        3: frozenset({1}),
    }


def test_extract_with_activation_delays(fig1):
    """The Fig. 1 answer: cycle via v0 is excluded, four XML paths kept."""
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    answer = extract_central_graph(fig1.graph, result.state, 2, 4)
    assert answer.central_node == 2
    assert answer.nodes == {1, 2, 3, 4, 5, 6, 7, 8, 9}
    # Four hitting paths from v9 (through 3, 6, 7, 8).
    for via in (3, 6, 7, 8):
        assert (9, via) in answer.edges
        assert (via, 2) in answer.edges
    # Both RDF nodes hit v2 directly.
    assert (4, 2) in answer.edges and (5, 2) in answer.edges
    assert (1, 2) in answer.edges
    assert answer.all_nodes_reach_central()


def test_hitting_dag_matches_edge_by_edge(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    dag = HittingDAG(fig1.graph, result.state)
    # v2's XML predecessors at level 4 are exactly the four bridges.
    assert set(map(int, dag.predecessors(2, 0))) == {3, 6, 7, 8}
    assert set(map(int, dag.predecessors(2, 1))) == {4, 5}
    assert set(map(int, dag.predecessors(2, 2))) == {1}


def _manual_graph(contributions, edges, central=0, depth=2):
    nodes = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    nodes.add(central)
    return CentralGraph(
        central_node=central,
        depth=depth,
        nodes=nodes,
        edges=set(edges),
        keyword_contributions={
            node: frozenset(cols) for node, cols in contributions.items()
        },
    )


def test_level_cover_prunes_lower_levels():
    """Fig. 5: the two-keyword node makes single-keyword carriers redundant.

    central 0; node 1 contributes {0, 1}; nodes 2 and 3 contribute {0}.
    """
    graph = _manual_graph(
        contributions={1: (0, 1), 2: (0,), 3: (0,)},
        edges=[(1, 0), (2, 0), (3, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0, 1}
    assert pruned.edges == {(1, 0)}
    assert pruned.pruned


def test_level_cover_keeps_whole_level():
    """Nodes within one level never prune each other."""
    graph = _manual_graph(
        contributions={1: (0,), 2: (0,), 3: (1,)},
        edges=[(1, 0), (2, 0), (3, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    # All three are level-1 contributors; coverage completes only with
    # the whole level, so nothing is pruned.
    assert pruned.nodes == {0, 1, 2, 3}


def test_level_cover_preserves_shared_path_nodes():
    """A path node serving a preserved keyword node survives pruning."""
    # 1 --(0,1)--> 4 -> 0  and 2 --(0)--> 4 -> 0: node 4 shared.
    graph = _manual_graph(
        contributions={1: (0, 1), 2: (0,)},
        edges=[(1, 4), (2, 4), (4, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0, 1, 4}
    assert (2, 4) not in pruned.edges


def test_level_cover_central_covers_everything():
    graph = _manual_graph(
        contributions={0: (0, 1), 1: (0,)},
        edges=[(1, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0}


def test_level_cover_keeps_coverage_invariant(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    answer = extract_central_graph(fig1.graph, result.state, 2, 4)
    pruned = level_cover_prune(answer, 3)
    assert pruned.covers_all(3)
    assert pruned.nodes <= answer.nodes
    assert pruned.all_nodes_reach_central()


def test_deduplicate_removes_strict_supersets():
    small = _manual_graph({1: (0,)}, [(1, 0)], central=0)
    big = _manual_graph({1: (0,)}, [(1, 0), (2, 0)], central=0)
    kept = deduplicate_by_containment([big, small])
    assert kept == [small]


def test_deduplicate_keeps_equal_sets():
    a = _manual_graph({1: (0,)}, [(1, 0)], central=0)
    b = _manual_graph({0: (0,)}, [(1, 0)], central=0)
    kept = deduplicate_by_containment([a, b])
    assert len(kept) == 2


def test_deduplicate_keeps_overlapping_non_nested():
    a = _manual_graph({1: (0,)}, [(1, 0), (2, 0)], central=0)
    b = _manual_graph({1: (0,)}, [(1, 0), (3, 0)], central=0)
    assert len(deduplicate_by_containment([a, b])) == 2


def test_process_top_down_ranks_by_score(chain5):
    result = _search(chain5, ([0, 2], [2, 4]), k=3)
    weights = np.linspace(0.1, 0.5, 5)
    ranked = process_top_down(
        chain5, result.state, weights, TopDownConfig(k=3)
    )[0]
    assert ranked
    scores = [answer.score for answer in ranked]
    assert scores == sorted(scores)
    for answer in ranked:
        assert answer.pruned


def test_process_top_down_thread_parallelism_matches_serial(random20):
    result = _search(
        random20, ([0, 1], [5], [10, 11]), k=5
    )
    weights = np.linspace(0, 1, random20.n_nodes)
    serial = process_top_down(
        random20, result.state, weights, TopDownConfig(k=5, n_threads=1)
    )[0]
    threaded = process_top_down(
        random20, result.state, weights, TopDownConfig(k=5, n_threads=3)
    )[0]
    assert [a.central_node for a in serial] == [
        a.central_node for a in threaded
    ]
    assert [a.score for a in serial] == [a.score for a in threaded]


def test_rank_central_graphs_on_hand_built_graphs():
    """The tail the reference route and CPU-Par-d share, on graphs no
    search produced: level-cover, then the containment filter on the
    pruned node sets, then Eq. 6, then the top-k cut."""

    def graphs():
        return [
            # Fig. 5's shape: node 1 carries both keywords, so 2 and 3
            # are cut and the answer shrinks to {0, 1}.
            _manual_graph(
                {1: (0, 1), 2: (0,), 3: (0,)}, [(1, 0), (2, 0), (3, 0)],
                central=0, depth=2,
            ),
            # Contains the pruned {0, 1} — but not the unpruned answer.
            _manual_graph({1: (0, 1)}, [(1, 0), (0, 4)], central=4, depth=3),
            _manual_graph(
                {7: (0,), 8: (1,)}, [(7, 6), (8, 6)], central=6, depth=1
            ),
            _manual_graph({10: (0, 1)}, [(10, 9)], central=9, depth=3),
        ]

    weights = np.array(
        [0.5, 0.25, 0.125, 0.125, 0.75, 0.0, 0.3, 0.2, 0.1, 0.9, 0.05]
    )
    lam = 0.5

    def score(depth, *nodes):
        return float(depth) ** lam * float(sum(weights[n] for n in nodes))

    ranked, kept = rank_central_graphs(
        graphs(), 2, weights, TopDownConfig(k=2, lam=lam)
    )
    assert kept == 3
    assert [(a.central_node, a.nodes, a.score) for a in ranked] == [
        (6, {6, 7, 8}, score(1, 6, 7, 8)),
        (0, {0, 1}, score(2, 0, 1)),
    ]
    assert all(answer.pruned for answer in ranked)

    unpruned, kept = rank_central_graphs(
        graphs(), 2, weights,
        TopDownConfig(k=10, lam=lam, apply_level_cover=False),
    )
    assert kept == 4  # {0, 1, 4} no longer contains the first answer
    assert [(a.central_node, a.score) for a in unpruned] == [
        (6, score(1, 6, 7, 8)),
        (0, score(2, 0, 1, 2, 3)),
        (9, score(3, 9, 10)),
        (4, score(3, 0, 1, 4)),
    ]

    everything, kept = rank_central_graphs(
        graphs(), 2, weights, TopDownConfig(k=10, lam=lam, deduplicate=False)
    )
    assert kept == 4
    assert [a.central_node for a in everything] == [6, 0, 9, 4]


def test_extraction_edges_satisfy_theorem_v4(fig1):
    """Every recovered edge obeys the hitting-level recurrence."""
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    state = result.state
    answer = extract_central_graph(fig1.graph, state, 2, 4)
    activation = fig1.activation
    for pred, target in answer.edges:
        consistent_for_some_keyword = False
        for column in range(3):
            pred_level = int(state.matrix[pred, column])
            target_level = int(state.matrix[target, column])
            if pred_level == 255 or target_level == 255:
                continue
            floor = 0 if state.keyword_node[target] else activation[target] - 1
            expected = 1 + max(activation[pred], pred_level, floor)
            if target_level == expected:
                consistent_for_some_keyword = True
        assert consistent_for_some_keyword, (pred, target)


# ---------------------------------------------------------------------------
# The batch route (one extract_graphs call) against the reference route
# ---------------------------------------------------------------------------
#: The 56 fuzz problems of the expansion kernels (keyword sets drawn over
#: the whole graph: almost every source carries one keyword, and
#: level-cover never has anything to prune), then 16 whose keyword sets
#: are drawn from a pool of eight nodes, so sources carry several
#: keywords and most cases are cut by level-cover.
N_SPREAD_CASES = 56
N_STAGE_TWO_CASES = N_SPREAD_CASES + 16

@functools.lru_cache(maxsize=None)
def _stage_two_case(seed):
    """(graph, finished SearchState, weights, k) of one fuzz problem."""
    if seed < N_SPREAD_CASES:
        graph = _fuzz_kb(seed)
        sets, activation, k = _fuzz_problem(graph, seed * 31 + 7, 2 + seed % 7)
    else:
        seed -= N_SPREAD_CASES
        graph = _fuzz_kb(seed)
        rng = np.random.default_rng(1000 + seed)
        pool = rng.choice(graph.n_nodes, size=8, replace=False)
        sets = [
            np.unique(rng.choice(pool, size=int(rng.integers(1, 5))))
            for _ in range(2 + seed % 5)
        ]
        _, activation, k = _fuzz_problem(graph, seed, 1)
    state = BottomUpSearch(graph).run(sets, activation, k).state
    return graph, state, node_weights(graph), k


def _signature(answers):
    return [
        (
            answer.central_node,
            answer.score,
            sorted(answer.nodes),
            sorted(answer.edges),
            sorted(answer.keyword_contributions.items()),
            answer.pruned,
        )
        for answer in answers
    ]


def _every_central_graph(graph, state, weights, **config):
    """Stage two with nothing pruned, dropped or cut off: one raw
    Central Graph per Central Node, through the public route."""
    answers = process_top_down(
        graph,
        state,
        weights,
        TopDownConfig(
            k=10**6, apply_level_cover=False, deduplicate=False, **config
        ),
    )[0]
    assert len(answers) == len(state.central_nodes)
    return _signature(answers)


@functools.lru_cache(maxsize=None)
def _reference_stage_two(seed):
    """The reference route's answers for one case: raw and ranked."""
    graph, state, weights, k = _stage_two_case(seed)
    ranked = process_top_down(
        graph, state, weights, TopDownConfig(k=k, native=False)
    )[0]
    return (
        _every_central_graph(graph, state, weights, native=False),
        _signature(ranked),
    )


@pytest.mark.parametrize("n_threads", [1, 2])
def test_native_stage_two_matches_numpy_on_fuzz_corpus(n_threads):
    """Batched C walk vs. eager NumPy relation: every Central Node's node
    set, edge set, keyword contributions and score (bitwise — the weight
    mass is added in the same order), then the ranked answers."""
    for seed in range(N_STAGE_TWO_CASES):
        graph, state, weights, k = _stage_two_case(seed)
        reference, ranked_reference = _reference_stage_two(seed)
        assert reference == _every_central_graph(
            graph, state, weights, n_threads=n_threads
        ), seed
        ranked = process_top_down(
            graph, state, weights, TopDownConfig(k=k, n_threads=n_threads)
        )[0]
        assert _signature(ranked) == ranked_reference, seed


def test_fuzz_corpus_exercises_the_central_node_clause():
    """Somewhere in the corpus the Central-Node clause removes an edge:
    with every identification level erased the reference relation admits
    hitting paths the search never walked. So the parity test above
    fails if the clause ever goes missing from the C predicate."""
    for seed in range(N_STAGE_TWO_CASES):
        graph, state, weights, _ = _stage_two_case(seed)
        unbounded = dataclasses.replace(
            state, central_level=np.full_like(state.central_level, -1)
        )
        if _reference_stage_two(seed)[0] != _every_central_graph(
            graph, unbounded, weights, native=False
        ):
            return
    pytest.fail("no case where dropping the Central-Node clause matters")


def test_batch_route_builds_objects_for_the_answers_only(monkeypatch):
    """The batch route allocates a CentralGraph per *returned* answer."""
    graph, state, weights, _ = _stage_two_case(6)
    assert len(state.central_nodes) > 100
    built = []
    real = top_down.CentralGraph.from_arrays
    monkeypatch.setattr(
        top_down.CentralGraph,
        "from_arrays",
        lambda *args, **fields: built.append(1) or real(*args, **fields),
    )
    ranked = process_top_down(graph, state, weights, TopDownConfig(k=3))[0]
    assert len(ranked) == len(built) == 3


def test_both_routes_report_the_same_stage_two_counts():
    """``process_top_down`` returns its counts beside the answers, equal
    on the two routes but for the bytes of the batch route's native
    buffers, which the reference route does not have."""
    graph, state, weights, k = _stage_two_case(60)  # level-cover prunes here
    ranked, batch = process_top_down(graph, state, weights, TopDownConfig(k=k))
    _, reference = process_top_down(
        graph, state, weights, TopDownConfig(k=k, native=False)
    )
    assert batch.nbytes > 0
    assert reference.nbytes == 0
    assert dataclasses.replace(batch, nbytes=0) == reference
    batch_counts = batch.as_dict()
    central_graphs = len(state.central_nodes)
    assert batch_counts["central_graphs"] == central_graphs > 100
    assert batch_counts["answers"] == len(ranked)
    assert len(ranked) <= batch_counts["kept_after_dedup"] <= central_graphs
    raw = process_top_down(
        graph, state, weights,
        TopDownConfig(k=10**6, apply_level_cover=False, deduplicate=False),
    )[0]
    assert batch_counts["extracted_nodes"] == sum(a.n_nodes for a in raw)
    assert batch_counts["extracted_nodes"] > sum(
        a.n_nodes for a in process_top_down(
            graph, state, weights, TopDownConfig(k=10**6, deduplicate=False)
        )[0]
    )


def test_search_results_carry_the_same_stage_two_counts_on_both_routes(tiny_kb):
    """The engine puts stage two's counts on the ``SearchResult``: the
    batch and reference routes agree on all but the bytes."""
    from repro.core.engine import EngineConfig, KeywordSearchEngine

    graph, _ = tiny_kb
    results = [
        KeywordSearchEngine(
            graph, config=EngineConfig(top_down_native=native)
        ).search("graph database query", k=5)
        for native in (None, False)
    ]
    batch, reference = (result.stage_two for result in results)
    assert batch.central_graphs == results[0].n_central_nodes > 5
    assert batch.answers == len(results[0].answers) == 5
    assert batch.nbytes > 0
    assert reference.nbytes == 0
    assert dataclasses.replace(batch, nbytes=0) == reference


@pytest.mark.parametrize(
    "make_weights",
    [lambda w: w.astype(np.float32), lambda w: np.repeat(w, 2)[::2]],
    ids=["float32", "strided"],
)
def test_weights_the_kernel_cannot_read_are_converted_at_entry(
    make_weights, monkeypatch
):
    """``process_top_down`` hands ``weights`` to C as ``double*``: any
    other layout is converted once, exactly, and answered by the batch
    route with the reference route's answers on the same values."""
    graph, state, weights, k = _stage_two_case(6)
    odd = make_weights(weights)
    assert odd.dtype != np.float64 or not odd.flags.c_contiguous
    want = process_top_down(
        graph, state, odd.astype(np.float64), TopDownConfig(k=k, native=False)
    )[0]
    batch = top_down._batch_stage_two
    calls = []

    def spy(kernel, graph, state, weights, config, **kwargs):
        calls.append(weights)
        return batch(kernel, graph, state, weights, config, **kwargs)

    monkeypatch.setattr(top_down, "_batch_stage_two", spy)
    got = process_top_down(graph, state, odd, TopDownConfig(k=k))[0]
    assert len(calls) == 1
    assert calls[0].dtype == np.float64 and calls[0].flags.c_contiguous
    assert np.array_equal(calls[0], odd)
    assert _signature(got) == _signature(want)


def test_stage_two_overflow_contract():
    """Node buffer, edge buffer and per-graph pair scratch forced to one
    cell — each alone, then all three: same answers after one retry,
    nothing written past a capacity, ``marks`` zero after every exit.
    (``repro check`` runs the same driver under ASan/UBSan.)"""
    from repro.analysis.sanitize import stage_two_overflow_failures

    kernel = _native_kernel()
    cases = [_stage_two_case(seed) for seed in (3, 6, 11, 60)]
    assert max(len(state.central_nodes) for _, state, _, _ in cases) > 100
    assert stage_two_overflow_failures(kernel, cases) == []


def test_extract_graphs_never_writes_past_its_capacities():
    graph, state, weights, _ = _stage_two_case(6)
    n = graph.n_nodes
    centrals = np.array([node for node, _ in state.central_nodes])
    kernel = _native_kernel()
    bound = kernel.bind_stage_two(
        kernel.bind_graph(graph.adj.indptr, graph.adj.indices, weights),
        state.matrix, state.activation, state.keyword_node,
        state.central_level,
    )
    marks = np.zeros(n, np.int32)

    def scratch(out_nodes, out_edges, pairs):
        return StageTwoScratch(
            kernel, marks=marks, stack=np.empty(n, np.int64),
            members=np.empty(n, np.int64), pairs=pairs,
            out_nodes=out_nodes, out_edges=out_edges,
        )

    ample = [np.empty(1 << 16, np.int64) for _ in range(3)]
    columns = scratch(*ample).extract_columns(len(centrals))
    columns["centrals"][:] = centrals
    needed = columns["needed"]

    def call(out_nodes, out_edges, pairs):
        return bound.extract(
            columns, True, scratch(out_nodes, out_edges, pairs)
        )

    assert call(*ample)
    assert (needed > 4).all() and (needed <= 1 << 16).all()
    assert columns["node_counts"].sum() == needed[0]
    assert columns["edge_counts"].sum() == needed[1]

    # Output buffers of four cells: filled, not overrun.
    guard = np.full((3, 64), -7, dtype=np.int64)
    assert not call(guard[0, :4], guard[1, :4], ample[2])
    assert np.array_equal(guard[0, :4], ample[0][:4])
    assert np.array_equal(guard[1, :4], ample[1][:4])
    assert (guard[:, 4:] == -7).all()
    assert not marks.any()
    totals = needed.copy()

    # Pair scratch of four cells: graphs that need more are only counted.
    assert not call(ample[0], ample[1], guard[2, :4])
    assert (guard[2, 4:] == -7).all() and (guard[2, :4] != -7).all()
    assert not marks.any()
    assert (needed >= totals).all() and needed[2] == totals[2]

    # What an overflowed call asks for is enough for the next one.
    assert call(*(np.empty(size, np.int64) for size in needed))
    assert not marks.any()
    assert np.array_equal(needed, totals)


def test_stage_two_nbytes_counts_the_native_buffers():
    """``StageTwoCounts.nbytes`` is what the two native calls were handed:
    per-node scratch, the three growable buffers, both calls' per-graph
    columns and one contribution-mask cell per kept node. It grows with
    the number of Central Graphs and not with k."""
    graph, state, weights, k = _stage_two_case(3)
    n, nc = graph.n_nodes, len(state.central_nodes)
    assert (n, nc) == (707, 25)

    def nbytes(state, k):
        return process_top_down(graph, state, weights, TopDownConfig(k=k))[1].nbytes

    kept = sum(
        answer.n_nodes for answer in process_top_down(
            graph, state, weights, TopDownConfig(k=10**6, deduplicate=False)
        )[0]
    )
    n_depths = 1 + max(depth for _, depth in state.central_nodes)
    capacities = (
        top_down._NODE_CAPACITY + top_down._EDGE_CAPACITY
        + top_down._PAIR_CAPACITY
    )
    assert nbytes(state, k) == (
        (4 + 8 + 8) * n  # marks, stack, members
        + 8 * capacities
        + 8 * (5 * nc + 3)  # extract_graphs' columns
        + 8 * (10 * nc + 2 + n_depths)  # rank_graphs' columns
        + 8 * kept  # contribution masks
    ) == 2_116_604
    assert nbytes(state, 1) == nbytes(state, 10**6) == nbytes(state, k)
    fewer = dataclasses.replace(state, central_nodes=state.central_nodes[:5])
    assert nbytes(fewer, k) < nbytes(state, k)
    assert nbytes(dataclasses.replace(state, central_nodes=[]), k) == 0
    _, reference = process_top_down(
        graph, state, weights, TopDownConfig(k=k, native=False)
    )
    assert reference.nbytes == 0
