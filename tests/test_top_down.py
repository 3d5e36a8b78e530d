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
)
from repro.core.weights import node_weights
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, random_graph
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
    )
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
    )
    threaded = process_top_down(
        random20, result.state, weights, TopDownConfig(k=5, n_threads=3)
    )
    assert [a.central_node for a in serial] == [
        a.central_node for a in threaded
    ]
    assert [a.score for a in serial] == [a.score for a in threaded]


def test_process_top_down_prebuilt_skips_extraction(chain5):
    result = _search(chain5, ([0], [4]))
    weights = np.ones(5)
    prebuilt = [_manual_graph({0: (0,), 4: (1,)}, [(0, 2), (4, 2)], central=2)]
    ranked = process_top_down(
        chain5,
        result.state,
        weights,
        TopDownConfig(k=1),
        prebuilt=prebuilt,
    )
    assert len(ranked) == 1
    assert ranked[0].central_node == 2


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
# Native stage two (the lazy C walk) against the eager NumPy relation
# ---------------------------------------------------------------------------
N_STAGE_TWO_CASES = 56

needs_native = pytest.mark.skipif(
    _native_kernel() is None, reason="compiled kernel unavailable"
)


@functools.lru_cache(maxsize=None)
def _stage_two_case(seed):
    """(graph, finished SearchState, weights, k) of one fuzz problem."""
    graph = _fuzz_kb(seed)
    sets, activation, k = _fuzz_problem(graph, seed * 31 + 7, 2 + seed % 7)
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
    )
    assert len(answers) == len(state.central_nodes)
    return _signature(answers)


@functools.lru_cache(maxsize=None)
def _reference_stage_two(seed):
    """The NumPy tier's answers for one case: raw and ranked."""
    graph, state, weights, k = _stage_two_case(seed)
    ranked = process_top_down(
        graph, state, weights, TopDownConfig(k=k, native=False)
    )
    return (
        _every_central_graph(graph, state, weights, native=False),
        _signature(ranked),
    )


@pytest.mark.parametrize("n_threads", [1, 2])
def test_native_stage_two_matches_numpy_on_fuzz_corpus(n_threads):
    """Lazy C walk vs. eager NumPy relation: every Central Node's node
    set, edge set and keyword contributions, then the ranked answers."""
    for seed in range(N_STAGE_TWO_CASES):
        graph, state, weights, k = _stage_two_case(seed)
        reference, ranked_reference = _reference_stage_two(seed)
        assert reference == _every_central_graph(
            graph, state, weights, n_threads=n_threads
        ), seed
        ranked = process_top_down(
            graph, state, weights, TopDownConfig(k=k, n_threads=n_threads)
        )
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


@needs_native
def test_lazy_predecessors_equal_eager_relation(fig1):
    fig1_state = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    ).state
    cases = [(fig1.graph, fig1_state)]
    cases += [_stage_two_case(seed)[:2] for seed in range(24)]
    for graph, state in cases:
        lazy = HittingDAG(graph, state)
        eager = HittingDAG(graph, state, native=False)
        assert lazy._kernel is not None and not lazy._preds
        for node in range(graph.n_nodes):
            for column in range(state.n_keywords):
                assert np.array_equal(
                    lazy.predecessors(node, column),
                    eager.predecessors(node, column),
                ), (node, column)


@needs_native
def test_pair_buffer_overflow_retries_to_identical_graphs(monkeypatch):
    """A pair buffer that is too small is grown and the Central Node
    walked again: same graphs, scratch left zeroed."""
    graph, state, _, _ = _stage_two_case(6)
    assert len(state.central_nodes) > 100
    expected = [
        extract_central_graph(graph, state, node, depth)
        for node, depth in state.central_nodes
    ]
    assert max(len(answer.edges) for answer in expected) > 1

    monkeypatch.setattr(top_down, "_INITIAL_PAIR_CAPACITY", 1)
    dag = HittingDAG(graph, state)
    for (node, depth), want in zip(state.central_nodes, expected):
        got = extract_central_graph(graph, state, node, depth, dag)
        assert (got.nodes, got.edges, got.keyword_contributions) == (
            want.nodes, want.edges, want.keyword_contributions
        )
        marks = dag._local.scratch[0]
        assert not marks.any()
    assert len(dag._local.out_pairs) > 2


@needs_native
def test_extract_graph_never_writes_past_its_pair_capacity():
    graph, state, _, _ = _stage_two_case(6)
    n = graph.n_nodes
    central = max(
        state.central_nodes,
        key=lambda pair: len(
            extract_central_graph(graph, state, *pair).edges
        ),
    )[0]
    marks = np.zeros(n, np.int32)
    out_nodes = np.empty(n, np.int64)
    buffer = np.full(64, -7, dtype=np.int64)

    def call(out_pairs):
        return _native_kernel().extract_graph(
            graph.adj.indptr, graph.adj.indices, state.matrix.reshape(-1),
            state.n_keywords, state.activation,
            state.keyword_node.view(np.uint8), state.central_level, central,
            marks, np.empty(n, np.int64), out_nodes, out_pairs,
            np.zeros(2, np.int64),
        )

    n_nodes, n_pairs, needed = call(buffer[:4])
    assert needed > 2 and n_pairs == 2
    assert (buffer[4:] == -7).all() and (buffer[:4] != -7).all()
    assert not marks.any()
    nodes_on_overflow = out_nodes[:n_nodes].copy()

    fitted = np.empty(2 * needed, dtype=np.int64)
    n_nodes, n_pairs, again = call(fitted)
    assert again == 0 and n_pairs == needed
    assert np.array_equal(out_nodes[:n_nodes], nodes_on_overflow)
    assert np.array_equal(fitted[:4], buffer[:4])
    assert not marks.any()
