"""Bottom-up search: the Fig. 4 trace and top-(k,d) semantics."""

import numpy as np
import pytest

from repro.core.bottom_up import (
    TERMINATED_ENOUGH_ANSWERS,
    TERMINATED_FRONTIER_EMPTY,
    TERMINATED_LEVEL_CAP,
    TERMINATED_NO_MORE_CENTRAL,
    BottomUpSearch,
)
from repro.core.state import INFINITE_LEVEL
from repro.core.top_down import TopDownConfig, process_top_down
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph
from repro.parallel import SequentialBackend, VectorizedBackend

from conftest import (
    reference_hitting_levels,
    state_hitting_levels,
    unabridged_search,
    zero_activation,
)


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def test_default_backend_is_the_production_route(chain5):
    from repro.parallel import VectorizedBackend

    assert type(BottomUpSearch(chain5).backend) is VectorizedBackend


def test_fig4_trace_exact(fig1):
    """Example 4: hitting levels and the depth-4 Central Node at v2."""
    searcher = BottomUpSearch(fig1.graph)
    result = searcher.run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    state = result.state
    assert result.terminated == TERMINATED_ENOUGH_ANSWERS
    assert result.central_nodes == [(2, 4)]
    assert result.depth == 4
    matrix = state.matrix
    # B0 = XML from v9: h(v6)=h(v7)=h(v8)=h(v3)=2 (Example 4).
    assert matrix[6, 0] == 2
    assert matrix[7, 0] == 2
    assert matrix[8, 0] == 2
    assert matrix[3, 0] == 2
    # v2 hit at level 4 by all three instances.
    assert matrix[2, 0] == 4
    assert matrix[2, 1] == 4
    assert matrix[2, 2] == 4
    # v1 (SQL source) is hit by RDF at 1 + its own activation wait:
    # v4/v5 expand at level 1, hitting v2's neighbors... v1 is not
    # adjacent to v4/v5, so it stays unhit by B1 until through v2/v0.
    assert matrix[1, 2] == 0  # its own keyword


def test_no_expansion_at_level_zero_when_inactive(fig1):
    """Fig. 4a: only v4 is active at level 0, and v3 blocks (a3 = 2)."""
    searcher = BottomUpSearch(fig1.graph)
    # Run with lmax=0 so only level 0 is processed (no expansion beyond).
    result = BottomUpSearch(fig1.graph, lmax=1).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=99
    )
    matrix = result.state.matrix
    # After level-0 and level-1 expansion, v3 may be hit at level 2 at
    # most; nothing can be hit at level 1 because every non-source
    # neighbor is inactive at level 1 except... v3 has a3=2 > 1.
    hit_levels = matrix[matrix != INFINITE_LEVEL]
    assert (hit_levels <= 2).all()


def test_chain_hitting_levels_without_activation():
    chain = chain_graph(5)
    searcher = BottomUpSearch(chain)
    result = searcher.run(
        _sets([0], [4]), zero_activation(chain), k=1
    )
    # BFS instances meet in the middle: v2 is the depth-2 Central Node.
    assert (2, 2) in result.central_nodes
    assert result.depth == 2
    matrix = result.state.matrix
    assert matrix[1, 0] == 1
    assert matrix[2, 0] == 2
    assert matrix[2, 1] == 2


def test_single_keyword_sources_are_central_at_depth_zero(chain5):
    result = BottomUpSearch(chain5).run(
        _sets([1, 3]), zero_activation(chain5), k=2
    )
    assert result.terminated == TERMINATED_ENOUGH_ANSWERS
    assert result.depth == 0
    assert set(result.central_nodes) == {(1, 0), (3, 0)}


def test_topkd_collects_all_central_nodes_at_final_depth(chain5):
    """top-(k,d): even asking k=1, all depth-d Central Graphs arrive."""
    result = BottomUpSearch(chain5).run(
        _sets([1, 3]), zero_activation(chain5), k=1
    )
    # Both sources are identified at level 0 — the whole depth-0 cohort.
    assert set(result.central_nodes) == {(1, 0), (3, 0)}


def test_disconnected_keywords_terminate_on_empty_frontier():
    builder = GraphBuilder()
    for i in range(4):
        builder.add_node(str(i))
    builder.add_edge(0, 1, "p")
    builder.add_edge(2, 3, "p")
    graph = builder.build()
    result = BottomUpSearch(graph).run(
        _sets([0], [3]), zero_activation(graph), k=1
    )
    assert result.terminated == TERMINATED_FRONTIER_EMPTY
    assert result.central_nodes == []


def test_level_cap_respected(chain5):
    result = BottomUpSearch(chain5, lmax=1).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    assert result.terminated == TERMINATED_LEVEL_CAP
    assert result.central_nodes == []
    assert result.levels_executed <= 1


def test_invalid_inputs(chain5):
    searcher = BottomUpSearch(chain5)
    with pytest.raises(ValueError):
        searcher.run(_sets([0], []), zero_activation(chain5), k=1)
    with pytest.raises(ValueError):
        searcher.run(_sets([0]), zero_activation(chain5), k=0)
    with pytest.raises(ValueError):
        BottomUpSearch(chain5, lmax=0)
    with pytest.raises(ValueError):
        BottomUpSearch(chain5, lmax=255)


def test_matches_reference_simulation_on_fig1(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    reference_hit, reference_centrals = reference_hitting_levels(
        fig1.graph, fig1.keyword_nodes, fig1.activation, k=1
    )
    assert state_hitting_levels(result.state) == reference_hit
    assert result.central_nodes == reference_centrals


def test_keyword_nodes_hit_regardless_of_activation():
    """Sec IV-B: keyword nodes may be *hit* before their activation level."""
    chain = chain_graph(3)
    activation = np.array([0, 9, 9], dtype=np.int32)
    result = BottomUpSearch(chain, lmax=4).run(
        _sets([0], [2]), activation, k=1
    )
    # v2 is a keyword node: B0 reaches v1? v1 is non-keyword with a=9 so
    # it blocks — B0 can never pass through. No central node emerges.
    assert result.central_nodes == []
    # But had v1 been a keyword node it would be hit: make it one.
    result2 = BottomUpSearch(chain, lmax=4).run(
        _sets([0], [2], [1]), activation, k=1
    )
    matrix = result2.state.matrix
    assert matrix[1, 0] == 1  # hit by B0 despite a=9


def test_deep_chain_stays_within_uint8_levels():
    """Hitting levels approach the one-byte ceiling without sentinel
    collisions: expansion at level l writes l+1 <= lmax <= 254 < 255."""
    chain = chain_graph(300)
    result = BottomUpSearch(chain, lmax=254).run(
        _sets([0], [299]), zero_activation(chain), k=1
    )
    assert (150, 150) in result.central_nodes
    matrix = result.state.matrix
    finite = matrix[matrix != INFINITE_LEVEL]
    assert finite.max() <= 254


def test_peak_state_bytes_reported(chain5):
    result = BottomUpSearch(chain5).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    assert result.peak_state_nbytes >= result.state.matrix.nbytes


# ---------------------------------------------------------------------------
# Lane closure: the stop once no further Central Node can exist
# ---------------------------------------------------------------------------
#: The native whole level, and the per-node reference through the
#: inherited level.
TIERS = {
    "native": VectorizedBackend,
    "sequential": SequentialBackend,
}


def _path_graph(n_nodes, edges):
    builder = GraphBuilder()
    for node in range(n_nodes):
        builder.add_node(f"v{node}")
    for source, target in edges:
        builder.add_edge(source, target, "p")
    return builder.build()


def _run_both(graph, backend, sets, activation, k):
    """The search with the rule, and Algorithm 1 run to exhaustion."""
    result = BottomUpSearch(graph, backend=backend).run(sets, activation, k)
    reference, levels = unabridged_search(graph, backend, sets, activation, k)
    assert sorted(result.central_nodes) == sorted(reference.central_nodes)
    weights = np.full(graph.n_nodes, 0.5)
    config = TopDownConfig(k=k)
    assert [
        (g.central_node, g.depth, sorted(g.nodes), sorted(g.edges), g.score)
        for g in process_top_down(graph, result.state, weights, config)[0]
    ] == [
        (g.central_node, g.depth, sorted(g.nodes), sorted(g.edges), g.score)
        for g in process_top_down(graph, reference, weights, config)[0]
    ]
    return result, levels


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_rare_keyword_encircled_by_its_central_nodes_stops_early(tier):
    """R's one source v0 sits between C sources v1 and v2: all three are
    Central Nodes at level 1, and R cannot pass them. R is closed after
    level 1 and every node hit in it is a Central Node, so the search
    stops at level 2 while C would walk its eight-node tail to the end."""
    tail = [(3, 4)] + [(node, node + 1) for node in range(4, 11)]
    graph = _path_graph(12, [(0, 1), (0, 2), (1, 3)] + tail)
    sets = _sets([0], [1, 2, 3])
    result, levels = _run_both(
        graph, TIERS[tier](), sets, zero_activation(graph), k=400
    )
    assert result.terminated == TERMINATED_NO_MORE_CENTRAL
    assert sorted(result.central_nodes) == [(0, 1), (1, 1), (2, 1)]
    assert result.depth == 1
    assert result.levels_executed == 2
    assert levels > result.levels_executed
    assert [outcome.live_lanes for outcome in result.level_profile[:2]] == [
        0b11, 0b10,
    ]


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_lanes_kept_open_only_by_waiting_sources_do_not_close(tier):
    """Both sources wait for activation 2 (Algorithm 2 lines 5-7) and
    write nothing at levels 0-1; their lanes stay live, and v1 is found
    at depth 3 once they expand."""
    graph = _path_graph(3, [(0, 1), (1, 2)])
    activation = np.array([2, 0, 2], dtype=np.int32)
    result, _ = _run_both(
        graph, TIERS[tier](), _sets([0], [2]), activation, k=400
    )
    assert result.central_nodes == [(1, 3)]
    assert [outcome.live_lanes for outcome in result.level_profile[:2]] == [
        0b11, 0b11,
    ]
    assert [outcome.new_hits for outcome in result.level_profile[:2]] == [0, 0]


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_lanes_kept_open_only_by_retrying_sources_do_not_close(tier):
    """v1 blocks both sources until level 2 (activation 3, lines 18-20):
    they write nothing at levels 0-1 but retry, so their lanes stay live,
    and v1 is found at depth 3."""
    graph = _path_graph(3, [(0, 1), (1, 2)])
    activation = np.array([0, 3, 0], dtype=np.int32)
    result, _ = _run_both(
        graph, TIERS[tier](), _sets([0], [2]), activation, k=400
    )
    assert result.central_nodes == [(1, 3)]
    assert [outcome.live_lanes for outcome in result.level_profile[:2]] == [
        0b11, 0b11,
    ]
    assert [outcome.new_hits for outcome in result.level_profile[:2]] == [0, 0]


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_no_answer_depth_is_the_level_that_proved_it(tier):
    """With no Central Node, ``depth`` is the level at which the search
    ended: A and B exhaust their islands at level 1, no node is hit in
    both, so level 2 stops the search while C still walks its chain."""
    chain = [(4, 5)] + [(node, node + 1) for node in range(5, 10)]
    graph = _path_graph(11, [(0, 1), (2, 3)] + chain)
    result, levels = _run_both(
        graph, TIERS[tier](), _sets([0], [2], [4]), zero_activation(graph),
        k=1,
    )
    assert result.terminated == TERMINATED_NO_MORE_CENTRAL
    assert result.central_nodes == []
    assert result.depth == 2
    assert levels > result.levels_executed
