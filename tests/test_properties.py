"""Cross-cutting property-based tests on random search instances.

Complements the per-module suites with invariants that hold across the
whole pipeline on arbitrary inputs: pruning monotonicity, score
consistency, BANKS-I optimality, and containment-dedup correctness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.banks import BanksConfig, BanksI
from repro.core.activation import activation_levels
from repro.core.bottom_up import BottomUpSearch
from repro.core.scoring import central_graph_score
from repro.core.top_down import (
    HittingDAG,
    deduplicate_by_containment,
    extract_central_graph,
    level_cover_prune,
)
from repro.core.weights import node_weights
from repro.graph.algorithms import bfs_levels
from repro.graph.generators import random_graph
from repro.text.inverted_index import InvertedIndex


def _search_instance(seed, alpha=None):
    graph = random_graph(
        28, 80, seed=seed,
        vocabulary=("alpha", "beta", "gamma", "delta"), words_per_node=2,
    )
    index = InvertedIndex.from_graph(graph)
    sets = [
        index.nodes_for_normalized_term(term)
        for term in ("alpha", "beta", "gamma")
    ]
    sets = [s for s in sets if len(s)]
    if len(sets) < 2:
        return None
    if alpha is None:
        activation = np.zeros(graph.n_nodes, dtype=np.int32)
    else:
        activation = activation_levels(node_weights(graph), 3.0, alpha)
    result = BottomUpSearch(graph).run(sets, activation, 5)
    return graph, sets, result


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 4000), alpha=st.sampled_from([None, 0.1, 0.4]))
def test_level_cover_invariants(seed, alpha):
    instance = _search_instance(seed, alpha)
    if instance is None:
        return
    graph, sets, result = instance
    q = result.state.n_keywords
    dag = HittingDAG(graph, result.state)
    for node, depth in result.state.central_nodes:
        original = extract_central_graph(graph, result.state, node, depth, dag)
        pruned = level_cover_prune(original, q)
        # Pruning never loses coverage, connectivity, or the central node.
        assert pruned.covers_all(q)
        assert pruned.all_nodes_reach_central()
        assert pruned.central_node == original.central_node
        # Pruning is monotone: subset of nodes and edges, same depth.
        assert pruned.nodes <= original.nodes
        assert pruned.edges <= original.edges
        assert pruned.depth == original.depth
        # Score monotonicity under non-negative weights.
        weights = np.abs(np.random.default_rng(seed).random(graph.n_nodes))
        assert central_graph_score(pruned, weights) <= central_graph_score(
            original, weights
        ) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 4000))
def test_extraction_sources_have_level_zero(seed):
    """Leaves of every hitting path are keyword sources (hit level 0)."""
    instance = _search_instance(seed)
    if instance is None:
        return
    graph, sets, result = instance
    matrix = result.state.matrix
    dag = HittingDAG(graph, result.state)
    for node, depth in result.state.central_nodes[:5]:
        answer = extract_central_graph(graph, result.state, node, depth, dag)
        predecessors = answer.predecessors()
        for member in answer.nodes:
            if member == answer.central_node:
                continue
            if not predecessors[member]:
                # A path leaf: must be a source of some keyword.
                assert any(matrix[member, c] == 0 for c in range(matrix.shape[1]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3000), k=st.integers(1, 8))
def test_banks1_path_sums_are_optimal(seed, k):
    """BANKS-I is Dijkstra-exact: every tree's path sum equals the true
    shortest-distance sum for its root."""
    graph = random_graph(
        22, 60, seed=seed, vocabulary=("alpha", "beta"), words_per_node=1
    )
    index = InvertedIndex.from_graph(graph)
    banks = BanksI(graph, index, BanksConfig(prestige_bonus=0.0))
    try:
        result = banks.search("alpha beta", k=k)
    except ValueError:
        return
    sets = [
        index.nodes_for_normalized_term(term) for term in ("alpha", "beta")
    ]
    levels = [bfs_levels(graph, list(map(int, s))) for s in sets if len(s)]
    for tree in result.answers:
        expected = sum(int(level[tree.root]) for level in levels)
        path_sum = sum(len(p) - 1 for p in tree.paths.values())
        assert path_sum == expected
        assert tree.score == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_containment_dedup_properties(data):
    """Output has no strict-superset pair and keeps every minimal set."""
    from repro.core.central_graph import CentralGraph

    n_graphs = data.draw(st.integers(1, 12))
    graphs = []
    for i in range(n_graphs):
        members = data.draw(
            st.sets(st.integers(0, 8), min_size=1, max_size=6)
        )
        central = min(members)
        graphs.append(
            CentralGraph(central, 1, set(members), set(), {})
        )
    kept = deduplicate_by_containment(graphs)
    kept_sets = [g.nodes for g in kept]
    for i, a in enumerate(kept_sets):
        for j, b in enumerate(kept_sets):
            if i != j:
                assert not (a > b)
    # Every input that is minimal (contains no other input) survives.
    all_sets = [g.nodes for g in graphs]
    for g in graphs:
        if not any(g.nodes > other for other in all_sets):
            assert any(
                g.nodes == kept_graph.nodes and g.central_node == kept_graph.central_node
                for kept_graph in kept
            ) or any(g.nodes == s for s in kept_sets)
