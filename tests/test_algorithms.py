"""Reference graph algorithms and the vectorized BFS equivalence."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.algorithms import (
    UNREACHED,
    bfs_levels,
    bfs_levels_vectorized,
    bfs_parents,
    connected_components,
    dijkstra,
    eccentricity,
    largest_component_nodes,
    pairwise_distance_matrix,
    shortest_path,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, grid_graph, random_graph, star_graph


def test_bfs_levels_on_chain(chain5):
    levels = bfs_levels(chain5, [0])
    assert list(levels) == [0, 1, 2, 3, 4]


def test_bfs_levels_multi_source(chain5):
    levels = bfs_levels(chain5, [0, 4])
    assert list(levels) == [0, 1, 2, 1, 0]


def test_bfs_levels_unreached():
    builder = GraphBuilder()
    for i in range(3):
        builder.add_node(str(i))
    builder.add_edge(0, 1, "p")
    graph = builder.build()
    levels = bfs_levels(graph, [0])
    assert levels[2] == UNREACHED


def test_bfs_parents_consistency(chain5):
    levels, parents = bfs_parents(chain5, [2])
    for node in range(5):
        if node == 2:
            assert parents[node] == 2
        else:
            assert levels[parents[node]] == levels[node] - 1


def test_shortest_path_on_grid():
    grid = grid_graph(3, 3)
    path = shortest_path(grid, 0, 8)
    assert path is not None
    assert path[0] == 0 and path[-1] == 8
    assert len(path) == 5  # 4 hops across a 3x3 grid


def test_shortest_path_disconnected():
    builder = GraphBuilder()
    builder.add_node("a")
    builder.add_node("b")
    graph = builder.build()
    assert shortest_path(graph, 0, 1) is None


def test_connected_components():
    builder = GraphBuilder()
    for i in range(5):
        builder.add_node(str(i))
    builder.add_edge(0, 1, "p")
    builder.add_edge(3, 4, "p")
    graph = builder.build()
    components = connected_components(graph)
    assert components[0] == components[1]
    assert components[3] == components[4]
    assert components[0] != components[2] != components[3]


def test_largest_component(star6):
    assert len(largest_component_nodes(star6)) == 7


def _components_by_node_scan(graph):
    """The deque walk the array code replaced: scan nodes in id order and
    flood each unlabelled one's component with the next label."""
    component = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    current = 0
    for start in range(graph.n_nodes):
        if component[start] != UNREACHED:
            continue
        component[start] = current
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if component[neighbor] == UNREACHED:
                    component[neighbor] = current
                    queue.append(int(neighbor))
        current += 1
    return component


def _assert_components_match_node_scan(graph):
    expected = _components_by_node_scan(graph)
    found = connected_components(graph)
    assert found.dtype == expected.dtype
    assert np.array_equal(found, expected)
    if graph.n_nodes:
        biggest = int(np.argmax(np.bincount(expected)))
        largest = largest_component_nodes(graph)
        assert largest.dtype == np.int64
        assert np.array_equal(largest, np.flatnonzero(expected == biggest))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    density=st.sampled_from([0.0, 0.2, 0.5, 1.0, 3.0]),
)
def test_components_match_node_scan_on_random_graphs(seed, n, density):
    # Sparse draws give isolates and many small components.
    _assert_components_match_node_scan(random_graph(n, int(n * density), seed=seed))


def test_equal_size_components_tie_goes_to_the_lowest_node():
    builder = GraphBuilder()
    for i in range(10):
        builder.add_node(str(i))
    # {0} isolate, {1,5,8}, {2,3,9} and {4,6,7}: three tied at size 3.
    for a, b in ((1, 5), (5, 8), (2, 3), (3, 9), (4, 6), (6, 7)):
        builder.add_edge(a, b, "p")
    graph = builder.build()
    _assert_components_match_node_scan(graph)
    assert largest_component_nodes(graph).tolist() == [1, 5, 8]


def test_components_without_edges_and_across_scan_blocks():
    builder = GraphBuilder()
    for i in range(3):
        builder.add_node(str(i))
    isolates = builder.build()
    _assert_components_match_node_scan(isolates)
    assert largest_component_nodes(isolates).tolist() == [0]
    # Wider than one block of the search for the next unlabelled node,
    # with the second component starting far behind the first.
    builder = GraphBuilder()
    for i in range(10_000):
        builder.add_node(str(i))
    for i in range(6_000):
        builder.add_edge(i, i + 1, "p")
    for i in range(9_000, 9_999):
        builder.add_edge(i, i + 1, "p")
    _assert_components_match_node_scan(builder.build())


def test_dijkstra_uniform_equals_bfs(random20):
    dist, _ = dijkstra(random20, [0])
    levels = bfs_levels(random20, [0])
    for node in range(random20.n_nodes):
        if levels[node] == UNREACHED:
            assert np.isinf(dist[node])
        else:
            assert dist[node] == levels[node]


def test_dijkstra_respects_edge_weights():
    chain = chain_graph(3)
    weights = {(0, 1): 10.0, (1, 0): 10.0}
    dist, _ = dijkstra(chain, [0], edge_weight=weights)
    assert dist[1] == 10.0
    assert dist[2] == 11.0


def test_eccentricity(chain5):
    assert eccentricity(chain5, 0) == 4
    assert eccentricity(chain5, 2) == 2


def test_pairwise_distance_matrix(chain5):
    matrix = pairwise_distance_matrix(chain5)
    assert matrix[0, 4] == 4
    assert matrix[1, 3] == 2
    assert (np.diag(matrix) == 0).all()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 30),
    m=st.integers(0, 80),
    n_sources=st.integers(1, 3),
)
def test_vectorized_bfs_matches_reference(seed, n, m, n_sources):
    graph = random_graph(n, m, seed=seed)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=n_sources).tolist()
    reference = bfs_levels(graph, sources)
    vectorized = bfs_levels_vectorized(graph, sources)
    assert np.array_equal(reference, vectorized)


def test_vectorized_bfs_empty_sources(chain5):
    levels = bfs_levels_vectorized(chain5, [])
    assert (levels == UNREACHED).all()
