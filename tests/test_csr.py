"""CSR adjacency and KnowledgeGraph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRAdjacency


def _adjacency_from(n, edges):
    sources = np.array([e[0] for e in edges], dtype=np.int64)
    targets = np.array([e[1] for e in edges], dtype=np.int64)
    labels = np.array([e[2] for e in edges], dtype=np.int64)
    return CSRAdjacency.from_edge_arrays(n, sources, targets, labels)


def test_from_edge_arrays_groups_by_source():
    adj = _adjacency_from(4, [(0, 1, 0), (0, 2, 1), (2, 3, 0)])
    assert adj.n_nodes == 4
    assert adj.n_entries == 3
    assert list(adj.neighbors(0)) == [1, 2]
    assert list(adj.neighbors(1)) == []
    assert list(adj.neighbors(2)) == [3]
    assert adj.degree(0) == 2


def test_neighbor_lists_sorted_regardless_of_input_order():
    a = _adjacency_from(3, [(0, 2, 1), (0, 1, 0)])
    b = _adjacency_from(3, [(0, 1, 0), (0, 2, 1)])
    assert list(a.neighbors(0)) == list(b.neighbors(0)) == [1, 2]
    assert list(a.neighbor_labels(0)) == list(b.neighbor_labels(0))


def test_edges_of_yields_label_pairs():
    adj = _adjacency_from(3, [(0, 1, 7), (0, 2, 3)])
    assert list(adj.edges_of(0)) == [(1, 7), (2, 3)]


def test_degrees_vector():
    adj = _adjacency_from(3, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    assert list(adj.degrees()) == [2, 1, 0]


def test_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        _adjacency_from(2, [(0, 5, 0)])
    with pytest.raises(ValueError):
        _adjacency_from(2, [(-1, 0, 0)])


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        CSRAdjacency.from_edge_arrays(
            2,
            np.array([0]),
            np.array([1, 0]),
            np.array([0]),
        )


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError):
        CSRAdjacency(
            indptr=np.array([1, 2]),
            indices=np.array([0], dtype=np.int32),
            labels=np.array([0], dtype=np.int32),
        )


def test_graph_counts_and_degrees():
    builder = GraphBuilder()
    a = builder.add_node("a")
    b = builder.add_node("b")
    c = builder.add_node("c")
    builder.add_edge(a, b, "p")
    builder.add_edge(c, b, "p")
    graph = builder.build()
    assert graph.n_nodes == 3
    assert graph.n_edges == 2
    assert graph.out_degree(a) == 1
    assert graph.in_degree(b) == 2
    # Bi-directed traversal degree counts both directions.
    assert graph.degree(b) == 2
    assert set(graph.neighbors(b)) == {a, c}


def test_in_label_counts():
    builder = GraphBuilder()
    hub = builder.add_node("hub")
    for i in range(3):
        leaf = builder.add_node(f"leaf{i}")
        builder.add_edge(leaf, hub, "instance of")
    other = builder.add_node("other")
    builder.add_edge(other, hub, "related to")
    graph = builder.build()
    counts = graph.in_label_counts(hub)
    by_name = {graph.predicate_name(label): n for label, n in counts.items()}
    assert by_name == {"instance of": 3, "related to": 1}


def test_validate_passes_on_builder_output(random20):
    random20.validate()


def test_degree_statistics(star6):
    stats = star6.degree_statistics()
    assert stats["max"] == 6.0
    assert stats["median"] == 1.0


def test_storage_nbytes_positive(tiny_graph):
    assert tiny_graph.storage_nbytes() > 0


def test_edge_list_roundtrip():
    builder = GraphBuilder()
    for i in range(4):
        builder.add_node(str(i))
    edges = [(0, 1, "a"), (1, 2, "b"), (3, 0, "a")]
    for s, t, p in edges:
        builder.add_edge(s, t, p)
    graph = builder.build()
    listed = {
        (s, t, graph.predicate_name(lab)) for s, t, lab in graph.edge_list()
    }
    assert listed == set(edges)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_csr_property_neighbors_match_edge_set(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 3),
            ),
            max_size=40,
        )
    )
    adj = _adjacency_from(n, edges)
    expected = {}
    for s, t, lab in edges:
        expected.setdefault(s, []).append((t, lab))
    for node in range(n):
        assert sorted(adj.edges_of(node)) == sorted(expected.get(node, []))
    assert adj.n_entries == len(edges)


# ---------------------------------------------------------------------------
# Immutability: the adjacency is shared across backends (and fork pools),
# so the base arrays and every cached view must reject in-place writes.
# ---------------------------------------------------------------------------
def test_base_arrays_are_frozen_after_construction():
    adj = _adjacency_from(4, [(0, 1, 0), (0, 2, 1), (2, 3, 0)])
    for array in (adj.indptr, adj.indices, adj.labels):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_cached_degree_view_is_frozen():
    adj = _adjacency_from(4, [(0, 1, 0), (0, 2, 1), (2, 3, 0)])
    assert not adj.degree_array.flags.writeable
    with pytest.raises(ValueError):
        adj.degree_array[0] = 99
