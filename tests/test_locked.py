"""LockedDictEngine (CPU-Par-d) equivalence with the matrix engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EmptyQueryError, KeywordSearchEngine
from repro.parallel import LockedDictEngine, SequentialBackend
from repro.core.activation import activation_levels
from repro.core.weights import node_weights
from repro.graph.generators import random_graph
from repro.text.inverted_index import InvertedIndex


def _engines(graph):
    matrix_engine = KeywordSearchEngine(
        graph, backend=SequentialBackend(), average_distance=3.0
    )
    locked = LockedDictEngine(
        graph, matrix_engine.weights, matrix_engine.index, n_threads=1
    )
    return matrix_engine, locked


def _answer_signature(result):
    return [
        (
            answer.graph.central_node,
            answer.graph.depth,
            tuple(sorted(answer.graph.nodes)),
            tuple(sorted(answer.graph.edges)),
            round(answer.score, 9),
        )
        for answer in result.answers
    ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 3000),
    alpha=st.sampled_from([0.05, 0.1, 0.4, 0.8]),
    # k past the Central Nodes a graph holds lets lane closure stop it.
    k=st.one_of(st.integers(1, 8), st.sampled_from([50, 400])),
)
def test_locked_matches_matrix_engine_on_random_graphs(seed, alpha, k):
    graph = random_graph(
        25,
        70,
        seed=seed,
        vocabulary=("alpha", "beta", "gamma", "delta"),
        words_per_node=2,
    )
    matrix_engine, locked = _engines(graph)
    query = "alpha beta gamma"
    expected = matrix_engine.search(query, k=k, alpha=alpha)
    actual = locked.search(query, matrix_engine.activation_for(alpha), k=k)
    assert _answer_signature(expected) == _answer_signature(actual)
    assert expected.depth == actual.depth
    assert expected.n_central_nodes == actual.n_central_nodes
    assert expected.terminated == actual.terminated


def test_locked_multithreaded_matches_single_thread(tiny_kb):
    graph, _ = tiny_kb
    weights = node_weights(graph)
    index = InvertedIndex.from_graph(graph)
    activation = activation_levels(weights, 3.0, 0.1)
    single = LockedDictEngine(graph, weights, index, n_threads=1)
    multi = LockedDictEngine(graph, weights, index, n_threads=4)
    query = "machine learning data"
    a = single.search(query, activation, k=10)
    b = multi.search(query, activation, k=10)
    assert _answer_signature(a) == _answer_signature(b)


def test_locked_empty_query_raises(tiny_kb):
    graph, _ = tiny_kb
    weights = node_weights(graph)
    index = InvertedIndex.from_graph(graph)
    locked = LockedDictEngine(graph, weights, index)
    with pytest.raises(EmptyQueryError):
        locked.search("zzzzz", np.zeros(graph.n_nodes, dtype=np.int32))


def test_locked_validates_threads(tiny_kb):
    graph, _ = tiny_kb
    with pytest.raises(ValueError):
        LockedDictEngine(
            graph, node_weights(graph), InvertedIndex.from_graph(graph),
            n_threads=0,
        )


def test_locked_reports_phases(tiny_kb):
    graph, _ = tiny_kb
    weights = node_weights(graph)
    index = InvertedIndex.from_graph(graph)
    locked = LockedDictEngine(graph, weights, index, n_threads=2)
    activation = activation_levels(weights, 3.0, 0.1)
    result = locked.search("knowledge graph", activation, k=5)
    ms = result.milliseconds()
    assert "expansion" in ms and "top_down_processing" in ms
    assert result.peak_state_nbytes > 0
