"""Cross-module integration tests and whole-pipeline invariants.

These tests exercise realistic end-to-end paths (generate → persist →
reload → index → search → serve) and check system-level invariants that
no single module owns: answer-coverage guarantees, cross-engine
consistency, and baseline-vs-oracle bounds.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchSearcher,
    KeywordSearchEngine,
    LockedDictEngine,
    SequentialBackend,
)
from repro.baselines import BanksII, dpbf_optimal_cost
from repro.core.activation import activation_levels
from repro.core.weights import node_weights
from repro.graph.generators import random_graph
from repro.graph.io import load_graph, save_graph
from repro.service import SearchService
from repro.text.index_io import load_index, save_index
from repro.text.inverted_index import InvertedIndex


# ---------------------------------------------------------------------------
# Scenario: generate → persist → reload → search → serve
# ---------------------------------------------------------------------------
def test_full_persistence_pipeline(tmp_path, tiny_kb):
    graph, _ = tiny_kb
    index = InvertedIndex.from_graph(graph)

    graph_path = str(tmp_path / "kb")
    save_graph(graph, graph_path)
    save_index(index, graph_path + ".index")

    reloaded_graph = load_graph(graph_path)
    reloaded_index = load_index(graph_path + ".index")

    original = KeywordSearchEngine(
        graph, index=index, average_distance=3.0
    )
    restored = KeywordSearchEngine(
        reloaded_graph, index=reloaded_index, average_distance=3.0
    )
    for query in ("machine learning", "knowledge graph sparql"):
        a = original.search(query, k=5)
        b = restored.search(query, k=5)
        assert [x.graph.central_node for x in a.answers] == [
            x.graph.central_node for x in b.answers
        ]

    service = SearchService(restored)
    status, payload = service.handle_search("machine learning", k=3)
    assert status == 200
    json.dumps(payload)  # fully serializable


def test_batch_over_service_engine(tiny_kb):
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    batch = BatchSearcher(engine, n_workers=2).run(
        ["machine learning", "rdf sparql", "machine learning"], k=3
    )
    service = SearchService(engine)
    status, payload = service.handle_search("rdf sparql", k=3)
    assert status == 200
    assert batch.n_answered == 3
    batch_centrals = [
        a.graph.central_node for a in batch.results[1].answers
    ]
    service_centrals = [a["central_node"] for a in payload["answers"]]
    assert batch_centrals == service_centrals


# ---------------------------------------------------------------------------
# Whole-pipeline invariants over random instances
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), alpha=st.sampled_from([0.1, 0.4]),
       k=st.integers(1, 6))
def test_answer_invariants_on_random_graphs(seed, alpha, k):
    graph = random_graph(
        30, 90, seed=seed,
        vocabulary=("alpha", "beta", "gamma", "delta", "omega"),
        words_per_node=2,
    )
    engine = KeywordSearchEngine(
        graph, average_distance=3.0
    )
    try:
        result = engine.search("alpha beta gamma", k=k, alpha=alpha)
    except Exception as error:  # EmptyQueryError only
        from repro import EmptyQueryError

        assert isinstance(error, EmptyQueryError)
        return
    q = len(result.keywords)
    assert len(result.answers) <= k
    scores = [answer.score for answer in result.answers]
    assert scores == sorted(scores)
    node_sets = []
    for answer in result.answers:
        central = answer.graph
        # Coverage: every keyword contributed by some member node.
        assert central.covers_all(q)
        # Connectivity: every member reaches the Central Node in the DAG.
        assert central.all_nodes_reach_central()
        # Compactness: the answer was level-cover pruned.
        assert central.pruned
        node_sets.append(frozenset(central.nodes))
    # Containment filtering: no answer strictly contains another.
    for i, a in enumerate(node_sets):
        for j, b in enumerate(node_sets):
            if i != j:
                assert not (a > b)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2000))
def test_three_stage_one_implementations_agree(seed):
    """Matrix+extraction, locked path-recording, and both backends."""
    graph = random_graph(
        24, 60, seed=seed,
        vocabulary=("alpha", "beta", "gamma"), words_per_node=1,
    )
    weights = node_weights(graph)
    index = InvertedIndex.from_graph(graph)
    activation = activation_levels(weights, 3.0, 0.1)
    sequential_engine = KeywordSearchEngine(
        graph, backend=SequentialBackend(), index=index, weights=weights,
        average_distance=3.0,
    )
    vectorized_engine = KeywordSearchEngine(
        graph, index=index, weights=weights,
        average_distance=3.0,
    )
    locked_engine = LockedDictEngine(graph, weights, index, n_threads=1)
    query = "alpha beta"
    try:
        a = sequential_engine.search(query, k=5, alpha=0.1)
    except Exception:
        return
    b = vectorized_engine.search(query, k=5, alpha=0.1)
    c = locked_engine.search(query, activation, k=5)

    def signature(result):
        return [
            (x.graph.central_node, tuple(sorted(x.graph.nodes)),
             tuple(sorted(x.graph.edges)))
            for x in result.answers
        ]

    assert signature(a) == signature(b) == signature(c)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_banks_tree_never_beats_exact_gst(seed):
    """Any BANKS answer tree has at least the optimal Steiner edge count."""
    graph = random_graph(
        16, 40, seed=seed,
        vocabulary=("alpha", "beta", "gamma"), words_per_node=1,
    )
    index = InvertedIndex.from_graph(graph)
    banks = BanksII(graph, index)
    try:
        result = banks.search("alpha beta", k=3)
    except ValueError:
        return
    if not result.answers:
        return
    pairs = index.query_node_sets("alpha beta")
    sets = [nodes for _, nodes in pairs if len(nodes)]
    optimal = dpbf_optimal_cost(graph, sets)
    if optimal is None:
        return
    for tree in result.answers:
        assert len(tree.edges) >= optimal


def test_fig5_stanford_jeffrey_ullman_scenario(tiny_kb):
    """The paper's Fig. 5 level-cover example, end to end.

    Query {Stanford, Jeffrey, Ullman}: many people carry only "Jeffrey";
    level-cover prunes them, leaving an answer made of the Stanford
    University node and the Jeffrey Ullman node.
    """
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    result = engine.search("stanford jeffrey ullman", k=30)
    assert result.answers
    stanford_answers = [
        a.graph
        for a in result.answers
        if graph.node_text[a.graph.central_node].startswith(
            "Stanford University"
        )
    ]
    assert stanford_answers, "an answer centered at Stanford must exist"
    answer = stanford_answers[0]
    texts = {graph.node_text[node] for node in answer.nodes}
    assert "Jeffrey Ullman" in texts
    # Level-cover pruned every lone-"Jeffrey" carrier (Fig. 5's point).
    for node, columns in answer.keyword_contributions.items():
        text = graph.node_text[node]
        if "Jeffrey" in text and text != "Jeffrey Ullman":
            pytest.fail(f"lone-Jeffrey carrier survived pruning: {text!r}")


def test_depth_equals_max_hitting_level(fig1):
    """Lemma V.1, checked through the public engine API."""
    engine = KeywordSearchEngine(fig1.graph, backend=SequentialBackend())
    result = engine.search(
        "xml rdf sql", k=1, activation_override=fig1.activation
    )
    answer = result.answers[0].graph
    assert answer.depth == result.depth == fig1.expected_depth


def test_engine_results_are_deterministic(tiny_kb):
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    first = engine.search("machine learning data", k=10)
    second = engine.search("machine learning data", k=10)
    assert [a.graph.central_node for a in first.answers] == [
        a.graph.central_node for a in second.answers
    ]
    assert [a.score for a in first.answers] == [
        a.score for a in second.answers
    ]
