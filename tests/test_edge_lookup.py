"""``KnowledgeGraph.edge_predicates``: the one predicate lookup.

``/search`` payloads, DOT exports and answer explanations all name an
answer edge's predicates through it. It must equal, pair for pair, the
per-edge generator it replaced (kept below as the reference) on graphs
with parallel edges under several labels, edges in both directions and
a hub row far longer than the rest.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import KeywordSearchEngine
from repro.graph.builder import GraphBuilder
from repro.viz import central_graph_to_dot, edge_predicates, explain_answer

#: The hub's out-degree at least: a row of a few hundred entries.
HUB_DEGREE = 192

VIZ_GOLDENS = Path(__file__).parent / "data" / "viz_goldens.json"
SEARCH_GOLDENS = Path(__file__).parent / "data" / "search_goldens.json"


def reference_edge_predicates(graph, source, target):
    """The lookup as a per-edge generator over both endpoints' out-rows,
    one entry at a time: what ``viz.edge_predicates`` was."""
    names = []
    for neighbor, label in graph.out.edges_of(source):
        if neighbor == target:
            names.append(graph.predicate_name(label))
    for neighbor, label in graph.out.edges_of(target):
        if neighbor == source:
            names.append("^" + graph.predicate_name(label))
    return names


def _multigraph(seed, n=60, hub_degree=HUB_DEGREE):
    """A random multigraph: parallel edges under several labels (and
    repeated triples), edges in both directions, and node 0 a hub whose
    out-row holds at least ``hub_degree`` entries."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for node in range(n):
        builder.add_node(f"v{node}")
    labels = [f"p{label}" for label in range(7)]

    def edge(source, target):
        if source != target:
            builder.add_edge(source, target, labels[rng.integers(len(labels))])

    for _ in range(4 * n):
        source, target = rng.integers(n, size=2).tolist()
        edge(source, target)
        roll = rng.random()
        if roll < 0.3:  # parallel, other label (maybe the same triple)
            edge(source, target)
            edge(source, target)
        elif roll < 0.5:  # the other direction
            edge(target, source)
    for _ in range(hub_degree):
        target = int(rng.integers(1, n))
        edge(0, target)
        edge(target, 0)
    return builder.build(deduplicate=False)


@pytest.mark.parametrize("seed", range(6))
def test_lookup_equals_the_per_edge_generator(seed):
    graph = _multigraph(seed)
    n = graph.n_nodes
    degrees = np.diff(graph.out.indptr)
    assert degrees[0] >= HUB_DEGREE > 2 * np.sort(degrees)[-2]
    # A parallel run with several labels, both orientations of a pair.
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    found = graph.edge_predicates(pairs)
    want = [reference_edge_predicates(graph, u, v) for u, v in pairs]
    assert found == want
    assert any(len(set(names)) > 1 for names in want)
    assert any(
        any(name.startswith("^") for name in names)
        and any(not name.startswith("^") for name in names)
        for names in want
    )
    assert any(not names for names in want)
    # One lookup on a subset, in any order, pairs repeated.
    rng = np.random.default_rng(seed)
    picked = [pairs[i] for i in rng.integers(len(pairs), size=200)]
    assert graph.edge_predicates(picked) == [
        reference_edge_predicates(graph, u, v) for u, v in picked
    ]
    assert graph.edge_predicates([]) == []
    # The one-edge convenience is the same lookup.
    for u, v in picked[:20]:
        assert edge_predicates(graph, u, v) == reference_edge_predicates(
            graph, u, v
        )


def test_dot_and_explain_are_unchanged_on_the_test_kb(tiny_kb):
    """Byte for byte the DOT and explanation texts recorded when each
    edge was looked up by the per-edge generator."""
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    golden = json.loads(VIZ_GOLDENS.read_text())["answers"]
    requests = json.loads(SEARCH_GOLDENS.read_text())["requests"]
    rows = []
    for query, k, alpha in requests:
        result = engine.search(query, k=k, alpha=alpha)
        for answer in result.answers:
            dot = central_graph_to_dot(answer.graph, graph, result.keywords)
            text = explain_answer(answer.graph, graph, result.keywords)
            rows.append(
                {
                    "request": [query, k, alpha],
                    "dot": hashlib.sha256(dot.encode()).hexdigest(),
                    "explain": hashlib.sha256(text.encode()).hexdigest(),
                }
            )
    assert len(rows) > 100
    assert rows == golden
