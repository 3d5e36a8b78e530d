"""Shared fixtures and reference oracles for the test suite.

The ``reference_hitting_levels`` oracle is an *independent* re-statement
of the bottom-up search semantics (Section IV-B / Algorithm 2), written
as naively as possible: plain dicts, no shared code with the engines.
Backend tests compare every production implementation against it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.csr import KnowledgeGraph
from repro.graph.generators import (
    Fig1Example,
    WikiKBConfig,
    chain_graph,
    fig1_example,
    random_graph,
    star_graph,
    wiki_like_kb,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------
def reference_hitting_levels(
    graph: KnowledgeGraph,
    keyword_node_sets: Sequence[Sequence[int]],
    activation: Sequence[int],
    k: int,
    lmax: int = 24,
) -> Tuple[Dict[Tuple[int, int], int], List[Tuple[int, int]]]:
    """Naive level-synchronous simulation of the bottom-up search.

    It stops where ``BottomUpSearch`` does: at k Central Nodes, an empty
    frontier, ``lmax``, or one level after lane closure shows that no
    further Central Node can exist (a keyword column that no level-l
    write, waiting source or retrying source touched is final; when
    every node hit in all final columns is hit in every column, the
    next identification is the last).

    Returns:
        ``(hit, centrals)`` where ``hit[(node, column)]`` is the hitting
        level and ``centrals`` is the ordered list of (node, depth) pairs.
    """
    q = len(keyword_node_sets)
    keyword_union: Set[int] = set()
    hit: Dict[Tuple[int, int], int] = {}
    frontier: Set[int] = set()
    for column, nodes in enumerate(keyword_node_sets):
        for node in nodes:
            hit[(int(node), column)] = 0
            keyword_union.add(int(node))
            frontier.add(int(node))

    centrals: List[Tuple[int, int]] = []
    central_set: Set[int] = set()
    level = 0
    no_more_central = False
    while level <= lmax:
        if not frontier:
            break
        # Identify central nodes among the current frontier.
        for node in sorted(frontier):
            if node in central_set:
                continue
            if all((node, column) in hit for column in range(q)):
                central_set.add(node)
                centrals.append((node, level))
        if len(centrals) >= k:
            break
        if level == lmax or no_more_central:
            break
        next_frontier: Set[int] = set()
        open_columns: Set[int] = set()
        for node in sorted(frontier):
            if node in central_set:
                continue
            if activation[node] > level:
                next_frontier.add(node)
                open_columns.update(
                    column for column in range(q)
                    if hit.get((node, column), INF) <= level
                )
                continue
            for column in range(q):
                node_level = hit.get((node, column), INF)
                if node_level > level:
                    continue
                for neighbor in graph.neighbors(node):
                    neighbor = int(neighbor)
                    if (neighbor, column) in hit:
                        continue
                    open_columns.add(column)
                    if (
                        neighbor not in keyword_union
                        and activation[neighbor] > level + 1
                    ):
                        next_frontier.add(node)
                        continue
                    hit[(neighbor, column)] = level + 1
                    next_frontier.add(neighbor)
        frontier = next_frontier
        level += 1
        final = [column for column in range(q) if column not in open_columns]
        if final:
            no_more_central = all(
                all((node, column) in hit for column in range(q))
                for node in {node for node, _ in hit}
                if all((node, column) in hit for column in final)
            )
    return hit, centrals


def unabridged_search(graph, backend, keyword_node_sets, activation, k, lmax=24):
    """Algorithm 1 as printed, on ``backend``: ``run_level`` until k
    Central Nodes, an empty frontier or ``lmax`` — no lane-closure stop.

    Returns:
        ``(state, levels_executed)``.
    """
    from repro.core.state import SearchState
    from repro.instrumentation import PhaseTimer

    state = SearchState.initialize(graph.n_nodes, keyword_node_sets, activation)
    timer = PhaseTimer()
    levels = 0
    for level in range(lmax + 1):
        outcome = backend.run_level(graph, state, level, k, level < lmax, timer)
        if outcome.frontier_size == 0 or not outcome.expanded:
            break
        levels += 1
    return state, levels


def state_hitting_levels(state) -> Dict[Tuple[int, int], int]:
    """Extract finite hitting levels from a SearchState matrix."""
    finite = {}
    matrix = state.matrix
    for node, column in zip(*np.nonzero(matrix != 255)):
        finite[(int(node), int(column))] = int(matrix[node, column])
    return finite


# ---------------------------------------------------------------------------
# Graph fixtures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig1() -> Fig1Example:
    return fig1_example()


@pytest.fixture(scope="session")
def tiny_kb():
    """A small wiki-like KB shared across tests (fast to build)."""
    config = WikiKBConfig(
        name="tiny",
        seed=42,
        n_papers=220,
        n_people=90,
        n_misc=90,
        n_venues=8,
        n_orgs=8,
        gold_papers_per_query=2,
        decoy_papers_per_phrase=1,
    )
    return wiki_like_kb(config)


@pytest.fixture(scope="session")
def tiny_graph(tiny_kb) -> KnowledgeGraph:
    return tiny_kb[0]


@pytest.fixture()
def chain5() -> KnowledgeGraph:
    return chain_graph(5)


@pytest.fixture()
def star6() -> KnowledgeGraph:
    return star_graph(6)


@pytest.fixture()
def diamond() -> KnowledgeGraph:
    """Two parallel length-2 paths between a and d: multi-path territory.

        a - b - d
        a - c - d
    """
    builder = GraphBuilder()
    for text in ("alpha source", "bridge one", "bridge two", "delta target"):
        builder.add_node(text)
    builder.add_edge(0, 1, "r")
    builder.add_edge(0, 2, "r")
    builder.add_edge(1, 3, "r")
    builder.add_edge(2, 3, "r")
    return builder.build()


@pytest.fixture()
def random20() -> KnowledgeGraph:
    return random_graph(20, 50, seed=3)


def zero_activation(graph: KnowledgeGraph) -> np.ndarray:
    return np.zeros(graph.n_nodes, dtype=np.int32)


def keyword_star(n_words: int) -> Tuple[KnowledgeGraph, List[str]]:
    """A hub joined to ``n_words`` leaves, each carrying one word of its
    own: a query of all the words has ``n_words`` keywords, and the hub
    is its Central Node at depth 1."""
    words = [f"x{chr(97 + i // 26)}{chr(97 + i % 26)}q" for i in range(n_words)]
    builder = GraphBuilder()
    hub = builder.add_node("hub")
    for word in words:
        builder.add_edge(hub, builder.add_node(word), "has")
    return builder.build(), words
