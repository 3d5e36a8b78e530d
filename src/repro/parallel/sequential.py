"""Reference (single-threaded) implementation of Algorithm 2.

This is the paper's expansion procedure transcribed line by line. It is
the semantic oracle: every other backend must produce bit-identical
``M`` / ``FIdentifier`` updates (tests enforce this), and the threaded
backend reuses :func:`expand_frontier_chunk` as its per-chunk kernel.
"""

from __future__ import annotations

from typing import Sequence

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from .backend import ComposedBackend


def expand_frontier_chunk(
    graph: KnowledgeGraph,
    state: SearchState,
    level: int,
    frontier_chunk: Sequence[int],
) -> int:
    """Algorithm 2 over a subset of the frontier.

    For every frontier ``v_f`` (line 1): skip identified Central Nodes
    (line 2-3); an inactive frontier (``a_f > l``) re-flags itself and
    waits (line 5-7). For each BFS instance ``B_i`` in which ``v_f`` is
    already hit at level ≤ l (line 8-11), scan its neighbors (line 12):
    unvisited neighbors whose activation allows being hit at ``l + 1`` get
    ``M[v_n][i] = l + 1`` and are flagged (line 21-22); inactive
    non-keyword neighbors instead keep ``v_f`` in the frontier so the edge
    is retried later (line 18-20). Keyword nodes may be hit regardless of
    activation (Section IV-B).

    Returns:
        The chunk's live lanes (bit i = instance i): every instance it
        wrote, every instance a waiting ``v_f`` is hit in at ≤ l, and
        every instance in which ``v_f`` retries.
    """
    matrix = state.matrix
    f_identifier = state.f_identifier
    c_identifier = state.c_identifier
    activation = state.activation
    keyword_node = state.keyword_node
    finite_count = state.finite_count
    next_level = level + 1
    n_keywords = state.n_keywords
    live = 0

    for node in frontier_chunk:
        node = int(node)
        if c_identifier[node]:
            continue
        if activation[node] > level:
            f_identifier[node] = 1
            for column in range(n_keywords):
                if matrix[node, column] <= level:
                    live |= 1 << column
            continue
        neighbors = graph.adj.neighbors(node)
        for column in range(n_keywords):
            if matrix[node, column] > level:
                # Not yet hit (∞) in B_i, or hit later than the current
                # level — either way v_f does not expand in this instance.
                continue
            for neighbor in neighbors:
                neighbor = int(neighbor)
                if matrix[neighbor, column] != INFINITE_LEVEL:
                    continue
                if not keyword_node[neighbor] and activation[neighbor] > next_level:
                    f_identifier[node] = 1
                    live |= 1 << column
                    continue
                matrix[neighbor, column] = next_level
                live |= 1 << column
                f_identifier[neighbor] = 1
                # The ∞-guard above makes this exactly-once per cell, so
                # the incremental finite-cell count stays exact.
                finite_count[neighbor] += 1
    return live


class SequentialBackend(ComposedBackend):
    """Single-threaded per-node reference backend (the semantic oracle)."""

    name = "sequential"

    def expand(self, graph: KnowledgeGraph, state: SearchState, level: int) -> None:
        state.live_lanes = expand_frontier_chunk(
            graph, state, level, state.frontier
        )
