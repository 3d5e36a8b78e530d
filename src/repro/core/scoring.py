"""Answer ranking (Section V-C, Eq. 6) and the top-k heap.

    S(C) = d(C)^λ · Σ_{v_i ∈ C} w_i

Lower scores are better: shallow (compact) Central Graphs made of
informative (low degree-of-summary) nodes win. λ (default 0.2) controls
how strongly depth is penalized relative to node weight mass; λ = 0
ignores depth entirely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from .central_graph import CentralGraph

DEFAULT_LAMBDA = 0.2


def depth_factor(depth: int, lam: float = DEFAULT_LAMBDA) -> float:
    """Eq. 6's ``d(C)^λ``.

    Raises:
        ValueError: if λ is negative (the paper requires λ ≥ 0).
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return float(depth) ** lam


def central_graph_score(
    graph: CentralGraph, weights: np.ndarray, lam: float = DEFAULT_LAMBDA
) -> float:
    """Eq. 6 over the (pruned) member nodes.

    Raises:
        ValueError: if λ is negative (the paper requires λ ≥ 0).
    """
    factor = depth_factor(graph.depth, lam)
    # Sum in sorted-node order: float addition is non-associative, and
    # ``graph.nodes`` insertion order differs between engine variants, so
    # an order-dependent sum can differ in the last ulp and flip score
    # tie-breaks across otherwise-identical rankings. The batch kernel
    # (``extract_graphs``) adds the same doubles in the same order.
    weight_mass = float(sum(weights[node] for node in sorted(graph.nodes)))
    return factor * weight_mass


@dataclass(order=True)
class _HeapEntry:
    # Negated score: heapq is a min-heap but we must evict the *worst*.
    sort_key: tuple
    graph: CentralGraph = field(compare=False)


class TopKHeap:
    """Bounded collection keeping the k best (lowest-score) answers.

    Ties break deterministically on (n_nodes, central_node) so benchmark
    output is stable across runs and backends.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._heap: List[_HeapEntry] = []

    def _key(self, graph: CentralGraph) -> tuple:
        score = graph.score if graph.score is not None else 0.0
        # Negate so the heap root is the worst kept answer.
        return (-score, -graph.n_nodes, -graph.central_node)

    def offer(self, graph: CentralGraph) -> bool:
        """Insert ``graph`` if it ranks within the top k.

        Returns:
            True when the answer was kept.
        """
        entry = _HeapEntry(self._key(graph), graph)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry.sort_key > self._heap[0].sort_key:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def extend(self, graphs: Iterable[CentralGraph]) -> None:
        for graph in graphs:
            self.offer(graph)

    def worst_kept_score(self) -> Optional[float]:
        """Score of the current k-th answer (None while under-full)."""
        if len(self._heap) < self.k:
            return None
        return -self._heap[0].sort_key[0]

    def ranked(self) -> List[CentralGraph]:
        """Answers best-first (ascending score)."""
        return [
            entry.graph
            for entry in sorted(self._heap, key=lambda e: e.sort_key, reverse=True)
        ]

    def __len__(self) -> int:
        return len(self._heap)
