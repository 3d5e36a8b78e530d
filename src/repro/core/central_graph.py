"""Central Graph answer objects (Definition 3).

A Central Graph ``C`` centered at ``v_j`` is the union over every query
keyword of *all* hitting paths from that keyword's source nodes to
``v_j``. Unlike Steiner trees it may contain cycles and several nodes
carrying the same keyword (Fig. 1), which is what makes graph-shaped
answers compact yet information-rich.

Edges are stored in hitting-DAG orientation: ``(u, v)`` means ``u``
expanded to ``v`` during the bottom-up search, so every node has a
directed path to the central node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np


@lru_cache(maxsize=1024)
def _mask_columns(mask: int) -> Tuple[int, ...]:
    """The keyword columns of a contribution mask (bit c = column c),
    ascending."""
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def _node_set(node_ids: np.ndarray) -> Set[int]:
    return set(node_ids.tolist())


def _edge_list(edge_keys: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Edge keys ``u * n + v`` as ``(u, v)`` pairs, in key order."""
    preds, targets = np.divmod(edge_keys, n)
    return list(zip(preds.tolist(), targets.tolist()))


def _edge_set(edge_keys: np.ndarray, n: int) -> Set[Tuple[int, int]]:
    return set(_edge_list(edge_keys, n))


def _contribution_dict(
    node_ids: np.ndarray, masks: np.ndarray
) -> Dict[int, FrozenSet[int]]:
    return {
        node: frozenset(_mask_columns(mask))
        for node, mask in zip(node_ids.tolist(), masks.tolist())
        if mask
    }


class CentralGraph:
    """One keyword-search answer.

    Attributes:
        central_node: the Central Node ``v_j``.
        depth: ``d(C)`` — the largest hitting level of the central node
            over all keywords (Eq. 1 / Lemma V.1).
        nodes: every node on some hitting path (central node included).
        edges: hitting-DAG edges ``(u, v)`` = "u expanded to v".
        keyword_contributions: for each member node that is a keyword
            source, the set of keyword columns it contains.
        score: ranking score (Eq. 6); filled in by the scorer.
        pruned: whether level-cover pruning has been applied.

    An answer is made either from those sets (the reference route,
    CPU-Par-d, hand-built graphs) or, by :meth:`from_arrays`, from the
    batch route's kernel output: ascending node ids, ascending edge keys
    ``u * n + v`` and one contribution mask per node. Such an answer
    builds ``nodes``, ``edges`` and ``keyword_contributions`` on first
    read and keeps them; the shape accessors and the sorted views
    (:meth:`sorted_nodes`, :meth:`sorted_edges`, :meth:`member_columns`)
    read the arrays and build no set. Once built, a set is what every
    reader sees.
    """

    __slots__ = (
        "central_node",
        "depth",
        "score",
        "pruned",
        "_nodes",
        "_edges",
        "_contributions",
        "_node_ids",
        "_edge_keys",
        "_masks",
        "_n",
    )

    def __init__(
        self,
        central_node: int,
        depth: int,
        nodes: Set[int],
        edges: Set[Tuple[int, int]],
        keyword_contributions: Dict[int, FrozenSet[int]],
        score: Optional[float] = None,
        pruned: bool = False,
    ) -> None:
        self.central_node = central_node
        self.depth = depth
        self.score = score
        self.pruned = pruned
        self._nodes: Optional[Set[int]] = nodes
        self._edges: Optional[Set[Tuple[int, int]]] = edges
        self._contributions: Optional[Dict[int, FrozenSet[int]]] = (
            keyword_contributions
        )
        self._node_ids: Optional[np.ndarray] = None
        self._edge_keys: Optional[np.ndarray] = None
        self._masks: Optional[np.ndarray] = None
        self._n = 0

    @classmethod
    def from_arrays(
        cls,
        central_node: int,
        depth: int,
        node_ids: np.ndarray,
        edge_keys: np.ndarray,
        masks: np.ndarray,
        n: int,
        score: Optional[float] = None,
        pruned: bool = False,
    ) -> "CentralGraph":
        """An answer over kernel output it owns: ``node_ids`` ascending,
        ``edge_keys`` (``u * n + v`` for the edge ``(u, v)``, ``n`` the
        graph's node count) ascending and distinct, and ``masks[i]`` the
        keyword columns of ``node_ids[i]`` as bits (bit c = column c)."""
        graph = cls(central_node, depth, None, None, None, score, pruned)
        graph._node_ids = node_ids
        graph._edge_keys = edge_keys
        graph._masks = masks
        graph._n = n
        return graph

    @property
    def nodes(self) -> Set[int]:
        if self._nodes is None:
            self._nodes = _node_set(self._node_ids)
        return self._nodes

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        if self._edges is None:
            self._edges = _edge_set(self._edge_keys, self._n)
        return self._edges

    @property
    def keyword_contributions(self) -> Dict[int, FrozenSet[int]]:
        if self._contributions is None:
            self._contributions = _contribution_dict(
                self._node_ids, self._masks
            )
        return self._contributions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CentralGraph):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"CentralGraph(central_node={self.central_node!r}, "
            f"depth={self.depth!r}, nodes={self.nodes!r}, "
            f"edges={self.edges!r}, "
            f"keyword_contributions={self.keyword_contributions!r}, "
            f"score={self.score!r}, pruned={self.pruned!r})"
        )

    def _fields(self) -> tuple:
        return (
            self.central_node,
            self.depth,
            self.nodes,
            self.edges,
            self.keyword_contributions,
            self.score,
            self.pruned,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        if self._nodes is None:
            return len(self._node_ids)
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        if self._edges is None:
            return len(self._edge_keys)
        return len(self._edges)

    def keyword_nodes(self) -> List[int]:
        """Member nodes that contribute at least one keyword."""
        return sorted(self.keyword_contributions)

    def _covered_mask(self) -> int:
        return int(np.bitwise_or.reduce(self._masks, initial=0))

    def covered_keywords(self) -> FrozenSet[int]:
        """Union of keyword columns contributed by member nodes."""
        if self._contributions is None:
            return frozenset(_mask_columns(self._covered_mask()))
        covered: Set[int] = set()
        for columns in self._contributions.values():
            covered |= columns
        return frozenset(covered)

    def covers_all(self, n_keywords: int) -> bool:
        if self._contributions is None:
            return self._covered_mask() == (1 << n_keywords) - 1
        return self.covered_keywords() == frozenset(range(n_keywords))

    # ------------------------------------------------------------------
    # Sorted views (what an answer is serialised from)
    # ------------------------------------------------------------------
    def sorted_nodes(self) -> List[int]:
        """Member nodes, ascending."""
        if self._nodes is None:
            return self._node_ids.tolist()
        return sorted(self._nodes)

    def sorted_edges(self) -> List[Tuple[int, int]]:
        """Hitting-DAG edges ``(u, v)``, ascending."""
        if self._edges is None:
            return _edge_list(self._edge_keys, self._n)
        return sorted(self._edges)

    def member_columns(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(node, its keyword columns ascending)`` for every member
        node, ascending; a node that contributes no keyword has ``()``."""
        if self._nodes is None and self._contributions is None:
            return list(
                zip(
                    self._node_ids.tolist(),
                    map(_mask_columns, self._masks.tolist()),
                )
            )
        contributions = self.keyword_contributions
        return [
            (node, tuple(sorted(contributions.get(node, ()))))
            for node in sorted(self.nodes)
        ]

    # ------------------------------------------------------------------
    # Structure checks used by tests and the pruner
    # ------------------------------------------------------------------
    def successors(self) -> Dict[int, List[int]]:
        """Hitting-DAG adjacency: node → nodes it expanded to."""
        adjacency: Dict[int, List[int]] = {node: [] for node in self.nodes}
        for source, target in self.edges:
            adjacency[source].append(target)
        return adjacency

    def predecessors(self) -> Dict[int, List[int]]:
        """Reverse hitting-DAG adjacency: node → nodes that expanded to it."""
        adjacency: Dict[int, List[int]] = {node: [] for node in self.nodes}
        for source, target in self.edges:
            adjacency[target].append(source)
        return adjacency

    def all_nodes_reach_central(self) -> bool:
        """Invariant: every member node has a DAG path to the central node."""
        reached = {self.central_node}
        stack = [self.central_node]
        predecessors = self.predecessors()
        while stack:
            node = stack.pop()
            for pred in predecessors[node]:
                if pred not in reached:
                    reached.add(pred)
                    stack.append(pred)
        return reached == self.nodes

    def contains(self, other: "CentralGraph") -> bool:
        """True when this answer's node set strictly contains ``other``'s.

        Used by the repetition filter: "we remove the Central Graph that
        completely contains smaller ones" (Section VI-B).
        """
        return self.nodes > other.nodes

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def restricted_to(self, kept: AbstractSet[int]) -> "CentralGraph":
        """A copy containing only ``kept`` nodes and the edges among them."""
        if self.central_node not in kept:
            raise ValueError("cannot prune away the central node")
        return CentralGraph(
            central_node=self.central_node,
            depth=self.depth,
            nodes=set(kept) & self.nodes,
            edges={(u, v) for (u, v) in self.edges if u in kept and v in kept},
            keyword_contributions={
                node: columns
                for node, columns in self.keyword_contributions.items()
                if node in kept
            },
            score=self.score,
            pruned=True,
        )

    def to_networkx(self):  # pragma: no cover - convenience export
        """Export as a ``networkx.DiGraph`` (requires networkx)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self.nodes:
            graph.add_node(
                node,
                central=(node == self.central_node),
                keywords=sorted(self.keyword_contributions.get(node, ())),
            )
        graph.add_edges_from(self.edges)
        return graph

    def describe(self, node_text: Optional[List[str]] = None) -> str:
        """Human-readable one-answer summary for examples and demos."""
        def label(node: int) -> str:
            if node_text is None:
                return f"v{node}"
            return f"v{node}:{node_text[node]!r}"

        lines = [
            f"CentralGraph(central={label(self.central_node)}, depth={self.depth}, "
            f"nodes={self.n_nodes}, edges={self.n_edges}, score={self.score})"
        ]
        for node in sorted(self.nodes):
            marks = []
            if node == self.central_node:
                marks.append("CENTRAL")
            columns = self.keyword_contributions.get(node)
            if columns:
                marks.append("keywords=" + ",".join(map(str, sorted(columns))))
            suffix = f"  [{' '.join(marks)}]" if marks else ""
            lines.append(f"  {label(node)}{suffix}")
        return "\n".join(lines)


@dataclass
class SearchAnswer:
    """A ranked engine result: the pruned Central Graph plus query context.

    Attributes:
        graph: the (level-cover pruned) Central Graph.
        keywords: the normalized query terms, in column order.
    """

    graph: CentralGraph
    keywords: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def score(self) -> float:
        return float(self.graph.score) if self.graph.score is not None else 0.0

    def keyword_text_coverage(self) -> Dict[str, List[int]]:
        """Map each query term to the member nodes contributing it."""
        coverage: Dict[str, List[int]] = {term: [] for term in self.keywords}
        for node, columns in self.graph.keyword_contributions.items():
            for column in columns:
                coverage[self.keywords[column]].append(node)
        for nodes in coverage.values():
            nodes.sort()
        return coverage
