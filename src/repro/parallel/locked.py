"""The locked dynamic-memory variant — the paper's "CPU-Par-d".

The ablation the paper runs against its own design: instead of the flat
node-keyword matrix with idempotent lock-free writes, this variant
allocates per-node hitting-level dictionaries *dynamically* and guards
every read and write with a lock. Because predecessors are recorded while
searching, no extraction phase is needed — Central Graphs pop out of
stage one fully formed, which is why the paper's Fig. 6/7 show CPU-Par-d
winning the top-down phase while losing everything else badly.

Lock granularity: the paper locks per node; we stripe a fixed pool of
locks over nodes (node id mod pool size), which preserves the contended
locking cost without allocating one mutex per node per query.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from ..instrumentation import (
    PHASE_ENQUEUE,
    PHASE_EXPANSION,
    PHASE_IDENTIFY,
    PHASE_INITIALIZATION,
    PHASE_TOP_DOWN,
    PHASE_TOTAL,
    PhaseTimer,
)
from ..core.central_graph import CentralGraph, SearchAnswer
from ..core.results import EmptyQueryError, SearchResult
from ..core.scoring import DEFAULT_LAMBDA
from ..core.state import (
    TERMINATED_ENOUGH_ANSWERS,
    TERMINATED_FRONTIER_EMPTY,
    TERMINATED_LEVEL_CAP,
    TERMINATED_NO_MORE_CENTRAL,
)
from ..core.top_down import TopDownConfig, rank_central_graphs
from ..graph.csr import KnowledgeGraph
from ..text.inverted_index import InvertedIndex

_LOCK_STRIPES = 509  # prime; stripes node ids over a fixed mutex pool


@dataclass
class _DynamicState:
    """Per-query dynamic state: everything is a dict, everything is locked."""

    n_keywords: int
    hit_levels: Dict[int, Dict[int, int]] = field(default_factory=dict)
    predecessors: Dict[Tuple[int, int], Set[int]] = field(default_factory=dict)
    keyword_columns: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    keyword_union: Set[int] = field(default_factory=set)
    central: Dict[int, int] = field(default_factory=dict)
    next_frontier: Set[int] = field(default_factory=set)

    def nbytes_estimate(self) -> int:
        """Rough dynamic-memory footprint (dict entries at ~64B apiece)."""
        entries = sum(len(levels) for levels in self.hit_levels.values())
        entries += sum(len(preds) for preds in self.predecessors.values())
        return 64 * (entries + len(self.hit_levels) + len(self.central))


class LockedDictEngine:
    """Keyword search with locked dynamic state (ablation baseline).

    Produces answers through the same Central Graph semantics as
    :class:`~repro.core.engine.KeywordSearchEngine` — the two are verified
    equivalent in tests — but pays the paper's CPU-Par-d costs:
    dictionary allocation during search and a lock around every shared
    read/write.

    Args:
        graph: the knowledge graph.
        weights: normalized degree-of-summary weights.
        average_distance: the sampled A (unused directly; activation
            levels arrive per query, mirroring the main engine).
        index: inverted keyword index over the graph.
        n_threads: worker threads for the locked expansion.
        lmax: bottom-up level cap.
    """

    name = "locked-dict"

    def __init__(
        self,
        graph: KnowledgeGraph,
        weights: np.ndarray,
        index: InvertedIndex,
        n_threads: int = 4,
        lmax: int = 24,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be positive")
        self.graph = graph
        self.weights = np.asarray(weights, dtype=np.float64)
        self.index = index
        self.n_threads = n_threads
        self.lmax = lmax
        self._locks = [threading.Lock() for _ in range(_LOCK_STRIPES)]
        self._frontier_lock = threading.Lock()
        self._central_lock = threading.Lock()

    def _lock_for(self, node: int) -> threading.Lock:
        return self._locks[node % _LOCK_STRIPES]

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        activation: np.ndarray,
        k: int = 20,
        lam: float = DEFAULT_LAMBDA,
    ) -> SearchResult:
        """Answer a query given explicit per-node activation levels.

        The caller supplies activation levels (typically from the main
        engine's :meth:`activation_for`) so comparisons between variants
        share identical inputs.

        Raises:
            EmptyQueryError: when no query term matches any node.
        """
        pairs = self.index.query_node_sets(query)
        keywords = tuple(term for term, nodes in pairs if len(nodes) > 0)
        dropped = tuple(term for term, nodes in pairs if len(nodes) == 0)
        node_sets = [nodes for _, nodes in pairs if len(nodes) > 0]
        if not node_sets:
            raise EmptyQueryError(dropped)
        timer = PhaseTimer()
        with timer.phase(PHASE_TOTAL):
            state, terminated, depth, peak = self._bottom_up(
                node_sets, activation, k, timer
            )
            answers = self._finalize(state, k, lam, timer)
        return SearchResult(
            answers=[SearchAnswer(graph=g, keywords=keywords) for g in answers],
            keywords=keywords,
            dropped_terms=dropped,
            depth=depth,
            n_central_nodes=len(state.central),
            terminated=terminated,
            timer=timer,
            peak_state_nbytes=peak,
        )

    # ------------------------------------------------------------------
    # Stage one: locked expansion with dynamic allocation
    # ------------------------------------------------------------------
    def _bottom_up(
        self,
        node_sets: Sequence[np.ndarray],
        activation: np.ndarray,
        k: int,
        timer: PhaseTimer,
    ) -> Tuple[_DynamicState, str, int, int]:
        q = len(node_sets)
        with timer.phase(PHASE_INITIALIZATION):
            state = _DynamicState(n_keywords=q)
            for column, nodes in enumerate(node_sets):
                for node in nodes:
                    node = int(node)
                    state.keyword_union.add(node)
                    # Per-node lock even during init: the dict is shared.
                    with self._lock_for(node):
                        state.hit_levels.setdefault(node, {})[column] = 0
                        columns = state.keyword_columns.get(node, frozenset())
                        state.keyword_columns[node] = columns | {column}
                    state.next_frontier.add(node)

        for phase in (PHASE_ENQUEUE, PHASE_IDENTIFY, PHASE_EXPANSION):
            timer.add(phase, 0.0)
        level = 0
        terminated = TERMINATED_LEVEL_CAP
        peak = state.nbytes_estimate()
        frontier: List[int] = []
        # The engine's lane-closure stop (repro.core.bottom_up).
        closed = False
        while level <= self.lmax:
            with timer.phase(PHASE_ENQUEUE):
                frontier = sorted(state.next_frontier)
                state.next_frontier = set()
            if not frontier:
                terminated = TERMINATED_FRONTIER_EMPTY
                break
            with timer.phase(PHASE_IDENTIFY):
                self._identify(state, frontier, level, q)
            if len(state.central) >= k:
                terminated = TERMINATED_ENOUGH_ANSWERS
                break
            if closed:
                terminated = TERMINATED_NO_MORE_CENTRAL
                break
            if level == self.lmax:
                break
            with timer.phase(PHASE_EXPANSION):
                live_lanes = self._expand(state, frontier, activation, level)
            peak = max(peak, state.nbytes_estimate())
            closed = self._no_central_node_can_follow(state, live_lanes)
            level += 1
        depth = max(state.central.values()) if state.central else level
        return state, terminated, depth, peak

    def _identify(
        self, state: _DynamicState, frontier: List[int], level: int, q: int
    ) -> None:
        for node in frontier:
            with self._lock_for(node):
                levels = state.hit_levels.get(node)
                complete = levels is not None and len(levels) == q
            if complete:
                with self._central_lock:
                    if node not in state.central:
                        state.central[node] = level

    @staticmethod
    def _no_central_node_can_follow(
        state: _DynamicState, live_lanes: int
    ) -> bool:
        """``SearchState.no_central_node_can_follow`` over dict state:
        no node hit in every closed lane lacks a hitting level."""
        q = state.n_keywords
        closed = [column for column in range(q) if not live_lanes >> column & 1]
        if not closed:
            return False
        return not any(
            len(levels) < q and all(column in levels for column in closed)
            for levels in state.hit_levels.values()
        )

    def _expand(
        self,
        state: _DynamicState,
        frontier: List[int],
        activation: np.ndarray,
        level: int,
    ) -> int:
        """Expand the frontier; return its live lanes (bit i = lane i)."""
        if self.n_threads == 1 or len(frontier) < 2:
            return self._expand_chunk(state, frontier, activation, level)
        chunks = np.array_split(np.asarray(frontier, dtype=np.int64),
                                self.n_threads * 4)
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            futures = [
                pool.submit(self._expand_chunk, state, chunk, activation, level)
                for chunk in chunks
                if len(chunk)
            ]
            live_lanes = 0
            for future in futures:
                live_lanes |= future.result()
        return live_lanes

    def _expand_chunk(
        self,
        state: _DynamicState,
        frontier_chunk: Sequence[int],
        activation: np.ndarray,
        level: int,
    ) -> int:
        """Algorithm 2 semantics over dict state, every access locked.

        Returns the chunk's live lanes: every lane it wrote, and the
        expandable lanes of every source that waits or retries.
        """
        next_level = level + 1
        live_lanes = 0
        for node in frontier_chunk:
            node = int(node)
            with self._central_lock:
                if node in state.central:
                    continue
            with self._lock_for(node):
                hit = dict(state.hit_levels.get(node, {}))
            expandable = [c for c, lvl in hit.items() if lvl <= level]
            if activation[node] > level:
                with self._frontier_lock:
                    state.next_frontier.add(node)
                for column in expandable:
                    live_lanes |= 1 << column
                continue
            if not expandable:
                continue
            for neighbor in self.graph.adj.neighbors(node):
                neighbor = int(neighbor)
                for column in expandable:
                    with self._lock_for(neighbor):
                        levels = state.hit_levels.setdefault(neighbor, {})
                        existing = levels.get(column)
                        if existing is not None:
                            if existing == next_level:
                                # A parallel hitting path at the same level.
                                key = (neighbor, column)
                                state.predecessors.setdefault(key, set()).add(node)
                            continue
                        if (
                            neighbor not in state.keyword_union
                            and activation[neighbor] > next_level
                        ):
                            blocked = True
                        else:
                            levels[column] = next_level
                            key = (neighbor, column)
                            state.predecessors.setdefault(key, set()).add(node)
                            blocked = False
                    if blocked:
                        live_lanes |= 1 << column
                        with self._frontier_lock:
                            state.next_frontier.add(node)
                    else:
                        live_lanes |= 1 << column
                        with self._frontier_lock:
                            state.next_frontier.add(neighbor)
        return live_lanes

    # ------------------------------------------------------------------
    # Stage two: no extraction needed — paths were recorded
    # ------------------------------------------------------------------
    def _finalize(
        self, state: _DynamicState, k: int, lam: float, timer: PhaseTimer
    ) -> List[CentralGraph]:
        with timer.phase(PHASE_TOP_DOWN):
            graphs = [
                self._assemble(state, node, depth)
                for node, depth in sorted(state.central.items())
            ]
            ranked, _ = rank_central_graphs(
                graphs, state.n_keywords, self.weights,
                TopDownConfig(k=k, lam=lam),
            )
            return ranked

    def _assemble(
        self, state: _DynamicState, central_node: int, depth: int
    ) -> CentralGraph:
        """Materialize one Central Graph from the recorded predecessors."""
        nodes: Set[int] = {central_node}
        edges: Set[Tuple[int, int]] = set()
        stack = [
            (central_node, column)
            for column in range(state.n_keywords)
            if state.hit_levels[central_node].get(column, 0) > 0
        ]
        visited = set(stack)
        while stack:
            target, column = stack.pop()
            for pred in state.predecessors.get((target, column), ()):
                edges.add((pred, target))
                nodes.add(pred)
                pair = (pred, column)
                if state.hit_levels[pred][column] > 0 and pair not in visited:
                    visited.add(pair)
                    stack.append(pair)
        contributions = {
            node: state.keyword_columns[node]
            for node in nodes
            if node in state.keyword_columns
        }
        return CentralGraph(
            central_node=central_node,
            depth=depth,
            nodes=nodes,
            edges=edges,
            keyword_contributions=contributions,
        )
