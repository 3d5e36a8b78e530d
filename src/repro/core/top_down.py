"""Top-down processing: extraction, level-cover pruning, final ranking
(Section V-C, Algorithm 3).

Stage one leaves only Central Nodes and the node-keyword matrix M; no path
is stored. Stage two therefore *recovers* each Central Graph by walking
backwards from its Central Node using the hitting-level heuristics of
Theorem V.4, prunes redundant keyword carriers with the level-cover
strategy, removes containment-repetitive answers, scores what remains
(Eq. 6) and keeps the top k.

Extraction tracks (node, keyword) pairs so that a node extracted for
keyword ``i`` only pulls in its keyword-``i`` predecessors — exactly the
union of hitting paths that Definition 3 prescribes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..instrumentation import PHASE_TOP_DOWN, PhaseTimer
from ..graph.csr import KnowledgeGraph
from ..parallel.vectorized import _native_kernel
from .central_graph import CentralGraph
from .scoring import DEFAULT_LAMBDA, TopKHeap, central_graph_score
from .state import INFINITE_LEVEL, SearchState


#: Pairs the per-thread extraction buffer holds before its first growth
#: (the kernel reports what it needs; see ``HittingDAG.extract_native``).
_INITIAL_PAIR_CAPACITY = 4096


class HittingDAG:
    """The Theorem V.4 qualified-predecessor relation, per keyword.

    For the pair ``(v_f, i)`` a neighbor ``v_n`` already hit in B_i
    qualifies as a predecessor — it expanded to ``v_f`` on a hitting path
    — exactly when (with ``h = M[·][i]`` and ``a`` the activation levels):

    * ``v_f`` contains keywords:   ``h_f = 1 + max(a_n, h_n)``
    * ``v_f`` contains none:       ``h_f = 1 + max(a_n, h_n, a_f − 1)``

    (the expander cannot move before its own activation; a non-keyword
    target additionally cannot be hit before its activation).

    The relation is independent of which Central Node is being
    extracted, but only the part a Central Node's backward walk scans is
    ever needed. Two tiers answer it identically:

    * the **native** tier (selected automatically when the compiled
      kernel is loaded) never materialises it: construction is O(1) —
      array references only — and ``extract_graph`` in ``_kernel.c``
      evaluates the predicate on the adjacency slices its walk pops,
      straight off the graph CSR (:meth:`extract_native`);
      :meth:`predecessors` evaluates one slice on demand;
    * the **NumPy** tier (``native=False``, or no compiler) evaluates it
      eagerly as whole-array passes over every (edge, keyword) pair,
      once per query, and the per-level NumPy walk follows the
      precomputed predecessor lists (:meth:`column_arrays`). It is the
      reference the native walk is differentially tested against.

    One correction on top of the bare Theorem V.4 equalities: a node that
    was identified as a Central Node stops expanding (Section III-B), so
    it cannot be the expander of a hit at any later level — a predecessor
    identified at level ℓ only qualifies for targets hit at level ≤ ℓ.
    Without this filter, extraction recovers paths the bottom-up search
    never walked (verified against the path-recording CPU-Par-d variant).

    One instance serves one query. Nothing here is shared across request
    threads: the arrays it references belong to that query's
    ``SearchState`` (or are the read-only graph CSR), and the extraction
    scratch lives in a ``threading.local`` owned by the instance, one
    set per ``n_threads`` worker.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        native: Optional[bool] = None,
    ) -> None:
        self.n_keywords = state.n_keywords
        self._adj = graph.adj
        self._state = state
        self._indptr: List[np.ndarray] = []
        self._preds: List[np.ndarray] = []
        self._local = threading.local()
        self._kernel = (
            _native_kernel()
            if native is not False and state.matrix.flags.c_contiguous
            else None
        )
        if self._kernel is None:
            self._build_numpy(graph, state)
        else:
            # Everything extract_graph reads, as the kernel wants it.
            self._kernel_inputs = (
                self._adj.indptr,
                self._adj.indices,
                state.matrix.reshape(-1),
                state.n_keywords,
                state.activation,
                state.keyword_node.view(np.uint8),
                state.central_level,
            )

    def _build_numpy(self, graph: KnowledgeGraph, state: SearchState) -> None:
        matrix = state.matrix
        activation = state.activation.astype(np.int64)
        indptr = graph.adj.indptr
        n = graph.n_nodes
        degrees = np.diff(indptr)
        flat_targets = np.repeat(np.arange(n, dtype=np.int64), degrees)
        flat_preds = graph.adj.indices.astype(np.int64)
        infinite = int(INFINITE_LEVEL)
        # A non-keyword target cannot have been hit before its activation.
        floor = np.where(state.keyword_node, 0, activation - 1)

        for column in range(state.n_keywords):
            target_levels = matrix[flat_targets, column].astype(np.int64)
            pred_levels = matrix[flat_preds, column].astype(np.int64)
            expander_levels = np.maximum(
                np.maximum(activation[flat_preds], pred_levels),
                floor[flat_targets],
            )
            qualified = (
                (target_levels != infinite)
                & (pred_levels != infinite)
                & (target_levels == expander_levels + 1)
            )
            # A Central Node identified at level ℓ never expands at ℓ or
            # later: it cannot have caused a hit at level > ℓ.
            pred_central_levels = state.central_level[flat_preds]
            qualified &= (pred_central_levels < 0) | (
                target_levels <= pred_central_levels
            )
            counts = np.bincount(flat_targets[qualified], minlength=n)
            column_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=column_indptr[1:])
            self._indptr.append(column_indptr)
            # flat arrays are grouped by target already, so masking keeps
            # each target's predecessors contiguous.
            self._preds.append(flat_preds[qualified])

    def predecessors(self, node: int, column: int) -> np.ndarray:
        """Qualified keyword-``column`` predecessors of ``node``, in
        adjacency order."""
        if self._kernel is None:
            indptr = self._indptr[column]
            return self._preds[column][indptr[node]:indptr[node + 1]]
        # Native tier: nothing was precomputed — evaluate the predicate
        # over this node's adjacency slice.
        state = self._state
        indptr = self._adj.indptr
        preds = self._adj.indices[indptr[node]:indptr[node + 1]].astype(
            np.int64
        )
        infinite = int(INFINITE_LEVEL)
        target_level = int(state.matrix[node, column])
        if target_level == infinite:
            return preds[:0]
        pred_levels = state.matrix[preds, column].astype(np.int64)
        floor = (
            0 if state.keyword_node[node] else int(state.activation[node]) - 1
        )
        expander_levels = np.maximum(
            np.maximum(state.activation[preds].astype(np.int64), pred_levels),
            floor,
        )
        pred_central_levels = state.central_level[preds]
        qualified = (
            (pred_levels != infinite)
            & (target_level == expander_levels + 1)
            & (
                (pred_central_levels < 0)
                | (target_level <= pred_central_levels)
            )
        )
        return preds[qualified]

    def column_arrays(self, column: int) -> "tuple[np.ndarray, np.ndarray]":
        """The CSR (indptr, preds) pair for one keyword's hitting DAG
        (NumPy tier only: the native tier never builds it)."""
        return self._indptr[column], self._preds[column]

    def extract_native(
        self, central_node: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """All-column closure of one Central Node in one kernel call.

        Returns ``(nodes, pairs)`` — deduplicated closure nodes and the
        (pred, target) pair rows (deduplicated within each column; the
        caller dedups across columns). Native tier only. The returned
        arrays are views into per-thread scratch: consume them before
        the next call on the same thread.
        """
        local = self._local
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            n = self._adj.n_nodes
            scratch = local.scratch = (
                np.zeros(n, dtype=np.int32),  # marks (zero between calls)
                np.empty(n, dtype=np.int64),  # DFS stack
                np.empty(n, dtype=np.int64),  # out_nodes
                np.zeros(2, dtype=np.int64),  # n_out
            )
            local.out_pairs = np.empty(
                2 * _INITIAL_PAIR_CAPACITY, dtype=np.int64
            )
        marks, stack, out_nodes, n_out = scratch
        while True:
            out_pairs = local.out_pairs
            n_nodes, n_pairs, needed = self._kernel.extract_graph(
                *self._kernel_inputs,
                central_node,
                marks,
                stack,
                out_nodes,
                out_pairs,
                n_out,
            )
            if not needed:
                pairs = out_pairs[: 2 * n_pairs].reshape(-1, 2)
                return out_nodes[:n_nodes], pairs
            # The pairs did not fit: the kernel wrote nothing past the
            # capacity, restored its scratch and said how many it needs.
            # Grow this thread's buffer (with headroom for the next,
            # larger Central Graph) and walk this Central Node again.
            local.out_pairs = np.empty(2 * 2 * needed, dtype=np.int64)


def extract_central_graph(
    graph: KnowledgeGraph,
    state: SearchState,
    central_node: int,
    depth: int,
    dag: Optional[HittingDAG] = None,
    single_path: bool = False,
) -> CentralGraph:
    """Recover the Central Graph centered at ``central_node``.

    A standard BFS runs backward from the Central Node over
    (node, keyword) pairs, following the :class:`HittingDAG` qualified
    predecessors, so that a node reached for keyword ``i`` only pulls in
    its keyword-``i`` hitting paths (Definition 3's union of per-keyword
    hitting paths).

    Args:
        single_path: ablation switch — keep only one predecessor per
            (node, keyword) pair, degrading the answer to a tree-shaped
            union of single hitting paths (what GST methods return; the
            multi-path expressiveness of Fig. 1 is lost).
    """
    if dag is None:
        dag = HittingDAG(graph, state)
    matrix = state.matrix
    n_keywords = state.n_keywords

    nodes: Set[int] = {central_node}
    edges: Set[Tuple[int, int]] = set()
    if single_path:
        # Ablation path: one predecessor per (node, keyword) pair.
        start_pairs = [
            (central_node, column)
            for column in range(n_keywords)
            if matrix[central_node, column] > 0
        ]
        visited: Set[Tuple[int, int]] = set(start_pairs)
        stack: List[Tuple[int, int]] = list(start_pairs)
        while stack:
            target, column = stack.pop()
            predecessors = dag.predecessors(target, column)[:1]
            for pred in predecessors:
                pred = int(pred)
                edges.add((pred, target))
                nodes.add(pred)
                if matrix[pred, column] > 0 and (pred, column) not in visited:
                    visited.add((pred, column))
                    stack.append((pred, column))
    elif dag._kernel is not None:
        # Native whole-graph closure: all contributing columns walked in
        # one C call off the graph CSR, Theorem V.4 evaluated on the
        # edges the walk scans, with scratch buffers reused across
        # Central Nodes (per thread). Produces the same node and edge
        # sets as the NumPy walk below.
        closure_nodes, pairs = dag.extract_native(central_node)
        nodes.update(closure_nodes.tolist())
        if len(pairs):
            n = graph.n_nodes
            keys = np.unique(pairs[:, 0] * np.int64(n) + pairs[:, 1])
            edge_preds, edge_targets = np.divmod(keys, np.int64(n))
            edges.update(zip(edge_preds.tolist(), edge_targets.tolist()))
    else:
        # Per keyword, the Central Graph's contribution is the backward
        # closure from the Central Node over that keyword's hitting DAG.
        # Keyword sources terminate automatically: a node with hitting
        # level 0 can have no qualified predecessor (Theorem V.4's
        # right-hand side is always >= 1). Levels are gathered with
        # whole-array kernels, which is what keeps extraction cheap when
        # hundreds of Central Nodes arrive at one depth.
        n = graph.n_nodes
        for column in range(n_keywords):
            if matrix[central_node, column] == 0:
                continue
            indptr, preds = dag.column_arrays(column)
            visited_mask = np.zeros(n, dtype=bool)
            visited_mask[central_node] = True
            frontier = np.array([central_node], dtype=np.int64)
            while len(frontier):
                starts = indptr[frontier]
                degrees = indptr[frontier + 1] - starts
                total = int(degrees.sum())
                if total == 0:
                    break
                offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
                positions = (
                    np.repeat(starts - offsets, degrees) + np.arange(total)
                )
                level_preds = preds[positions]
                level_targets = np.repeat(frontier, degrees)
                edges.update(
                    zip(level_preds.tolist(), level_targets.tolist())
                )
                fresh = level_preds[~visited_mask[level_preds]]
                if len(fresh) == 0:
                    break
                frontier = np.unique(fresh)
                visited_mask[frontier] = True
            nodes.update(map(int, np.flatnonzero(visited_mask)))

    node_array = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
    zero_mask = matrix[node_array] == 0
    accumulated: Dict[int, List[int]] = {}
    for position, column in zip(*(index.tolist() for index in np.nonzero(zero_mask))):
        accumulated.setdefault(int(node_array[position]), []).append(column)
    contributions: Dict[int, FrozenSet[int]] = {
        node: frozenset(columns) for node, columns in accumulated.items()
    }
    return CentralGraph(
        central_node=central_node,
        depth=depth,
        nodes=nodes,
        edges=edges,
        keyword_contributions=contributions,
    )


def level_cover_prune(central: CentralGraph, n_keywords: int) -> CentralGraph:
    """Apply the level-cover strategy (Section V-C, Fig. 5).

    Keyword nodes inside the Central Graph are classified into levels by
    how many keywords they contribute; the Central Node always sits at the
    top. Walking levels greedily from the top, once the accumulated nodes
    cover every keyword, all lower levels are pruned together with the
    hitting paths that exist only to serve them. Nodes within one level
    never prune each other, so co-occurrence-rich answers stay intact.
    """
    contributions = central.keyword_contributions
    all_keywords = frozenset(range(n_keywords))

    covered: Set[int] = set(contributions.get(central.central_node, frozenset()))
    preserved: Set[int] = {central.central_node}
    if covered != all_keywords:
        grouped: Dict[int, List[int]] = {}
        for node, columns in contributions.items():
            if node == central.central_node:
                continue
            grouped.setdefault(len(columns), []).append(node)
        for count in sorted(grouped, reverse=True):
            level_nodes = grouped[count]
            preserved.update(level_nodes)
            for node in level_nodes:
                covered |= contributions[node]
            if covered == all_keywords:
                break

    if preserved.issuperset(contributions):
        # Every keyword node survived: nothing can be pruned, because
        # each member node lies on some preserved hitting path already.
        result = central
        result.pruned = True
        return result

    # Keep everything on a hitting path from a preserved node to the
    # Central Node: the forward closure over the hitting DAG.
    successors = central.successors()
    kept: Set[int] = set(preserved)
    stack = list(preserved)
    while stack:
        node = stack.pop()
        for child in successors.get(node, ()):
            if child not in kept:
                kept.add(child)
                stack.append(child)
    return central.restricted_to(kept)


def deduplicate_by_containment(
    graphs: Sequence[CentralGraph],
) -> List[CentralGraph]:
    """Drop answers that completely contain a smaller answer.

    The paper removes "the Central Graph that completely contains smaller
    ones" to curb repetition (Section VI-B). Processing by increasing node
    count guarantees any superset sees its subsets first.
    """
    ordered = sorted(graphs, key=lambda g: (g.n_nodes, g.central_node))
    kept: List[CentralGraph] = []
    kept_sets: List[Set[int]] = []
    for graph in ordered:
        if any(graph.nodes > existing for existing in kept_sets):
            continue
        kept.append(graph)
        kept_sets.append(graph.nodes)
    return kept


@dataclass
class TopDownConfig:
    """Stage-two knobs.

    Attributes:
        k: how many final answers to return.
        lam: Eq. 6's λ.
        apply_level_cover: turn the pruning strategy off for ablations.
        deduplicate: turn containment filtering off for ablations.
        single_path: tree-shaped answers (one hitting path per keyword)
            instead of multi-path Central Graphs — ablation only.
        n_threads: Central Graphs recovered in parallel when > 1 (the
            paper runs this stage on CPU threads with dynamic scheduling).
        native: ``False`` pins the reference tier — the eager NumPy
            hitting-DAG build and the per-level NumPy extraction walk;
            ``None`` uses the compiled ``extract_graph`` walk (no DAG is
            built) whenever the kernel is available. Both tiers produce
            identical node and edge sets.
    """

    k: int = 20
    lam: float = DEFAULT_LAMBDA
    apply_level_cover: bool = True
    deduplicate: bool = True
    single_path: bool = False
    n_threads: int = 1
    native: Optional[bool] = None


def process_top_down(
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: Optional[TopDownConfig] = None,
    timer: Optional[PhaseTimer] = None,
    prebuilt: Optional[Iterable[CentralGraph]] = None,
) -> List[CentralGraph]:
    """Run stage two over every identified Central Node.

    Args:
        weights: normalized degree-of-summary weights (for Eq. 6).
        prebuilt: already-materialized Central Graphs (the CPU-Par-d
            variant records paths during search and skips extraction);
            when given, ``state.central_nodes`` is ignored.

    Returns:
        The final top-k answers, best (lowest score) first.
    """
    config = config or TopDownConfig()
    timer = timer or PhaseTimer()
    with timer.phase(PHASE_TOP_DOWN):
        if prebuilt is not None:
            extracted = list(prebuilt)
        else:
            central_nodes = state.central_nodes
            dag = (
                HittingDAG(graph, state, native=config.native)
                if central_nodes
                else None
            )
            if config.n_threads > 1 and len(central_nodes) > 1:
                with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
                    extracted = list(
                        pool.map(
                            lambda pair: extract_central_graph(
                                graph, state, pair[0], pair[1], dag,
                                config.single_path,
                            ),
                            central_nodes,
                        )
                    )
            else:
                extracted = [
                    extract_central_graph(
                        graph, state, node, depth, dag, config.single_path
                    )
                    for node, depth in central_nodes
                ]

        n_keywords = state.n_keywords
        if config.apply_level_cover:
            extracted = [
                level_cover_prune(answer, n_keywords) for answer in extracted
            ]
        if config.deduplicate:
            extracted = deduplicate_by_containment(extracted)
        for answer in extracted:
            answer.score = central_graph_score(answer, weights, config.lam)
        heap = TopKHeap(config.k)
        heap.extend(extracted)
        return heap.ranked()
