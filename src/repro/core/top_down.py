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

:func:`process_top_down` has two routes that return identical answers:

* the **batch** route (the default): extract → rank in the kernel → k
  objects. ``extract_graphs`` walks, prunes and weighs
  every Central Node (one call per chunk of them) and writes each
  graph's kept nodes and its raw edge run; one ``rank_graphs`` call then
  runs the containment dedup, Eq. 6 and the top-k cut on the whole
  batch, and finalises edges and keyword contributions for the ranked
  graphs only; the k :class:`CentralGraph` objects keep those as
  arrays (:meth:`CentralGraph.from_arrays`) until a caller reads them;
* the **reference** route (``native=False``, ``single_path``): one
  :class:`CentralGraph` per Central Node through
  :func:`extract_central_graph`, then :func:`rank_central_graphs` —
  :func:`level_cover_prune`, :func:`deduplicate_by_containment`,
  ``central_graph_score`` and the top-k cut, the tail CPU-Par-d's
  recorded graphs go through as well — what the batch is
  differentially tested against.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..instrumentation import PHASE_TOP_DOWN, PhaseTimer
from ..graph.csr import KnowledgeGraph
from ..parallel._native import (
    BoundGraph,
    BoundStageTwo,
    Columns,
    NativeKernel,
    StageTwoScratch,
)
from ..parallel.vectorized import _native_kernel
from .central_graph import CentralGraph
from .results import StageTwoCounts
from .scoring import DEFAULT_LAMBDA, TopKHeap, central_graph_score, depth_factor
from .state import INFINITE_LEVEL, SearchState


#: What the batch route's buffers hold before the kernel has said what a
#: query needs: kept nodes and raw edge-run keys over all Central Graphs,
#: and one graph's walk. Untouched pages cost nothing, a too-small buffer
#: costs a second walk.
_NODE_CAPACITY = 1 << 16
_EDGE_CAPACITY = 1 << 17
_PAIR_CAPACITY = 1 << 16


class HittingDAG:
    """The Theorem V.4 qualified-predecessor relation, per keyword.

    For the pair ``(v_f, i)`` a neighbor ``v_n`` already hit in B_i
    qualifies as a predecessor — it expanded to ``v_f`` on a hitting path
    — exactly when (with ``h = M[·][i]`` and ``a`` the activation levels):

    * ``v_f`` contains keywords:   ``h_f = 1 + max(a_n, h_n)``
    * ``v_f`` contains none:       ``h_f = 1 + max(a_n, h_n, a_f − 1)``

    (the expander cannot move before its own activation; a non-keyword
    target additionally cannot be hit before its activation).

    One correction on top of the bare Theorem V.4 equalities: a node that
    was identified as a Central Node stops expanding (Section III-B), so
    it cannot be the expander of a hit at any later level — a predecessor
    identified at level ℓ only qualifies for targets hit at level ≤ ℓ.
    Without this filter, extraction recovers paths the bottom-up search
    never walked (verified against the path-recording CPU-Par-d variant).

    The relation is independent of which Central Node is being
    extracted. This class is the reference route's form of it: evaluated
    eagerly, as whole-array passes over every (edge, keyword) pair, once
    per query, so that the per-level NumPy walk of
    :func:`extract_central_graph` follows precomputed predecessor lists
    (:meth:`column_arrays`). The batch route never builds it —
    ``extract_graphs`` in ``_kernel.c`` evaluates the same predicate on
    the adjacency slices its walks pop — and is differentially tested
    against this one.
    """

    def __init__(self, graph: KnowledgeGraph, state: SearchState) -> None:
        self.n_keywords = state.n_keywords
        self._indptr: List[np.ndarray] = []
        self._preds: List[np.ndarray] = []

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
        indptr = self._indptr[column]
        return self._preds[column][indptr[node]:indptr[node + 1]]

    def column_arrays(self, column: int) -> "tuple[np.ndarray, np.ndarray]":
        """The CSR (indptr, preds) pair for one keyword's hitting DAG."""
        return self._indptr[column], self._preds[column]


def _keyword_contributions(
    matrix: np.ndarray, members: np.ndarray
) -> Dict[int, FrozenSet[int]]:
    """Member node → the keyword columns it is a source of (M == 0)."""
    accumulated: Dict[int, List[int]] = {}
    positions, columns = np.nonzero(matrix[members] == 0)
    for node, column in zip(members[positions].tolist(), columns.tolist()):
        accumulated.setdefault(node, []).append(column)
    return {node: frozenset(columns) for node, columns in accumulated.items()}


def extract_central_graph(
    graph: KnowledgeGraph,
    state: SearchState,
    central_node: int,
    depth: int,
    dag: Optional[HittingDAG] = None,
    single_path: bool = False,
) -> CentralGraph:
    """Recover the Central Graph centered at ``central_node``.

    The reference route's extraction: a standard BFS runs backward from
    the Central Node over (node, keyword) pairs, following the
    :class:`HittingDAG` qualified predecessors, so that a node reached
    for keyword ``i`` only pulls in its keyword-``i`` hitting paths
    (Definition 3's union of per-keyword hitting paths).

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

    return CentralGraph(
        central_node=central_node,
        depth=depth,
        nodes=nodes,
        edges=edges,
        keyword_contributions=_keyword_contributions(
            matrix, np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        ),
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
            instead of multi-path Central Graphs — ablation only, on the
            reference route.
        n_threads: when > 1 the Central-Node list is cut into that many
            contiguous chunks, one batched kernel call per thread with
            its own scratch (ctypes releases the GIL, so the walks
            overlap — the paper runs this stage on CPU threads). The
            reference route runs on the calling thread.
        native: ``False`` pins the reference route — the eager NumPy
            hitting-DAG build, the per-level NumPy extraction walk and
            the per-object level-cover, dedup and scoring; ``None`` takes
            the batch route (``extract_graphs`` then ``rank_graphs``, no
            DAG, objects for the k answers only). Both routes return
            identical answers.
    """

    k: int = 20
    lam: float = DEFAULT_LAMBDA
    apply_level_cover: bool = True
    deduplicate: bool = True
    single_path: bool = False
    n_threads: int = 1
    native: Optional[bool] = None


class _GraphBatch(NamedTuple):
    """What ``extract_graphs`` wrote for one chunk of Central Nodes,
    graphs in chunk order: graph ``i`` owns ``columns["node_counts"][i]``
    entries of ``nodes`` (kept node ids, ascending) and
    ``columns["edge_counts"][i]`` of ``edges`` (keys ``pred * n +
    target``, as the walk found them)."""

    columns: Columns  # centrals, node/edge/raw counts, mass, needed
    nodes: np.ndarray
    edges: np.ndarray
    scratch: StageTwoScratch  # the call's; its marks are zero again
    nbytes: int  # scratch and output buffers of the call that fitted


def _extract_batch(
    bound: BoundStageTwo,
    scratch: StageTwoScratch,
    centrals: np.ndarray,
    apply_level_cover: bool,
) -> _GraphBatch:
    """One ``extract_graphs`` call over ``centrals`` with ``scratch``
    (two if one of its buffers was too small: the kernel says what it
    needs, the scratch grows to that, and a call with that much always
    fits). Concurrent calls must each have their own scratch."""
    columns = scratch.extract_columns(len(centrals))
    columns["centrals"][:] = centrals
    for _ in range(2):
        if bound.extract(columns, apply_level_cover, scratch):
            n_nodes, n_edges, _ = columns["needed"].tolist()
            return _GraphBatch(
                columns,
                scratch.arrays["out_nodes"][:n_nodes],
                scratch.arrays["out_edges"][:n_edges],
                scratch,
                scratch.nbytes + columns.nbytes,
            )
        scratch.grow(columns["needed"].tolist())
    raise RuntimeError("extract_graphs overflowed the capacities it asked for")


def _batch_stage_two(
    kernel: NativeKernel,
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: TopDownConfig,
    *,
    bound_graph: Optional[BoundGraph] = None,
    _node_capacity: int = _NODE_CAPACITY,
    _edge_capacity: int = _EDGE_CAPACITY,
    _pair_capacity: int = _PAIR_CAPACITY,
) -> Tuple[List[CentralGraph], StageTwoCounts]:
    """The batch route: ranked answers and the stage's counts.

    ``extract_graphs`` runs once per chunk of Central Nodes (one chunk
    per ``config.n_threads``, on threads, each with its own scratch),
    then ``rank_graphs`` once on the concatenated batch; objects are
    made for the ranked graphs only, over copies of their kernel arrays.
    ``bound_graph`` is the graph's binding when the caller keeps one
    (:func:`bind_graph`); the graph is bound here otherwise. The calls
    bound to the state and the scratch are its arena's. The keyword-only
    capacities are where the scratch starts, for tests that force the
    overflow exit; callers leave them alone.
    """
    if config.k < 1:
        raise ValueError("k must be at least 1")
    n_graphs = len(state.central_nodes)
    if n_graphs == 0:
        return [], StageTwoCounts()
    adj = graph.adj
    if bound_graph is None or not bound_graph.binds(
        adj.indptr, adj.indices, weights
    ):
        bound_graph = kernel.bind_graph(adj.indptr, adj.indices, weights)
    arena = state.arena
    bound = arena.binding(
        "stage_two",
        (
            kernel, bound_graph, state.matrix, state.activation,
            state.keyword_node, state.central_level,
        ),
        lambda: kernel.bind_stage_two(
            bound_graph,
            state.matrix,
            state.activation,
            state.keyword_node,
            state.central_level,
            state.whole_level,
        ),
    )
    n_chunks = min(config.n_threads, n_graphs)
    scratches = arena.scratches(
        n_chunks,
        (_node_capacity, _edge_capacity, _pair_capacity),
        bound.scratch,
    )
    # The (node, depth) pairs read flat, without a 2-D object conversion.
    centrals, depths = (
        np.fromiter(
            chain.from_iterable(state.central_nodes), np.int64, 2 * n_graphs
        )
        .reshape(n_graphs, 2)
        .T
    )

    def extract(scratch: StageTwoScratch, chunk: np.ndarray) -> _GraphBatch:
        return _extract_batch(bound, scratch, chunk, config.apply_level_cover)

    if n_chunks > 1:
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            chunks = list(
                pool.map(extract, scratches, np.array_split(centrals, n_chunks))
            )
    else:
        chunks = [extract(scratches[0], centrals)]

    first = chunks[0].scratch
    n_depths = int(depths.max()) + 1
    columns = first.rank_columns(n_graphs, n_depths)
    columns["centrals"][:] = centrals
    columns["depths"][:] = depths
    # Eq. 6 as ``central_graph_score`` computes it: the Python-float power
    # of the depth, then one IEEE multiplication per graph (in the kernel).
    columns["factors"].view(np.float64)[:] = [
        depth_factor(depth, config.lam) for depth in range(n_depths)
    ]
    for name in ("node_counts", "edge_counts", "mass"):
        np.concatenate(
            [chunk.columns[name] for chunk in chunks], out=columns[name]
        )
    nbytes = columns.nbytes + sum(chunk.nbytes for chunk in chunks)
    runs = None
    if len(chunks) == 1:
        nodes, edges = chunks[0].nodes, chunks[0].edges
    else:
        nodes = np.concatenate([chunk.nodes for chunk in chunks])
        edges = np.concatenate([chunk.edges for chunk in chunks])
        runs = (nodes, edges)
        nbytes += nodes.nbytes + edges.nbytes
    masks = np.empty(len(nodes), dtype=np.uint64)
    survivors = bound.rank(
        columns, first, config.deduplicate, config.k, masks, runs
    )

    # Each answer copies its slices out: the batch buffers are reused by
    # the next query, and its sets are built only if someone reads them.
    n = bound.n
    ranked = columns["order"][: min(config.k, survivors)]
    answers = []
    for central, depth, start, size, first_edge, n_edges, score in zip(
        *(
            column[ranked].tolist()
            for column in (
                centrals,
                depths,
                columns["node_offsets"],
                columns["node_counts"],
                columns["edge_offsets"],
                columns["edge_counts"],
                columns["scores"].view(np.float64),
            )
        )
    ):
        answers.append(
            CentralGraph.from_arrays(
                central,
                depth,
                nodes[start:start + size].copy(),
                edges[first_edge:first_edge + n_edges].copy(),
                masks[start:start + size].copy(),
                n,
                score=score,
                pruned=config.apply_level_cover,
            )
        )
    return answers, StageTwoCounts(
        central_graphs=n_graphs,
        extracted_nodes=sum(
            int(chunk.columns["raw_counts"].sum()) for chunk in chunks
        ),
        kept_after_dedup=survivors,
        answers=len(answers),
        nbytes=nbytes + masks.nbytes,
    )


def rank_central_graphs(
    graphs: Sequence[CentralGraph],
    n_keywords: int,
    weights: np.ndarray,
    config: TopDownConfig,
) -> Tuple[List[CentralGraph], int]:
    """Level-cover → containment dedup → Eq. 6 → top k, on materialized
    Central Graphs: the tail of the reference route, and all of stage
    two for CPU-Par-d, which records its graphs while searching.

    Returns:
        The ranked answers, best (lowest score) first, and how many
        graphs were left to rank after the containment filter.
    """
    if config.apply_level_cover:
        graphs = [level_cover_prune(answer, n_keywords) for answer in graphs]
    if config.deduplicate:
        graphs = deduplicate_by_containment(graphs)
    for answer in graphs:
        answer.score = central_graph_score(answer, weights, config.lam)
    heap = TopKHeap(config.k)
    heap.extend(graphs)
    return heap.ranked(), len(graphs)


def _reference_stage_two(
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: TopDownConfig,
) -> Tuple[List[CentralGraph], StageTwoCounts]:
    """The reference route: one :class:`CentralGraph` per Central Node."""
    central_nodes = state.central_nodes
    dag = HittingDAG(graph, state) if central_nodes else None
    extracted = [
        extract_central_graph(graph, state, node, depth, dag, config.single_path)
        for node, depth in central_nodes
    ]
    extracted_nodes = sum(answer.n_nodes for answer in extracted)
    ranked, kept = rank_central_graphs(
        extracted, state.n_keywords, weights, config
    )
    return ranked, StageTwoCounts(
        central_graphs=len(extracted),
        extracted_nodes=extracted_nodes,
        kept_after_dedup=kept,
        answers=len(ranked),
    )


def bind_graph(graph: KnowledgeGraph, weights: np.ndarray) -> BoundGraph:
    """The batch route's binding of ``graph``'s CSR arrays and Eq. 6
    ``weights`` (contiguous ``float64``), for a caller that answers many
    queries on them (an engine) to make once and pass to every
    :func:`process_top_down`.

    Raises:
        NativeKernelUnavailable: the kernel cannot be built on this host.
        TypeError: an array is not laid out as the kernel reads it.
    """
    return _native_kernel().bind_graph(
        graph.adj.indptr, graph.adj.indices, weights
    )


def process_top_down(
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: Optional[TopDownConfig] = None,
    timer: Optional[PhaseTimer] = None,
    *,
    bound_graph: Optional[BoundGraph] = None,
) -> Tuple[List[CentralGraph], StageTwoCounts]:
    """Run stage two over every identified Central Node.

    The batch route answers unless ``config`` pins the reference route
    (``native=False``) or asks for the ``single_path`` ablation, which
    only the reference route implements.

    Args:
        weights: normalized degree-of-summary weights (for Eq. 6),
            converted once to contiguous ``float64`` if they are not
            (exact, so every route sums the same doubles).
        bound_graph: ``graph`` and ``weights`` as :func:`bind_graph`
            bound them, kept by a caller that runs many queries; the
            batch route binds them itself when it is ``None`` (or of
            other arrays).

    Returns:
        The final top-k answers, best (lowest score) first, and the
        stage's :class:`~repro.core.results.StageTwoCounts`.
    """
    config = config or TopDownConfig()
    timer = timer or PhaseTimer()
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    with timer.phase(PHASE_TOP_DOWN):
        if config.native is False or config.single_path:
            return _reference_stage_two(graph, state, weights, config)
        return _batch_stage_two(
            _native_kernel(), graph, state, weights, config,
            bound_graph=bound_graph,
        )
