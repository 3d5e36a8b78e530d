"""The production expansion route — the reproduction's "GPU-Par".

The paper's GPU kernel assigns one warp per (frontier, BFS instance) pair
and one thread per neighbor; every thread does the same small amount of
branch-light work on flat arrays. The compiled kernel
(:mod:`repro.parallel._native` / ``_kernel.c``) runs that model on the
CPU: one pass over a frontier's CSR segment evaluates Algorithm 2 for
*all* q ≤ 64 BFS instances at once, each node's q conditions carried as
⌈q/8⌉ byte-lane words — eligible (line 9-11), unvisited (line 14-15),
blocked (line 18-20), hit (line 21-22) are word operations, and a
neighbour's hit ballot is one word AND per lane word, the CPU image of a
warp's ballot register.

Writes are idempotent byte stores (``M[hit, i] = level + 1``,
``FIdentifier[...] = 1``), so the semantics match the lock-free kernel
exactly; racing chunks write the same value twice, the paper's benign
write races. The matrix is read live, so each call claims a cell once
and can report the unique cells it hit, which lets callers keep
``SearchState.finite_count`` exact without locks (the coordinating
thread merges and deduplicates the per-chunk reports).

:class:`VectorizedBackend` runs a whole bottom-up level in one kernel
call (``whole_level_step``); :func:`fused_expand_chunk` is the per-chunk
call ``ThreadPoolBackend`` and the distance sampler use. Both run the
same per-source body in C. A host that cannot build the kernel gets
:class:`~repro.parallel._native.NativeKernelUnavailable` from
:func:`_native_kernel`, the one accessor that loads it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.state import ALL_LANES, MAX_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph, row_windows
from ..instrumentation import (
    PHASE_EXPANSION,
    KernelCounters,
    PhaseTimer,
    hot_path,
)
from . import _native
from ._native import BoundWholeLevel, NativeKernel
from .backend import ExpansionBackend, LevelOutcome

#: Adjacency entries per chunk of a :func:`lane_bfs_levels` level.
_LANE_BFS_WINDOW = 1 << 18

#: The loaded kernel, once :func:`_native_kernel` has loaded it.
_NATIVE_KERNEL: Optional[NativeKernel] = None


def _native_kernel() -> NativeKernel:
    """The compiled C kernel, loaded on first use.

    Raises:
        NativeKernelUnavailable: :func:`~repro.parallel._native.load_kernel`
            could not build or load it.
    """
    global _NATIVE_KERNEL
    if _NATIVE_KERNEL is None:
        _NATIVE_KERNEL = _native.load_kernel()
    return _NATIVE_KERNEL


def _keys_to_rows(keys: np.ndarray, q: int) -> np.ndarray:
    """Map flat cell keys ``node * q + column`` back to node rows.

    ``q`` is a runtime value, so NumPy's integer division cannot be
    strength-reduced at compile time; q = 8 (the distance sampler's
    eight-lane passes, Knum-8 queries) gets the shift instead.
    """
    if q == 8:
        return keys >> 3
    return keys // q


@hot_path
def fused_expand_chunk(
    graph: KnowledgeGraph,
    state: SearchState,
    level: int,
    chunk: np.ndarray,
    counters: Optional[KernelCounters] = None,
) -> np.ndarray:
    """Algorithm 2 over ``chunk`` of the frontier, all keywords fused, in
    one ``fused_expand`` call.

    ``chunk`` is taken as enqueued: the kernel skips Central Nodes
    (line 2-3), re-flags sources still waiting for activation (line
    5-7) and prunes those eligible in no instance. Mutates
    ``state.matrix`` / ``state.f_identifier`` with idempotent writes
    only (safe to run concurrently on disjoint chunks) and does **not**
    touch ``state.finite_count`` — instead it returns the unique flat
    cell keys ``node * q + column`` it wrote, so single-threaded callers
    can apply them directly and multi-chunk callers can merge,
    deduplicate cells claimed by racing chunks, and apply them
    race-free. The GIL is released during the call, so concurrent
    chunks overlap on real cores.

    Args:
        counters: optional accumulator for the chunk's kernel counters;
            its ``live_lanes`` gains the instances the chunk wrote and
            the eligible instances of every source that waits for
            activation or retries a blocked neighbour.

    Returns:
        int64 array of unique ``node * q + column`` keys hit by this call.
    """
    matrix = state.matrix
    q = state.n_keywords
    adj = graph.adj
    out_keys = np.empty(matrix.size, dtype=np.int64)
    count, (edges, pairs, pruned, dups, live) = _native_kernel().expand(
        np.ascontiguousarray(chunk, dtype=np.int64),
        adj.indptr,
        adj.indices,
        matrix.reshape(-1),
        q,
        state.f_identifier,
        state.c_identifier,
        state.keyword_node.view(np.uint8),
        state.activation,
        level,
        # Does any node still await activation at level + 1? When not
        # (the common case past the first levels), the kernel skips the
        # blocked test.
        state.max_activation > level + 1,
        out_keys,
    )
    if counters is not None:
        counters.edges_gathered += edges
        counters.pairs_hit += pairs
        counters.sources_pruned += pruned
        counters.duplicates_elided += dups
        counters.live_lanes |= live
    return out_keys[:count]


def _bind_whole_level(
    kernel: NativeKernel, graph: KnowledgeGraph, state: SearchState
) -> None:
    """Give ``state`` its bound whole-level call, output buffers included.

    The call is the state's arena's, never the backend's (one backend
    serves every request thread, and the native call runs with the GIL
    released). It writes the arena's outputs and is rebound only when
    the graph, q (a new M) or the α's activation array changed.
    """
    adj = graph.adj
    arena = state.arena
    arrays = (
        adj.indptr,
        adj.indices,
        state.matrix,
        state.f_identifier,
        state.c_identifier,
        state.keyword_node,
        state.activation,
        state.central_level,
        state.finite_count,
    )

    def bind() -> BoundWholeLevel:
        indptr, indices, matrix, fid, cid, keyword_node, *rest = arrays
        return kernel.bind_whole_level(
            indptr,
            indices,
            matrix.reshape(-1),
            state.n_keywords,
            fid,
            cid,
            keyword_node.view(np.uint8),
            *rest,  # activation, central_level, finite_count
            *arena.outputs,
        )

    state.whole_level = arena.binding("whole_level", arrays, bind)


def apply_hit_keys(state: SearchState, keys: np.ndarray) -> None:
    """Advance ``finite_count`` for deduplicated cell keys."""
    if len(keys):
        state.record_hits(_keys_to_rows(keys, state.n_keywords))


class VectorizedBackend(ExpansionBackend):
    """The production route: a bottom-up level in one kernel call.

    :meth:`run_level` runs ``whole_level_step``, bound to the query's
    state on its first level; the bottom-up loop records its counters
    once per query.
    """

    name = "vectorized"
    counter_tier = "whole-level"

    def run_level(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
        timer: PhaseTimer,
    ) -> LevelOutcome:
        """One bottom-up level as a single C call (``whole_level_step``).

        Same step order and same termination decisions as the inherited
        level. The steps cannot be timed apart inside one call, so all
        of it is charged to the expansion phase.
        """
        with timer.phase(PHASE_EXPANSION):
            if state.whole_level is None:
                _bind_whole_level(_native_kernel(), graph, state)
            step = state.whole_level
            frontier_out, central_out, stats = step.outputs
            frontier_size = step(
                level,
                state.n_central_nodes,
                k,
                may_expand,
                state.max_activation > level + 1,
            )
            _, n_central, expanded, edges, pairs, pruned, dups, live = (
                stats.view(np.uint64).tolist()
            )
            state.frontier = frontier_out[:frontier_size]
            found = [(node, level) for node in central_out[:n_central].tolist()]
            state.central_nodes.extend(found)
            counters: Optional[KernelCounters] = None
            if expanded:
                counters = KernelCounters(
                    edges_gathered=edges,
                    pairs_hit=pairs,
                    duplicates_elided=dups,
                    sources_pruned=pruned,
                    live_lanes=live,
                )
            return LevelOutcome(
                level,
                frontier_size,
                found,
                expanded=bool(expanded),
                new_hits=pairs,
                edges_scanned=edges,
                counters=counters,
                live_lanes=live if expanded else ALL_LANES,
            )


@hot_path
def lane_bfs_levels(
    graph: KnowledgeGraph,
    sources: np.ndarray,
    activation: np.ndarray,
) -> Optional[np.ndarray]:
    """Hitting levels from up to 8 single-node sources, one per byte lane.

    Under an all-zero ``activation`` (every node active from level 0) a
    lane's hitting levels are plain BFS hop distances — how the distance
    sampler measures A with the kernel A parameterises. The levels are
    expansion alone: Central-Node identification would stop a node
    reached by every lane from expanding, and distances behind it would
    come out too long. This is set-up work, so it calls the kernel
    directly and stays out of the per-query ``repro_kernel_*`` metrics.

    A level runs as consecutive chunks: the frontier nodes of node-id
    ranges holding about ``max(_LANE_BFS_WINDOW, n_nodes)`` adjacency
    entries each. The kernel's buffers then stay node-sized however wide
    the level is, and a store-backed graph releases the stretch of the
    adjacency a chunk read after it. A range of at least ``n_nodes``
    entries bounds the calls per level by 2·|E| / n_nodes + 1. A chunk sees the cells earlier chunks stamped with
    ``level + 1`` as reached, so the levels are those of one whole pass.
    The hit keys only feed ``finite_count``, which nothing here reads, so
    they are dropped.

    Returns:
        The ``(n_nodes × len(sources))`` uint8 hitting-level matrix
        (``INFINITE_LEVEL`` = unreachable), or ``None`` when a frontier
        is still alive at level 254 — one more level would write the
        byte that means ∞, so the caller must fall back to a wider BFS.
    """
    state = SearchState.initialize(
        graph.n_nodes, sources.reshape(-1, 1), activation
    )
    # First node of each chunk, as node-id ranges of the adjacency.
    window = max(_LANE_BFS_WINDOW, graph.n_nodes)
    starts = [lo for lo, _ in row_windows(graph.adj.indptr, window)] + [graph.n_nodes]
    level = 0
    while state.enqueue_frontiers():
        if level == MAX_LEVEL:
            return None
        frontier = state.frontier
        cuts = np.searchsorted(frontier, starts).tolist()
        # One iteration per node range, at most 2·|E| / n_nodes + 1.
        for first, last in zip(cuts, cuts[1:]):  # noqa: RPR002
            if first < last:
                fused_expand_chunk(graph, state, level, frontier[first:last])
                graph.release_pages()
        level += 1
    return state.matrix
