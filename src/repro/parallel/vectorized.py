"""Vectorized (NumPy) expansion — the reproduction's "GPU-Par".

The paper's GPU kernel assigns one warp per (frontier, BFS instance) pair
and one thread per neighbor; every thread does the same small amount of
branch-light work on flat arrays. NumPy whole-array kernels are the same
computational model executed on the CPU's SIMD units.

This module implements that model as a **fused single-pass kernel**: one
pass over the frontier's flattened edge list evaluates Algorithm 2 for
*all* q BFS instances at once. Where the first-generation backend looped
``for column in range(q)`` and re-scanned every edge per keyword, the
fused kernel

1. **prefilters** the frontier to sources eligible in at least one
   column before touching the adjacency (a hub whose M row has no entry
   ≤ level would pay a full CSR gather for nothing),
2. evaluates each Algorithm 2 condition — eligible (line 9-11),
   unvisited (line 14-15), blocked (line 18-20), hit (line 21-22) —
   over the fused **(E × q)** grid, carried as ⌈q/8⌉ byte-lane words
   per edge, instead of q sequential 1-D passes,
3. **deduplicates scatter targets** per (node, column) cell, so a
   high-degree summary hub reached through hundreds of in-edges is
   written once, not once per edge.

The (E × q) block is exactly the warp grid of the paper's kernel: edge
index = warp lane, column = BFS-instance slot; each cell is one GPU
thread's worth of branch-light work.

Writes remain idempotent scatter-stores (``M[hit, i] = level + 1``,
``FIdentifier[...] = 1``), so the semantics match the lock-free kernel
exactly; duplicate indices across concurrent chunk invocations simply
write the same value twice, NumPy's equivalent of the paper's benign
write races. Because targets are deduplicated *within* a chunk, the
kernel can also report the unique cells it hit, which lets callers keep
``SearchState.finite_count`` exact without locks (the coordinating
thread merges and deduplicates the per-chunk reports).

Two tiers execute the same algorithm: the whole-array NumPy kernel
below (always available), and an on-demand compiled C translation of
its lane-word loop (:mod:`repro.parallel._native` / ``_kernel.c``) that
removes the residual per-pass interpreter and memory-traffic overhead —
the CPU analogue of the paper's native engines. Dispatch is automatic
and silent; ``REPRO_NATIVE_KERNEL=0`` or ``native=False`` pin the NumPy
tier.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

import numpy as np

from ..core.state import ALL_LANES, INFINITE_LEVEL, MAX_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph, row_windows
from ..instrumentation import (
    PHASE_EXPANSION,
    KernelCounters,
    PhaseTimer,
    hot_path,
)
from ..obs.metrics import record_kernel_counters
from .backend import ExpansionBackend, LevelOutcome

_EMPTY_KEYS = np.empty(0, dtype=np.int64)

#: Adjacency entries per chunk of a :func:`lane_bfs_levels` level.
_LANE_BFS_WINDOW = 1 << 18

#: The C kernels' byte-lane (SWAR) ballots assume lane 0 is the
#: lowest-address byte of the word, i.e. a little-endian host; the NumPy
#: lane words only ever view bytes in memory order and run anywhere.
_LANES = 8
_LANE_SWAR_OK = sys.byteorder == "little"

#: Lazily probed native kernel: ``None`` = not probed yet, ``False`` =
#: unavailable (no compiler / disabled), else a loaded NativeKernel.
_NATIVE_KERNEL: "object" = None


def _native_kernel() -> "Optional[object]":
    """The compiled C kernel, or ``None`` when it cannot be used."""
    global _NATIVE_KERNEL
    if _NATIVE_KERNEL is None:
        from . import _native

        _NATIVE_KERNEL = _native.load_kernel() or False
    return _NATIVE_KERNEL or None


def _lane_pack(bools: np.ndarray) -> np.ndarray:
    """View each row's q boolean columns as ⌈q/8⌉ uint64 lane words.

    Pads to whole 8-byte-lane words when q is not a multiple of 8 (pad
    lanes stay 0 and can never ballot), then reinterprets each row's
    bytes as ``uint64`` words — no per-bit packing, just a zero-copy
    view of the padded block. Column ``c`` is byte ``c % 8`` of word
    ``c // 8`` in memory order, whatever the host's endianness.
    """
    rows, q = bools.shape
    width = -(-q // _LANES) * _LANES
    if q == width:
        lanes = np.ascontiguousarray(bools)
    else:
        lanes = np.zeros((rows, width), dtype=bool)
        lanes[:, :q] = bools
    return lanes.view(np.uint64)


def _any_lane(words: np.ndarray) -> np.ndarray:
    """Rows of a ``(rows, words)`` lane block with some lane set.

    ORs the few word columns together: NumPy reduces a two- or
    three-wide last axis several times slower than that.
    """
    hit = words[:, 0] != 0
    for column in range(1, words.shape[1]):
        hit |= words[:, column] != 0
    return hit


def _column_bits(columns: np.ndarray) -> int:
    """A per-column boolean vector as a lane mask (bit i = column i)."""
    return sum(1 << int(column) for column in np.flatnonzero(columns))


def _keys_to_rows(keys: np.ndarray, q: int) -> np.ndarray:
    """Map flat cell keys ``node * q + column`` back to node rows.

    ``q`` is a runtime value, so NumPy's integer division cannot be
    strength-reduced at compile time; q = 8 (the distance sampler's
    eight-lane passes, Knum-8 queries) gets the shift instead.
    """
    if q == 8:
        return keys >> 3
    return keys // q


def _gather_neighbors(
    graph: KnowledgeGraph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the frontier's adjacency lists into one neighbor array.

    Returns ``(neighbors, offsets)``: one neighbor entry per (frontier
    node, neighbor) pair in CSR order, plus each frontier node's segment
    start in that flat array (the ``reduceat`` offsets for per-source
    aggregation). Uses the graph's cached int64 index view and
    precomputed degrees, so no per-call ``astype`` copy or ``indptr``
    diff is paid.
    """
    adj = graph.adj
    starts = adj.indptr[frontier]
    degrees = adj.degree_array[frontier]
    total = int(degrees.sum())
    offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    positions = np.repeat(starts - offsets, degrees) + np.arange(total)
    return adj.indices64[positions], offsets


@hot_path
def fused_expand_chunk(
    graph: KnowledgeGraph,
    state: SearchState,
    level: int,
    chunk: np.ndarray,
    counters: Optional[KernelCounters] = None,
    native: Optional[bool] = None,
) -> np.ndarray:
    """Algorithm 2 over ``chunk`` of the frontier, all keywords fused.

    Mutates ``state.matrix`` / ``state.f_identifier`` with idempotent
    writes only (safe to run concurrently on disjoint chunks) and does
    **not** touch ``state.finite_count`` — instead it returns the unique
    flat cell keys ``node * q + column`` it wrote, so single-threaded
    callers can apply them directly and multi-chunk callers can merge,
    deduplicate cells claimed by racing chunks, and apply them race-free.
    The chunk's live lanes go to ``counters.live_lanes``: the instances
    it wrote, and the eligible instances of every source that waits for
    activation or retries a blocked neighbour.

    The (E × q) grid is carried as *byte lanes* for every q: each node's
    q boolean conditions live in ⌈q/8⌉ uint64 words (lane i = instance
    i), so the per-edge hit test — source eligible AND target still ∞ —
    is one word AND per lane word, the CPU image of a warp's ballot
    register. Saturated neighbors (all-zero ∞ words) drop out of the
    ballot for free, and only lanes of hitting edges are ever expanded
    back to (node, column) cells. Dedup never sorts and never touches
    per-edge data: duplicate cell writes are idempotent, so the kernel
    scatters first and then reads the unique hit set straight off the
    matrix ("was ∞, is now level+1") in one O(n·q) pass.

    When the on-demand compiled C tier is available
    (:mod:`repro.parallel._native`) and q ≤ 8, the lane-word loop runs
    there instead: same algorithm, one C pass over the chunk's CSR
    segment, with the matrix read live so the emitted keys are
    deduplicated by construction. A neighbour's row is read as an
    8-byte word at ``node * q`` whose lanes ≥ q (the next rows' bytes)
    are masked off by the eligibility word, and M keeps its n × q
    layout. Cells found already stamped with ``level + 1`` are exactly
    the scatter duplicates the NumPy tier elides, and the C kernel
    counts them, so ``duplicates_elided`` agrees across tiers. The GIL
    is released during the call, so concurrent chunks overlap on real
    cores. Queries with more than 8 keywords run the NumPy lane words.

    Args:
        counters: optional accumulator for per-level kernel statistics.
        native: ``False`` forces the pure-NumPy kernel, ``None``/``True``
            use the compiled tier when available.

    Returns:
        int64 array of unique ``node * q + column`` keys hit by this call.
    """
    matrix = state.matrix
    f_identifier = state.f_identifier
    activation = state.activation
    write_log = state.write_log
    q = state.n_keywords
    next_level = level + 1

    # Line 2-3: identified Central Nodes never expand.
    chunk = chunk[state.c_identifier[chunk] == 0]
    if len(chunk) == 0:
        return _EMPTY_KEYS
    # Line 5-7: inactive frontiers re-flag themselves and wait.
    inactive = activation[chunk] > level
    if inactive.any():
        f_identifier[chunk[inactive]] = 1
        if write_log is not None:
            write_log.record_frontier(chunk[inactive], 1, level)
        if counters is not None:
            counters.live_lanes |= _column_bits(
                (matrix[chunk[inactive]] <= level).any(axis=0)
            )
        chunk = chunk[~inactive]
        if len(chunk) == 0:
            return _EMPTY_KEYS

    # Eligibility prefilter (line 9-11 hoisted above the gather): only
    # sources hit at ≤ level in at least one instance expand at all.
    se_words = _lane_pack(matrix[chunk] <= level)
    any_eligible = _any_lane(se_words)
    if not any_eligible.all():
        if counters is not None:
            counters.sources_pruned += int(len(chunk) - any_eligible.sum())
        chunk = chunk[any_eligible]
        if len(chunk) == 0:
            return _EMPTY_KEYS
        se_words = se_words.compress(any_eligible, axis=0)

    # Does any node still await activation at next_level? When not (the
    # common case past the first levels), the blocked test is skipped.
    may_block = state.max_activation > next_level

    if (
        q <= _LANES
        and _LANE_SWAR_OK
        and matrix.flags.c_contiguous
        and native is not False
    ):
        kernel = _native_kernel()
        if kernel is not None:
            adj = graph.adj
            if counters is not None:
                counters.edges_gathered += int(adj.degree_array[chunk].sum())
            blocked = None
            if may_block:
                blocked = (
                    ~state.keyword_node & (activation > next_level)
                ).view(np.uint8)
            out_keys = np.empty(matrix.size, dtype=np.int64)
            count, dups, live = kernel.expand(
                np.ascontiguousarray(chunk),
                se_words.ravel(),
                adj.indptr,
                adj.indices,
                matrix.reshape(-1),
                q,
                blocked,
                f_identifier,
                next_level,
                out_keys,
            )
            if counters is not None:
                counters.pairs_hit += count
                counters.duplicates_elided += dups
                counters.live_lanes |= live
            if write_log is not None:
                hit_keys = out_keys[:count]
                write_log.record_matrix(hit_keys, next_level, level)
                write_log.record_frontier(
                    _keys_to_rows(hit_keys, q), 1, level
                )
            return out_keys[:count]

    neighbors, offsets = _gather_neighbors(graph, chunk)
    n_edges = len(neighbors)
    if n_edges == 0:
        return _EMPTY_KEYS
    if counters is not None:
        counters.edges_gathered += n_edges
    degrees = graph.adj.degree_array[chunk]

    # Pre-level ∞ snapshot; doubles as the reference for reading the
    # unique hit set back off the matrix after the scatter.
    was_infinite = matrix == INFINITE_LEVEL
    inf_words = _lane_pack(was_infinite)
    if may_block:
        # Line 18-20 without per-edge branching: a blocked neighbor
        # (inactive non-keyword) blocks *every* instance, so its ∞
        # lanes are zeroed out of the availability words up front —
        # blocked targets then drop out of the ballot exactly like
        # saturated ones.
        blocked_nodes = (
            ~state.keyword_node & (activation > next_level)
        )[:, None]
        avail_words = np.where(blocked_nodes, 0, inf_words)
        # The retry half of line 18-20: a source stays in the frontier
        # iff one of its eligible instances found a blocked ∞ cell next
        # door. Per-source OR over its own CSR segment (one reduceat),
        # then a word AND against eligibility.
        blocked_inf = np.where(blocked_nodes, inf_words, 0)
        gathered = blocked_inf.take(neighbors, axis=0)
        if gathered.any():
            # reduceat misreads empty segments (and rejects offsets
            # == n_edges), so clip and mask degree-0 sources.
            retry_words = np.bitwise_or.reduceat(
                gathered, np.minimum(offsets, n_edges - 1), axis=0
            )
            retry = _any_lane(se_words & retry_words) & (degrees > 0)
            if retry.any():
                f_identifier[chunk[retry]] = 1
                if write_log is not None:
                    write_log.record_frontier(chunk[retry], 1, level)
                if counters is not None:
                    retry_lanes = np.bitwise_or.reduce(se_words[retry], axis=0)
                    counters.live_lanes |= _column_bits(
                        retry_lanes.view(np.uint8)[:q]
                    )
    else:
        avail_words = inf_words
    # Per-edge hit ballot: a word AND per edge and lane word covers all
    # q instances. Lane bytes are 0/1 bools, so the ballot words'
    # non-zero byte-lanes are exactly the hit (edge, instance) cells.
    ballot = np.repeat(se_words, degrees, axis=0) & avail_words.take(
        neighbors, axis=0
    )
    hit_edges = np.flatnonzero(_any_lane(ballot))
    if len(hit_edges) == 0:
        return _EMPTY_KEYS
    # Scatter per lane: the hit words' bytes, viewed as a (hits × lanes)
    # block, select each instance's target rows without ever expanding
    # an (E × q) grid to cell indices.
    hit_bytes = ballot.take(hit_edges, axis=0).view(np.uint8)
    hit_targets = neighbors[hit_edges]
    scattered = 0
    for column in range(q):
        rows = hit_targets[hit_bytes[:, column] != 0]
        if len(rows):
            matrix[rows, column] = next_level
            scattered += len(rows)
            if counters is not None:
                counters.live_lanes |= 1 << column
            if write_log is not None:
                write_log.record_matrix(rows * q + column, next_level, level)

    # Read the unique hit set back off the matrix in one O(n·q) pass: a
    # cell was hit by this call iff it was ∞ at entry and is level + 1
    # now — duplicate scatter targets collapse without any sort.
    unique_keys = np.flatnonzero(
        was_infinite.ravel() & (matrix.ravel() == next_level)
    )
    if counters is not None:
        counters.pairs_hit += len(unique_keys)
        counters.duplicates_elided += scattered - len(unique_keys)
    f_identifier[_keys_to_rows(unique_keys, q)] = 1
    if write_log is not None and len(unique_keys):
        write_log.record_frontier(_keys_to_rows(unique_keys, q), 1, level)
    return unique_keys


def _bind_whole_level(
    kernel: "object", graph: KnowledgeGraph, state: SearchState
) -> None:
    """Give ``state`` its bound whole-level call, output buffers included.

    It belongs to the query: one backend serves every request thread,
    and the native call runs with the GIL released.
    """
    n = state.n_nodes
    adj = graph.adj
    state.whole_level = kernel.bind_whole_level(
        adj.indptr,
        adj.indices,
        state.matrix.reshape(-1),
        state.n_keywords,
        state.f_identifier,
        state.c_identifier,
        state.keyword_node.view(np.uint8),
        state.activation,
        state.central_level,
        state.finite_count,
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.zeros(8, dtype=np.int64),
    )


def apply_hit_keys(state: SearchState, keys: np.ndarray) -> None:
    """Advance ``finite_count`` for deduplicated cell keys."""
    if len(keys):
        state.record_hits(_keys_to_rows(keys, state.n_keywords))


class VectorizedBackend(ExpansionBackend):
    """Data-parallel expansion over the fused single-pass kernel.

    :meth:`expand` pushes the whole frontier through
    :func:`fused_expand_chunk` and returns the kernel work counters of
    the level (edges gathered, unique cells hit, duplicates elided,
    prefiltered sources).

    Args:
        native: ``False`` pins the backend to the pure-NumPy kernel
            (A/B benchmarking, parity tests); ``None`` uses the compiled
            C tier whenever it is available.
    """

    name = "vectorized"

    def __init__(self, native: Optional[bool] = None) -> None:
        self.native = native

    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> KernelCounters:
        frontier = state.frontier
        counters = KernelCounters()
        if len(frontier) == 0:
            return counters
        keys = fused_expand_chunk(
            graph, state, level, frontier, counters, native=self.native
        )
        apply_hit_keys(state, keys)
        state.live_lanes = counters.live_lanes
        record_kernel_counters(
            counters,
            tier=(
                "native"
                if self.native is not False and _native_kernel() is not None
                else "numpy"
            ),
        )
        return counters

    # ------------------------------------------------------------------
    # Native whole level (Algorithm 1's joined steps in one C call)
    # ------------------------------------------------------------------
    def _whole_level_native(self, state: SearchState) -> "Optional[object]":
        """The compiled whole-level kernel, when this state can use it.

        The native step reads the matrix as contiguous byte-lane rows,
        so it requires the lane layout (q ≤ 8, little-endian) and no
        attached write log (the checker's NumPy composition logs every
        scatter instead).
        """
        if self.native is False:
            return None
        if state.n_keywords > _LANES or not _LANE_SWAR_OK:
            return None
        if not state.matrix.flags.c_contiguous:
            return None
        if state.write_log is not None:
            return None
        return _native_kernel()

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
        level, which is also what runs when the compiled tier cannot
        take this state. The steps cannot be timed apart inside one
        call, so all of it is charged to the expansion phase.
        """
        kernel = None
        if state.whole_level is None:
            kernel = self._whole_level_native(state)
            if kernel is None:
                return super().run_level(
                    graph, state, level, k, may_expand, timer
                )
        with timer.phase(PHASE_EXPANSION):
            if kernel is not None:
                _bind_whole_level(kernel, graph, state)
            return self._run_level_native(state, level, k, may_expand)

    def _run_level_native(
        self,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
    ) -> LevelOutcome:
        step = state.whole_level
        frontier_out, central_out, stats = step.outputs
        frontier_size = step(
            level,
            state.n_central_nodes,
            k,
            may_expand,
            state.max_activation > level + 1,
        )
        _, n_central, expanded, edges, pairs, pruned, dups, live = stats.tolist()
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
            record_kernel_counters(counters, tier="whole-level")
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
    native: Optional[bool] = None,
) -> Optional[np.ndarray]:
    """Hitting levels from up to 8 single-node sources, one per byte lane.

    Under an all-zero ``activation`` (every node active from level 0) a
    lane's hitting levels are plain BFS hop distances — how the distance
    sampler measures A with the kernel A parameterises. The levels are
    expansion alone: Central-Node identification would stop a node
    reached by every lane from expanding, and distances behind it would
    come out too long. This is set-up work, so it calls the kernel
    directly and stays out of the per-query ``repro_kernel_*`` metrics
    that :meth:`VectorizedBackend.expand` feeds.

    A level runs as consecutive chunks: the frontier nodes of node-id
    ranges holding about ``max(_LANE_BFS_WINDOW, n_nodes)`` adjacency
    entries each. The kernel's buffers then stay node-sized however wide
    the level is, and a store-backed graph releases the stretch of the
    adjacency a chunk read after it. A range of at least ``n_nodes``
    entries keeps the NumPy tier's O(n·q) pass per call below the chunk's
    own work. A chunk sees the cells earlier chunks stamped with
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
                fused_expand_chunk(
                    graph, state, level, frontier[first:last], native=native
                )
                graph.release_pages()
        level += 1
    return state.matrix
