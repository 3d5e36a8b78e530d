"""Thread-pool expansion — the reproduction's "CPU-Par".

The paper's CPU implementation uses coarse-grained parallelism: OpenMP
threads each grab a whole frontier node under dynamic scheduling, because
fine-grained (per-neighbor) work splitting costs more in coordination than
it saves. We mirror that: the frontier is cut into chunks and a persistent
thread pool runs the compiled per-chunk kernel
(:func:`repro.parallel.vectorized.fused_expand_chunk`, one
``fused_expand`` call) on each chunk — the same per-source body in C as
the vectorized backend's whole level. The call releases the GIL, so
chunks overlap on real cores.

No locks are taken. Chunks share ``M`` and ``FIdentifier`` but only ever
write the constants ``level + 1`` and ``1`` (Theorem V.2), so interleaved
writes are harmless. The one non-idempotent quantity — the incremental
``finite_count`` — is never touched by workers: each chunk *reports* the
unique (node, keyword) cells it wrote, and the coordinating thread merges
the reports, deduplicates cells claimed by racing chunks, and applies the
counts once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence

import numpy as np

from ..core.state import SearchState
from ..graph.csr import KnowledgeGraph
from ..instrumentation import KernelCounters
from .backend import ComposedBackend
from .vectorized import apply_hit_keys, fused_expand_chunk


def split_frontier(
    frontier: np.ndarray, n_threads: int, chunks_per_thread: int
) -> "List[np.ndarray]":
    """Cut a non-empty frontier into at most ``n_threads *
    chunks_per_thread`` contiguous, non-empty chunks."""
    n_chunks = min(len(frontier), n_threads * chunks_per_thread)
    return [
        chunk for chunk in np.array_split(frontier, n_chunks) if len(chunk)
    ]


def merge_chunk_hits(
    state: SearchState,
    key_lists: "Sequence[np.ndarray]",
    chunk_counters: "Sequence[KernelCounters]",
) -> KernelCounters:
    """Apply the chunks' reported cells once; return the level's counters.

    Per-chunk key lists are already unique, so cross-chunk dedup is one
    boolean scatter over M's cells (no sort). Cells claimed by several
    racing chunks (each read ∞ before any wrote) collapse to one count —
    more elided duplicates, fewer pairs hit than the chunks' sum. The
    chunks' live lanes are ORed into ``state.live_lanes``.
    """
    counters = KernelCounters()
    for chunk_counter in chunk_counters:
        counters.add(chunk_counter)
    state.live_lanes = counters.live_lanes
    claimed = sum(len(keys) for keys in key_lists)
    if claimed:
        cell_mask = np.zeros(state.matrix.size, dtype=bool)
        for keys in key_lists:
            cell_mask[keys] = True
        merged = np.flatnonzero(cell_mask)
        apply_hit_keys(state, merged)
        counters.duplicates_elided += claimed - len(merged)
        counters.pairs_hit -= claimed - len(merged)
    return counters


class ThreadPoolBackend(ComposedBackend):
    """Coarse-grained dynamic scheduling of frontier chunks over threads.

    Args:
        n_threads: worker count (the paper's Tnum).
        chunks_per_thread: how many chunks each worker should see on
            average; more chunks = finer dynamic balancing, more dispatch
            overhead. Four mirrors OpenMP dynamic scheduling granularity.
    """

    counter_tier = "threads"

    def __init__(self, n_threads: int = 4, chunks_per_thread: int = 4) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be positive")
        if chunks_per_thread < 1:
            raise ValueError("chunks_per_thread must be positive")
        self.n_threads = n_threads
        self.chunks_per_thread = chunks_per_thread
        self.name = f"threads[{n_threads}]"
        self._pool = ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="expansion"
        )

    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> KernelCounters:
        frontier = state.frontier
        if len(frontier) == 1 or self.n_threads == 1:
            counters = KernelCounters()
            keys = fused_expand_chunk(graph, state, level, frontier, counters)
            apply_hit_keys(state, keys)
            state.live_lanes = counters.live_lanes
            return counters
        chunks = split_frontier(
            frontier, self.n_threads, self.chunks_per_thread
        )
        chunk_counters = [KernelCounters() for _ in chunks]
        futures = [
            self._pool.submit(
                fused_expand_chunk, graph, state, level, chunk, chunk_counter
            )
            for chunk, chunk_counter in zip(chunks, chunk_counters)
        ]
        # Surface worker exceptions instead of swallowing them.
        key_lists = [future.result() for future in futures]
        return merge_chunk_hits(state, key_lists, chunk_counters)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
