"""Process-pool expansion — the CPU-Par(proc) series of Figs 9-10.

Worker *processes* execute Algorithm 2, transcribed per node as in the
sequential reference, over the search state placed in POSIX shared
memory, so the lock-free idempotent-write discipline (Theorem V.2)
operates across address spaces. It is an ablation for the Tnum sweeps,
not a serving route: the per-node Python kernel plus two Θ(q·|V|) state
copies and a dispatch per level make a query some 80× slower than the
in-process kernel at Tnum 1 (EXPERIMENTS.md, "Retired routes and
benches").

A backend owns one :class:`~repro.parallel.pool.WorkerPool` for its
lifetime: workers are forked with the graph's CSR arrays inherited
(in-RAM and mmap-store graphs alike), serve every query run through the
backend, are respawned (and the level retried — idempotent writes make
the re-run safe) if one crashes, and are joined by :meth:`close`, which
also unlinks the shared segment.

Mechanics per expansion level:

1. the parent copies M / FIdentifier / CIdentifier / activation /
   keyword-mask into the pool's shared-memory block (Θ(q·|V|) bytes);
2. frontier chunks are dispatched to the workers;
3. workers mutate the shared block in place (idempotent writes only);
4. the parent copies M / FIdentifier back into the SearchState.

Requires a platform with the ``fork`` start method (Linux/macOS);
:func:`ProcessPoolBackend.is_supported` reports availability.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np

from ..core.state import SearchState
from ..graph.csr import KnowledgeGraph
from .backend import ExpansionBackend
from . import pool as pool_module
from .pool import WorkerPool

_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        # The attaching side must NOT register the block with the
        # resource tracker: the segment is owned by the parent's pool,
        # and a tracker entry here would unlink it when this worker
        # exits (e.g. during a crash respawn) — yanking the block out
        # from under the surviving pool (bpo-38119).
        register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register
        _WORKER_SEGMENTS[name] = segment
    return segment


def _layout(n: int, q: int) -> "dict[str, tuple[int, int]]":
    """Byte offsets of each array inside the shared block."""
    offsets = {}
    cursor = 0
    for key, size in (
        ("matrix", n * q),          # uint8
        ("f_identifier", n),        # uint8
        ("c_identifier", n),        # uint8
        ("keyword", n),             # uint8 (bool)
        ("activation", 4 * n),      # int32
    ):
        offsets[key] = (cursor, size)
        cursor += size
    offsets["__total__"] = (0, cursor)
    return offsets


def _views(buffer: memoryview, n: int, q: int) -> "Dict[str, np.ndarray]":
    offsets = _layout(n, q)

    def view(key: str, dtype: type, shape: Tuple[int, ...]) -> np.ndarray:
        start, size = offsets[key]
        return np.frombuffer(buffer, dtype=dtype, count=size // np.dtype(dtype).itemsize,
                             offset=start).reshape(shape)

    return {
        "matrix": view("matrix", np.uint8, (n, q)),
        "f_identifier": view("f_identifier", np.uint8, (n,)),
        "c_identifier": view("c_identifier", np.uint8, (n,)),
        "keyword": view("keyword", np.uint8, (n,)),
        "activation": view("activation", np.int32, (n,)),
    }


def _expand_chunk_task(
    args: "Tuple[str, int, int, int, np.ndarray]",
) -> None:
    """Algorithm 2 over one frontier chunk, against shared state.

    Every store is idempotent (``level + 1`` into ∞ cells, ``1`` into
    FIdentifier), so re-running a chunk — or a whole level after a
    worker crash — writes the same values again (Theorem V.2).
    """
    shm_name, n, q, level, chunk = args
    segment = _attach(shm_name)
    views = _views(segment.buf, n, q)
    matrix = views["matrix"]
    f_identifier = views["f_identifier"]
    c_identifier = views["c_identifier"]
    keyword_node = views["keyword"]
    activation = views["activation"]
    indptr = pool_module._WORKER_INDPTR
    indices = pool_module._WORKER_INDICES
    next_level = level + 1

    for node in chunk:
        node = int(node)
        if c_identifier[node]:
            continue
        if activation[node] > level:
            f_identifier[node] = 1
            continue
        neighbors = indices[indptr[node]:indptr[node + 1]]
        for column in range(q):
            if matrix[node, column] > level:
                continue
            for neighbor in neighbors:
                neighbor = int(neighbor)
                if matrix[neighbor, column] != 255:
                    continue
                if not keyword_node[neighbor] and activation[neighbor] > next_level:
                    f_identifier[node] = 1
                    continue
                matrix[neighbor, column] = next_level
                f_identifier[neighbor] = 1


class ProcessPoolBackend(ExpansionBackend):
    """Shared-memory multi-process expansion (real parallel CPU-Par).

    Args:
        graph: the graph workers will traverse; its CSR arrays are
            inherited by the pool's workers at fork.
        n_processes: worker count (the paper's Tnum, with real cores).
        chunks_per_process: dynamic-scheduling granularity.

    Attributes:
        pool: the backend's :class:`~repro.parallel.pool.WorkerPool`.

    Raises:
        RuntimeError: when the platform lacks the ``fork`` start method.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        n_processes: int = 4,
        chunks_per_process: int = 2,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        if chunks_per_process < 1:
            raise ValueError("chunks_per_process must be positive")
        if not self.is_supported():
            raise RuntimeError(
                "ProcessPoolBackend requires the 'fork' start method"
            )
        self.n_processes = n_processes
        self.chunks_per_process = chunks_per_process
        self.name = f"processes[{n_processes}]"
        self._graph = graph
        self.pool = WorkerPool(graph, n_processes)

    @staticmethod
    def is_supported() -> bool:
        """True when fork-based pools are available on this platform."""
        return pool_module.is_supported()

    @property
    def respawn_count(self) -> int:
        """Executor rebuilds after a worker crash (0 for a healthy pool)."""
        return self.pool.respawn_count

    # ------------------------------------------------------------------
    def expand(self, graph: KnowledgeGraph, state: SearchState, level: int) -> None:
        if graph is not self._graph:
            raise ValueError(
                "ProcessPoolBackend is bound to the graph given at "
                "construction; create one backend per graph"
            )
        frontier = state.frontier
        if len(frontier) == 0:
            return
        n, q = state.n_nodes, state.n_keywords
        total = _layout(n, q)["__total__"][1]
        segment = self.pool.ensure_segment(total)
        views = _views(segment.buf, n, q)
        # Copy the state in (Θ(q·|V|) bytes).
        views["matrix"][:] = state.matrix
        views["f_identifier"][:] = state.f_identifier
        views["c_identifier"][:] = state.c_identifier
        views["keyword"][:] = state.keyword_node.astype(np.uint8)
        views["activation"][:] = state.activation

        n_chunks = min(len(frontier), self.n_processes * self.chunks_per_process)
        if n_chunks <= 1 or self.n_processes == 1:
            chunks = [frontier]
        else:
            # Stride rather than slice: the frontier arrives sorted by
            # node ID and the generators cluster hub nodes (venues,
            # orgs) in one contiguous ID block, so contiguous slices
            # hand one worker nearly all the edge work. Interleaving
            # spreads the hubs across chunks; idempotent writes make
            # the reordering safe (Theorem V.2).
            chunks = [
                frontier[start::n_chunks] for start in range(n_chunks)
            ]
        self.pool.run_tasks(
            _expand_chunk_task,
            [(segment.name, n, q, level, chunk) for chunk in chunks],
        )

        # Copy the mutated state back.
        state.matrix[:] = views["matrix"]
        state.f_identifier[:] = views["f_identifier"]
        # Workers cannot maintain the incremental finite-cell counts
        # (increments are not idempotent), so resynchronize the touched
        # rows: every node whose M row changed was also flagged.
        state.refresh_finite_count(np.flatnonzero(state.f_identifier))

    def close(self) -> None:
        """Join the workers and unlink the shared state segment."""
        self.pool.shutdown()
