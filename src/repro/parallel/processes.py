"""Process-pool expansion — true multi-core parallelism in CPython.

The thread-pool backend reproduces the paper's CPU-Par *structure* but
the GIL serializes its pure-Python kernel, so thread sweeps stay flat.
This backend is the Python-fidelity answer: worker *processes* execute
Algorithm 2 over the search state placed in POSIX shared memory, so the
lock-free idempotent-write discipline (Theorem V.2) operates across real
cores — writes race benignly in actual parallel, exactly like the
paper's OpenMP threads.

Workers come from the **persistent pinned pool**
(:mod:`repro.parallel.pool`): forked once per (graph, Tnum) with the CSR
arrays pinned into their address space, kept warm across queries and
across backend instances, respawned (and the level retried — idempotent
writes make the re-run safe) if one crashes. For graphs opened from an
on-disk :mod:`repro.graph.store` file, workers attach by re-mapping the
store's ``adj`` arrays read-only instead of inheriting parent pages —
one physical copy in the page cache regardless of Tnum, O(1) attach
cost, and warm pools keyed by store path that survive graph reloads.
Only the small per-query search state ever goes through shared memory.

Mechanics per expansion level:

1. the parent copies M / FIdentifier / CIdentifier / activation /
   keyword-mask into the pool's shared-memory block (Θ(q·|V|) bytes —
   ~100 KB at benchmark scale, microseconds to copy);
2. frontier chunks are dispatched to the warm workers;
3. workers mutate the shared block in place (idempotent writes only);
4. the parent copies M / FIdentifier back into the SearchState.

Requires a platform with the ``fork`` start method (Linux/macOS);
:func:`ProcessPoolBackend.is_supported` reports availability.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.state import SearchState
from ..graph.csr import KnowledgeGraph
from ..obs.config import pool_workers_override
from ..obs.proc import WorkerSpanRecorder, stitch_worker_spans
from .backend import ExpansionBackend
from . import pool as pool_module
from .pool import WorkerPool, get_pool

_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        # The attaching side must NOT register the block with the
        # resource tracker: the segment is owned by the parent's pool,
        # and a tracker entry here would unlink it when this worker
        # exits (e.g. during a crash respawn) — yanking the warm block
        # out from under the surviving pool (bpo-38119).
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
    args: "Tuple[str, int, int, int, np.ndarray, Optional[int]]",
) -> "Optional[List[Dict[str, object]]]":
    """Algorithm 2 over one frontier chunk, against shared state.

    Every store is idempotent (``level + 1`` into ∞ cells, ``1`` into
    FIdentifier), so re-running a chunk — or a whole level after a
    worker crash — writes the same values again (Theorem V.2).

    When the parent ships its tracer epoch (``epoch_ns`` not ``None``)
    the chunk runs under a :class:`~repro.obs.proc.WorkerSpanRecorder`
    and returns the span buffer for the parent to stitch; with tracing
    off it returns ``None`` and records nothing.
    """
    shm_name, n, q, level, chunk, epoch_ns = args
    if epoch_ns is not None:
        recorder = WorkerSpanRecorder(epoch_ns)
        with recorder.span(
            "worker_chunk", level=level, chunk_size=len(chunk)
        ):
            with recorder.span("attach"):
                segment = _attach(shm_name)
            _expand_chunk_body(segment, n, q, level, chunk)
        return recorder.payload()
    segment = _attach(shm_name)
    _expand_chunk_body(segment, n, q, level, chunk)
    return None


def _expand_chunk_body(
    segment: shared_memory.SharedMemory,
    n: int,
    q: int,
    level: int,
    chunk: np.ndarray,
) -> None:
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
            pinned into the pool's workers at first fork.
        n_processes: worker count (the paper's Tnum, with real cores);
            overridden globally by ``REPRO_POOL_WORKERS`` when set.
        chunks_per_process: dynamic-scheduling granularity.
        persistent: ``True`` (default) acquires the process-wide warm
            pool shared across backend instances; ``False`` owns a
            private pool torn down by :meth:`close`.

    Raises:
        RuntimeError: when the platform lacks the ``fork`` start method.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        n_processes: int = 4,
        chunks_per_process: int = 2,
        persistent: bool = True,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        if chunks_per_process < 1:
            raise ValueError("chunks_per_process must be positive")
        if not self.is_supported():
            raise RuntimeError(
                "ProcessPoolBackend requires the 'fork' start method"
            )
        n_processes = pool_workers_override() or n_processes
        self.n_processes = n_processes
        self.chunks_per_process = chunks_per_process
        self.persistent = persistent
        self.name = f"processes[{n_processes}]"
        self._graph = graph
        if persistent:
            self._pool: WorkerPool = get_pool(graph, n_processes)
            self._owns_pool = False
        else:
            self._pool = WorkerPool(graph, n_processes)
            self._owns_pool = True

    @staticmethod
    def is_supported() -> bool:
        """True when fork-based pools are available on this platform."""
        return pool_module.is_supported()

    # ------------------------------------------------------------------
    # Pool introspection (lifecycle tests, CI no-respawn smoke)
    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool:
        return self._pool

    def worker_pids(self) -> "List[int]":
        """PIDs of the live workers (empty before the first dispatch)."""
        return self._pool.worker_pids()

    @property
    def respawn_count(self) -> int:
        return self._pool.respawn_count

    def warm(self) -> "List[int]":
        """Fork all workers now; returns their PIDs (pre-timing warmup)."""
        return self._pool.warm()

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
        segment = self._pool.ensure_segment(total)
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
        if self.tracer.enabled:
            # Workers record their own spans against the parent tracer's
            # epoch and ship the buffers back with the chunk results;
            # stitching hangs them under this dispatch span
            # (:mod:`repro.obs.proc`).
            epoch_ns: Optional[int] = self.tracer.epoch_ns
            tasks = [
                (segment.name, n, q, level, chunk, epoch_ns)
                for chunk in chunks
            ]
            with self.tracer.span(
                "process_pool.map",
                chunks=len(chunks),
                frontier_size=len(frontier),
                level=level,
            ) as dispatch_span:
                buffers = self._pool.run_tasks(_expand_chunk_task, tasks)
            stitch_worker_spans(self.tracer, dispatch_span, buffers)
        else:
            tasks = [
                (segment.name, n, q, level, chunk, None) for chunk in chunks
            ]
            self._pool.run_tasks(_expand_chunk_task, tasks)

        # Copy the mutated state back.
        state.matrix[:] = views["matrix"]
        state.f_identifier[:] = views["f_identifier"]
        # Workers cannot maintain the incremental finite-cell counts
        # (increments are not idempotent), so resynchronize the touched
        # rows: every node whose M row changed was also flagged.
        state.refresh_finite_count(np.flatnonzero(state.f_identifier))

    def close(self) -> None:
        """Release this backend's pool reference.

        A private pool (``persistent=False``) is joined and its shared
        segment unlinked. The process-wide warm pool stays up for the
        next query; :func:`repro.parallel.pool.shutdown_all` (also run
        ``atexit``) tears it down deterministically.
        """
        if self._owns_pool:
            self._pool.shutdown()
