"""Fork pool for the multi-process expansion ablation (Fig. 9-10).

A :class:`WorkerPool` belongs to one
:class:`~repro.parallel.processes.ProcessPoolBackend` for that backend's
lifetime: the scaling benches build one backend per sweep point and
``close()`` it at the end, so every query of the point runs on the same
already-forked workers.

* **CSR by fork inheritance** — workers are forked with the graph's
  ``adj`` arrays in their address space (copy-on-write pages for in-RAM
  graphs, the inherited read-only mapping for mmap-store graphs); the
  adjacency is never pickled.
* **One shared state segment per matrix shape** — the POSIX
  shared-memory block the workers mutate is owned by the pool and kept
  across queries of the same Knum.
* **Crash containment** — a dead worker surfaces as
  ``BrokenProcessPool`` on the next dispatch; :meth:`WorkerPool.respawn`
  rebuilds the executor and the caller retries the level. Retrying is
  safe because chunk tasks only ever perform idempotent writes
  (Theorem V.2): re-running a partially applied level stores the same
  constants again.
* **Deterministic shutdown** — :meth:`WorkerPool.shutdown` joins the
  workers and unlinks the shared segment; :func:`shutdown_all`
  (registered ``atexit``) does it for every pool still alive at
  interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Iterable, List, Optional, Set

import numpy as np

from ..graph.csr import KnowledgeGraph

__all__ = [
    "BrokenProcessPool",
    "WorkerPool",
    "shutdown_all",
]

# Worker-side CSR views, populated once by the pool initializer from the
# fork-inherited arrays (copy-on-write pages for in-RAM graphs, the
# parent's read-only mapping for mmap-store graphs).
_WORKER_INDPTR: Optional[np.ndarray] = None
_WORKER_INDICES: Optional[np.ndarray] = None

#: Pools not yet shut down. Held strongly, so a backend dropped without
#: ``close()`` still has its segment unlinked by :func:`shutdown_all` at
#: interpreter exit.
_LIVE_POOLS: "Set[WorkerPool]" = set()


def _init_worker(indptr: np.ndarray, indices: np.ndarray) -> None:
    global _WORKER_INDPTR, _WORKER_INDICES
    _WORKER_INDPTR = indptr
    _WORKER_INDICES = indices


def _worker_pid(_: object = None) -> int:
    """Identify the executing worker (pool warm-up / PID probes)."""
    return os.getpid()


def _crash_worker(_: object = None) -> None:  # pragma: no cover - dies
    """Kill the executing worker without cleanup (crash-recovery tests)."""
    os._exit(1)


def is_supported() -> bool:
    """True when fork-based pools are available on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """A fork pool pinned to one graph's CSR arrays.

    Args:
        graph: the graph whose adjacency the workers inherit.
        n_workers: worker process count (the paper's Tnum).

    Attributes:
        respawn_count: how many times the executor was rebuilt after a
            worker crash (0 for a healthy pool).
    """

    def __init__(self, graph: KnowledgeGraph, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if not is_supported():
            raise RuntimeError("WorkerPool requires the 'fork' start method")
        self.n_workers = n_workers
        self.respawn_count = 0
        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices
        self._executor: Optional[ProcessPoolExecutor] = None
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._segment_size = 0
        self._spawn()
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(self._indptr, self._indices),
        )

    def warm(self) -> "List[int]":
        """Force every worker to spawn; returns the live worker PIDs.

        ``ProcessPoolExecutor`` forks lazily, so a freshly created pool
        has no processes until the first dispatch. Scaling benchmarks
        call this once before timing so no query pays spawn latency.
        """
        if self._executor is None:
            raise RuntimeError("pool is shut down")
        futures = [
            self._executor.submit(_worker_pid, index)
            for index in range(self.n_workers * 2)
        ]
        for future in futures:
            future.result()
        return self.worker_pids()

    def worker_pids(self) -> "List[int]":
        """PIDs of the currently forked workers (may be empty pre-warm)."""
        if self._executor is None:
            return []
        return sorted(self._executor._processes.keys())

    def respawn(self) -> None:
        """Replace a broken executor with a fresh one (same pinning)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self.respawn_count += 1
        self._spawn()

    def shutdown(self) -> None:
        """Join the workers and unlink the shared state segment."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._release_segment()
        _LIVE_POOLS.discard(self)

    @property
    def alive(self) -> bool:
        return self._executor is not None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_tasks(
        self, fn: Callable, tasks: Iterable[object], retries: int = 1
    ) -> "List[object]":
        """Run ``fn`` over ``tasks`` on the pool; retry after a crash.

        A worker death raises ``BrokenProcessPool`` out of the pending
        futures; the pool is respawned and the *whole* task batch is
        re-dispatched (idempotent-write chunks make the re-run safe).
        After ``retries`` consecutive broken batches the error
        propagates.
        """
        task_list = list(tasks)
        attempt = 0
        while True:
            if self._executor is None:
                raise RuntimeError("pool is shut down")
            try:
                futures = [
                    self._executor.submit(fn, task) for task in task_list
                ]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                if attempt >= retries:
                    raise
                attempt += 1
                self.respawn()

    # ------------------------------------------------------------------
    # Shared state segment (reused across queries of one matrix shape)
    # ------------------------------------------------------------------
    def ensure_segment(self, size: int) -> shared_memory.SharedMemory:
        """A shared block of at least ``size`` bytes, kept warm."""
        if self._segment is not None and self._segment_size >= size:
            return self._segment
        self._release_segment()
        self._segment = shared_memory.SharedMemory(create=True, size=size)
        self._segment_size = size
        return self._segment

    def _release_segment(self) -> None:
        if self._segment is None:
            return
        try:
            self._segment.close()
        except BufferError:
            # A traceback frame (or interactive caller) still holds a
            # NumPy view into the block; the mapping is freed when that
            # reference dies. Unlinking below is what actually matters.
            pass
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        self._segment = None
        self._segment_size = 0


def shutdown_all() -> None:
    """Shut down every pool still alive (interpreter exit)."""
    for pool in list(_LIVE_POOLS):
        pool.shutdown()


atexit.register(shutdown_all)
