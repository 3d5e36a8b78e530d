"""Persistent pinned worker pool for multi-process expansion.

The paper's scaling experiments (Sec. VI, Fig. 9-10) measure warm
engines: worker threads exist before the first query and survive across
queries. The original :class:`~repro.parallel.processes.ProcessPoolBackend`
instead spawned a fresh fork pool per backend instance, so benchmark
sweeps paid process startup + CSR pinning on every query and the
core-scaling curve was masked by spawn latency.

This module makes the pool a process-wide resource:

* **One warm pool per (graph, worker-count)** — acquired through
  :func:`get_pool`, created on first use, reused by every subsequent
  backend bound to the same graph. Workers are forked once with the
  graph's CSR arrays pinned into their address space (fork-inherited
  copy-on-write pages, never re-pickled per query).
* **One shared state segment per matrix shape** — the POSIX
  shared-memory block the workers mutate is owned by the pool and kept
  across queries, so repeated queries of the same Knum reuse the same
  mapping.
* **Crash containment** — a dead worker surfaces as
  ``BrokenProcessPool`` on the next dispatch; :meth:`WorkerPool.respawn`
  rebuilds the executor (same CSR pinning) and the caller retries the
  level. Retrying is safe because chunk tasks only ever perform
  idempotent writes (Theorem V.2): re-running a partially applied level
  stores the same constants again.
* **Deterministic shutdown** — :meth:`WorkerPool.shutdown` (or the
  module-level :func:`shutdown_all`, also registered ``atexit``) joins
  the workers and unlinks the shared segment.

``ProcessPoolBackend(persistent=False)`` bypasses the registry (the
backend then owns a private pool) and ``REPRO_POOL_WORKERS`` overrides
worker counts globally (registered in :mod:`repro.obs.config`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..graph.csr import KnowledgeGraph
from ..obs.config import obs_enabled
from ..obs.metrics import get_registry

__all__ = [
    "BrokenProcessPool",
    "WorkerPool",
    "get_pool",
    "shutdown_all",
]

#: Metric names as module-level constants (lint RPR012).
METRIC_POOL_RESPAWNS = "repro_pool_respawns_total"
METRIC_POOL_WORKERS = "repro_pool_workers"

# Worker-side CSR views, populated once by the pool initializer — either
# fork-inherited (copy-on-write) pages for in-RAM graphs, or read-only
# memmaps of the store file for mmap-backed graphs.
_WORKER_INDPTR: Optional[np.ndarray] = None
_WORKER_INDICES: Optional[np.ndarray] = None
_WORKER_STORE_PATH: Optional[str] = None


def _init_worker(indptr: np.ndarray, indices: np.ndarray) -> None:
    global _WORKER_INDPTR, _WORKER_INDICES
    _WORKER_INDPTR = indptr
    _WORKER_INDICES = indices


def _init_worker_store(path: str) -> None:
    """Attach a worker to an on-disk CSR store by path.

    This is the zero-copy tier: the worker maps the store's ``adj`` arrays
    read-only, so all workers (and the parent) share one physical copy in
    the page cache. Attach cost is O(1) in graph size — two ``mmap`` calls,
    no array pickling, no SharedMemory copy of the CSR.
    """
    global _WORKER_INDPTR, _WORKER_INDICES, _WORKER_STORE_PATH
    from ..graph.store import open_worker_arrays

    _WORKER_INDPTR, _WORKER_INDICES = open_worker_arrays(path)
    _WORKER_STORE_PATH = path


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
    """A persistent fork pool pinned to one graph's CSR arrays.

    Args:
        graph: the graph whose adjacency the workers inherit.
        n_workers: worker process count (the paper's Tnum).

    Attributes:
        respawn_count: how many times the executor was rebuilt after a
            worker crash (0 for a healthy pool; CI asserts it stays 0
            across consecutive queries).
    """

    def __init__(self, graph: KnowledgeGraph, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if not is_supported():
            raise RuntimeError("WorkerPool requires the 'fork' start method")
        self.n_workers = n_workers
        self.respawn_count = 0
        self._graph_ref = weakref.ref(graph)
        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices
        # Store-backed graphs pin workers to the file, not to this process's
        # pages: workers re-map the store themselves, which survives the
        # parent dropping (and even reloading) its KnowledgeGraph object.
        self.store_path = _store_path_of(graph)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._segment_size = 0
        self._spawn()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        if self.store_path is not None:
            initializer: Callable = _init_worker_store
            initargs: tuple = (self.store_path,)
        else:
            initializer = _init_worker
            initargs = (self._indptr, self._indices)
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=initializer,
            initargs=initargs,
        )
        if obs_enabled():
            get_registry().gauge(
                METRIC_POOL_WORKERS, "configured pool worker processes",
            ).set(self.n_workers)

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
        if obs_enabled():
            get_registry().counter(
                METRIC_POOL_RESPAWNS,
                "worker-pool executor rebuilds after a crash",
            ).inc()
        self._spawn()

    def shutdown(self) -> None:
        """Join the workers and unlink the shared state segment."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._release_segment()

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


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------
_POOLS: "Dict[Tuple[object, int], WorkerPool]" = {}


def _store_path_of(graph: KnowledgeGraph) -> Optional[str]:
    """The mmap store path backing ``graph``, or None for in-RAM graphs."""
    store = getattr(graph, "store", None)
    if store is not None and getattr(store, "mmap", False):
        return str(store.path)
    return None


def get_pool(graph: KnowledgeGraph, n_workers: int) -> WorkerPool:
    """The process-wide warm pool for ``(graph, n_workers)``.

    Created on first use and reused by every later request for the same
    graph and worker count — consecutive queries (and consecutive backend
    instances) hit the same already-forked workers.

    In-RAM graphs key the registry by object identity (held weakly; a stale
    entry is replaced). Store-backed mmap graphs key by the *store path*:
    workers attach to the file, not to the parent's arrays, so a warm pool
    survives the graph object being dropped and reopened (ROADMAP 3a) — the
    reloaded graph maps the same page-cache copy the workers already share.
    """
    store_path = _store_path_of(graph)
    key: "Tuple[object, int]" = (store_path or id(graph), n_workers)
    pool = _POOLS.get(key)
    if pool is not None and pool.alive:
        if store_path is not None or pool._graph_ref() is graph:
            return pool
    if pool is not None:
        pool.shutdown()
    pool = WorkerPool(graph, n_workers)
    _POOLS[key] = pool
    return pool


def shutdown_all() -> None:
    """Shut down every registered pool (tests, interpreter exit)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_all)
