"""Persistent pinned worker pool: lifecycle, crash recovery, toggles.

The pool (:mod:`repro.parallel.pool`) is the serving-side half of the
whole-level PR: workers fork once per (graph, Tnum), pin the CSR arrays,
stay warm across queries and across backend instances, and respawn (with
the level retried — idempotent writes make the re-run safe, Theorem V.2)
when one crashes. These tests pin that contract:

* stable PIDs across consecutive queries, zero respawns;
* a killed worker triggers exactly one respawn and the batch retries to
  the correct result;
* shutdown unlinks the shared state segment (no /dev/shm leak);
* ``persistent=`` / ``REPRO_POOL_WORKERS`` switch behavior, and the
  latter is a registered env var (RPR004).
"""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.parallel import ProcessPoolBackend, SequentialBackend
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, get_pool

from conftest import zero_activation

pytestmark = pytest.mark.skipif(
    not ProcessPoolBackend.is_supported(),
    reason="requires the fork start method",
)


@pytest.fixture(autouse=True)
def _drain_warm_pools():
    yield
    pool_module.shutdown_all()


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def _crash_once(marker_path):
    """Kill the worker on first execution, succeed on the retry."""
    import os

    if not os.path.exists(marker_path):
        open(marker_path, "w").close()
        os._exit(1)
    return os.getpid()


def _signature(result):
    return (
        sorted(result.central_nodes),
        result.state.matrix.tobytes(),
    )


def test_stable_pids_across_queries(chain5):
    """Two sequential queries reuse the same forked workers."""
    backend = ProcessPoolBackend(chain5, n_processes=2, persistent=True)
    first_pids = backend.warm()
    assert len(first_pids) == 2
    searcher = BottomUpSearch(chain5, backend)
    searcher.run(_sets([0], [4]), zero_activation(chain5), k=1)
    mid_pids = backend.worker_pids()
    searcher.run(_sets([1], [3]), zero_activation(chain5), k=1)
    assert backend.worker_pids() == first_pids == mid_pids
    assert backend.respawn_count == 0


def test_pool_shared_across_backend_instances(chain5):
    """The registry hands consecutive backends the same warm pool."""
    first = ProcessPoolBackend(chain5, n_processes=2, persistent=True)
    pids = first.warm()
    second = ProcessPoolBackend(chain5, n_processes=2, persistent=True)
    assert second.pool is first.pool
    assert second.worker_pids() == pids
    # A different Tnum is a different pool.
    third = ProcessPoolBackend(chain5, n_processes=1, persistent=True)
    assert third.pool is not first.pool


def test_crash_respawns_and_retries(chain5, tmp_path):
    """A killed worker costs one respawn; the query still answers right."""
    backend = ProcessPoolBackend(chain5, n_processes=2, persistent=True)
    backend.warm()
    pool = backend.pool
    with pytest.raises(pool_module.BrokenProcessPool):
        # Exhaust the retry budget so the crash surfaces deterministically,
        # proving the harness really kills workers.
        pool.run_tasks(pool_module._crash_worker, [None], retries=0)
    assert pool.respawn_count == 0  # no retry requested, no respawn

    # With the budget exhausted the executor stays broken; the caller
    # owns the recovery decision.
    pool.respawn()
    backend.warm()
    before = pool.respawn_count
    marker = str(tmp_path / "crashed-once")
    results = pool.run_tasks(_crash_once, [marker])
    # One crash, one respawn, and the retried batch ran on fresh workers.
    assert pool.respawn_count == before + 1
    assert all(isinstance(pid, int) for pid in results)

    result = BottomUpSearch(chain5, backend).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    reference = BottomUpSearch(chain5, SequentialBackend()).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    assert _signature(result) == _signature(reference)


def test_crash_retry_transparent(chain5, tmp_path):
    """run_tasks retries transparently: the caller sees only the result."""
    pool = get_pool(chain5, 2)
    pool.warm()
    marker = str(tmp_path / "crashed-once")
    pool.run_tasks(_crash_once, [marker])
    pids = pool.run_tasks(pool_module._worker_pid, [None, None])
    assert all(isinstance(pid, int) for pid in pids)
    assert pool.respawn_count == 1


def test_shutdown_unlinks_segment(chain5):
    """Shutdown must release the shared block (clean /dev/shm)."""
    from multiprocessing import shared_memory

    pool = get_pool(chain5, 1)
    segment = pool.ensure_segment(1024)
    name = segment.name
    pool.shutdown()
    assert pool._segment is None
    assert not pool.alive
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_segment_grows_and_is_reused(chain5):
    pool = get_pool(chain5, 1)
    small = pool.ensure_segment(512)
    assert pool.ensure_segment(256) is small
    grown = pool.ensure_segment(2048)
    assert grown is not small
    assert pool.ensure_segment(2048) is grown


def test_persist_toggle(chain5):
    """persistent=False owns a private pool per backend."""
    backend = ProcessPoolBackend(chain5, n_processes=1, persistent=False)
    assert backend._owns_pool
    other = ProcessPoolBackend(chain5, n_processes=1, persistent=False)
    assert other.pool is not backend.pool
    backend.close()
    assert not backend.pool.alive
    other.close()

    warm = ProcessPoolBackend(chain5, n_processes=1)
    assert not warm._owns_pool
    warm.close()
    # close() on a persistent backend leaves the warm pool running.
    assert warm.pool.alive


def test_workers_override_toggle(chain5, monkeypatch):
    """REPRO_POOL_WORKERS globally overrides the constructor Tnum."""
    from repro.obs.config import ENV_POOL_WORKERS

    monkeypatch.setenv(ENV_POOL_WORKERS, "3")
    backend = ProcessPoolBackend(chain5, n_processes=1, persistent=True)
    assert backend.n_processes == 3
    assert backend.pool.n_workers == 3


def test_env_toggles_registered():
    """RPR004: pool knobs must be documented ENV_* constants."""
    import inspect

    from repro.analysis.lint import registered_env_vars
    from repro.obs import config

    registered = registered_env_vars(inspect.getsource(config))
    assert config.ENV_POOL_WORKERS in registered


def test_validates_worker_count(chain5):
    with pytest.raises(ValueError):
        WorkerPool(chain5, 0)


def test_run_tasks_after_shutdown_raises(chain5):
    pool = get_pool(chain5, 1)
    pool.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        pool.run_tasks(pool_module._worker_pid, [None])
