"""Process-tier worker pool: lifecycle and crash recovery.

A :class:`~repro.parallel.pool.WorkerPool` belongs to one
``ProcessPoolBackend``: workers fork once with the CSR arrays inherited,
serve every query of that backend, and respawn (with the level retried —
idempotent writes make the re-run safe, Theorem V.2) when one crashes.
These tests pin that contract:

* stable PIDs across consecutive queries, zero respawns;
* a killed worker triggers exactly one respawn and the batch retries to
  the correct result;
* ``shutdown`` / ``close`` — and interpreter exit without either —
  unlink the shared state segment (no /dev/shm leak).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.bottom_up import BottomUpSearch
from repro.parallel import ProcessPoolBackend, SequentialBackend
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool

from conftest import zero_activation

pytestmark = pytest.mark.skipif(
    not ProcessPoolBackend.is_supported(),
    reason="requires the fork start method",
)


@pytest.fixture(autouse=True)
def _drain_pools():
    """Shut down whatever pool a test left open."""
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
    backend = ProcessPoolBackend(chain5, n_processes=2)
    first_pids = backend.pool.warm()
    assert len(first_pids) == 2
    searcher = BottomUpSearch(chain5, backend)
    searcher.run(_sets([0], [4]), zero_activation(chain5), k=1)
    mid_pids = backend.pool.worker_pids()
    searcher.run(_sets([1], [3]), zero_activation(chain5), k=1)
    assert backend.pool.worker_pids() == first_pids == mid_pids
    assert backend.respawn_count == 0


def test_crash_respawns_and_retries(chain5, tmp_path):
    """A killed worker costs one respawn; the query still answers right."""
    backend = ProcessPoolBackend(chain5, n_processes=2)
    pool = backend.pool
    pool.warm()
    with pytest.raises(pool_module.BrokenProcessPool):
        # Exhaust the retry budget so the crash surfaces deterministically,
        # proving the harness really kills workers.
        pool.run_tasks(pool_module._crash_worker, [None], retries=0)
    assert pool.respawn_count == 0  # no retry requested, no respawn

    # With the budget exhausted the executor stays broken; the caller
    # owns the recovery decision.
    pool.respawn()
    pool.warm()
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
    pool = WorkerPool(chain5, 2)
    pool.warm()
    marker = str(tmp_path / "crashed-once")
    pool.run_tasks(_crash_once, [marker])
    pids = pool.run_tasks(pool_module._worker_pid, [None, None])
    assert all(isinstance(pid, int) for pid in pids)
    assert pool.respawn_count == 1


def test_shutdown_unlinks_segment(chain5):
    """Shutdown must release the shared block (clean /dev/shm)."""
    from multiprocessing import shared_memory

    pool = WorkerPool(chain5, 1)
    segment = pool.ensure_segment(1024)
    name = segment.name
    pool.shutdown()
    assert pool._segment is None
    assert not pool.alive
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_segment_grows_and_is_reused(chain5):
    pool = WorkerPool(chain5, 1)
    small = pool.ensure_segment(512)
    assert pool.ensure_segment(256) is small
    grown = pool.ensure_segment(2048)
    assert grown is not small
    assert pool.ensure_segment(2048) is grown


def test_interpreter_exit_unlinks_segment():
    """A backend never closed still leaves no segment behind at exit."""
    from multiprocessing import shared_memory

    script = (
        "import numpy as np\n"
        "from repro.core.bottom_up import BottomUpSearch\n"
        "from repro.graph.generators import chain_graph\n"
        "from repro.parallel import ProcessPoolBackend\n"
        "graph = chain_graph(5)\n"
        "backend = ProcessPoolBackend(graph, n_processes=1)\n"
        "BottomUpSearch(graph, backend).run(\n"
        "    [np.array([0]), np.array([4])],\n"
        "    np.zeros(5, dtype=np.int32), k=1)\n"
        "print(backend.pool._segment.name)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    name = done.stdout.strip()
    assert name
    assert "leaked shared_memory" not in done.stderr
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_validates_worker_count(chain5):
    with pytest.raises(ValueError):
        WorkerPool(chain5, 0)


def test_run_tasks_after_shutdown_raises(chain5):
    pool = WorkerPool(chain5, 1)
    pool.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        pool.run_tasks(pool_module._worker_pid, [None])
