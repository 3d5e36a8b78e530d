"""Concurrency-contract analyzer + runtime lock witness tests.

Covers the static lock-order pass (cycle / blocking / fork findings on
synthetic modules, a clean real repo), the witnessed lock factory
(exact acquisition counts under a thread hammer, plain-lock parity when
disabled), fork safety (held-at-fork events, post-fork lock
re-initialization), and the static/dynamic soundness check.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import concurrency
from repro.analysis.check import _run_injection, run_concurrency_stage
from repro.analysis.lint import lint_source
from repro.obs import locks as locks_mod
from repro.obs.config import ENV_LOCK_WITNESS, lock_witness_enabled
from repro.obs.locks import (
    get_witness,
    make_condition,
    make_lock,
    make_rlock,
    make_striped_locks,
    register_lock_owner,
    reinit_locks_after_fork,
    reset_witness,
)

# ---------------------------------------------------------------------------
# Static pass: synthetic modules
# ---------------------------------------------------------------------------
_CYCLE_SOURCE = '''\
import threading

_A = threading.Lock()
_B = threading.Lock()


def forward():
    with _A:
        with _B:
            return 1


def backward():
    with _B:
        with _A:
            return 2
'''

_CLEAN_SOURCE = '''\
import threading

_A = threading.Lock()
_B = threading.Lock()


def one():
    with _A:
        with _B:
            return 1


def two():
    with _A:
        with _B:
            return 2
'''

_SLEEP_SOURCE = '''\
import threading
import time

_L = threading.Lock()


def refresh():
    with _L:
        time.sleep(0.5)
'''

_FORK_SOURCE = '''\
import os
import threading

_L = threading.Lock()


def spawn():
    with _L:
        os.fork()
'''

_SUPPRESSED_SLEEP_SOURCE = '''\
import threading
import time

_L = threading.Lock()


def refresh():
    with _L:
        time.sleep(0.5)  # noqa: RPRCON02 - startup-only warmup
'''

_INTERPROCEDURAL_SOURCE = '''\
import threading

_A = threading.Lock()
_B = threading.Lock()


def helper_b():
    with _B:
        return 1


def outer_ab():
    with _A:
        return helper_b()


def outer_ba():
    with _B:
        with _A:
            return 2
'''


def _analyze(source, modname="m", roots=()):
    return concurrency.analyze_sources(
        [(modname, "<memory>", source)], extra_roots=roots
    )


def test_two_lock_cycle_is_rprcon01():
    report = _analyze(_CYCLE_SOURCE, roots=["m.forward", "m.backward"])
    codes = {finding.code for finding in report.findings}
    assert codes == {"RPRCON01"}
    assert ("m._A", "m._B") in report.edges
    assert ("m._B", "m._A") in report.edges


def test_consistent_order_is_clean():
    report = _analyze(_CLEAN_SOURCE, roots=["m.one", "m.two"])
    assert report.findings == []
    assert ("m._A", "m._B") in report.edges
    assert ("m._B", "m._A") not in report.edges


def test_sleep_under_lock_is_rprcon02():
    report = _analyze(_SLEEP_SOURCE, roots=["m.refresh"])
    assert [finding.code for finding in report.findings] == ["RPRCON02"]
    assert "time.sleep" in report.findings[0].message
    assert "m._L" in report.findings[0].message


def test_fork_under_lock_is_rprcon03():
    report = _analyze(_FORK_SOURCE, roots=["m.spawn"])
    assert [finding.code for finding in report.findings] == ["RPRCON03"]
    assert "os.fork" in report.findings[0].message


def test_noqa_suppresses_exact_code():
    report = _analyze(_SUPPRESSED_SLEEP_SOURCE, roots=["m.refresh"])
    assert report.findings == []
    assert [finding.code for finding in report.suppressed] == ["RPRCON02"]


def test_interprocedural_cycle_through_helper():
    """A cycle only visible across a call edge: outer_ab holds A and
    calls helper_b (acquires B); outer_ba nests B then A."""
    report = _analyze(
        _INTERPROCEDURAL_SOURCE,
        roots=["m.outer_ab", "m.outer_ba"],
    )
    assert "RPRCON01" in {finding.code for finding in report.findings}


def test_unreachable_code_is_not_analyzed():
    # No roots match the synthetic module: the cycle is dead code.
    report = _analyze(_CYCLE_SOURCE)
    assert report.findings == []


# ---------------------------------------------------------------------------
# Static pass: the real repo
# ---------------------------------------------------------------------------
def test_repo_is_clean_and_locks_discovered():
    report = concurrency.run_concurrency_check()
    assert report.findings == [], [str(f) for f in report.findings]
    for expected in (
        "service.SearchService._lock",
        "obs.flight.FlightRecorder._lock",
        "obs.metrics.MetricsRegistry._lock",
        "obs.metrics._Instrument._lock",
        "obs.tracing.Tracer._lock",
        "parallel.locked.LockedDictEngine._frontier_lock",
        "analysis.writelog.WriteLog._registry_lock",
    ):
        assert expected in report.locks, expected
    assert report.locks["parallel.locked.LockedDictEngine._locks"].kind == (
        "striped"
    )
    # The /statz consistent-snapshot nesting must be predicted.
    assert (
        "service.SearchService._lock",
        "obs.metrics.MetricsRegistry._lock",
    ) in report.edges


def test_check_stage_runs_clean():
    lines = []
    assert run_concurrency_stage(lines.append) == 0
    assert any("0 finding(s)" in line for line in lines)
    assert any("ordering edge(s) observed" in line for line in lines)


def test_inject_deadlock_is_caught():
    lines = []
    assert _run_injection("deadlock", lines.append) == 1
    joined = "\n".join(lines)
    assert "RPRCON01" in joined
    assert "RPRCON02" in joined


# ---------------------------------------------------------------------------
# Witness factory: parity and recording
# ---------------------------------------------------------------------------
def test_disabled_witness_returns_plain_primitives(monkeypatch):
    monkeypatch.delenv(ENV_LOCK_WITNESS, raising=False)
    assert not lock_witness_enabled()
    # Exact-type parity (the REPRO_OBS=0 PhaseTimer pattern): serving
    # must get the interpreter's own lock object, not a wrapper.
    assert type(make_lock("t.plain")) is type(threading.Lock())
    assert type(make_rlock("t.plain")) is type(threading.RLock())
    assert isinstance(make_condition("t.plain"), threading.Condition)
    stripes = make_striped_locks("t.striped", 4)
    assert len(stripes) == 4
    assert all(type(s) is type(threading.Lock()) for s in stripes)


def test_witness_hammer_exact_counts(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()
    outer = make_lock("t.hammer.outer")
    inner = make_lock("t.hammer.inner")
    n_threads, n_iter = 4, 50

    def work(_):
        for _ in range(n_iter):
            with outer:
                with inner:
                    pass

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(work, range(n_threads)))

    total = n_threads * n_iter
    assert witness.acquisition_count("t.hammer.outer") == total
    assert witness.acquisition_count("t.hammer.inner") == total
    assert witness.edges()[("t.hammer.outer", "t.hammer.inner")] == total
    # Consistent ordering: the reverse edge must not exist (no false
    # cycle from the hammer).
    assert ("t.hammer.inner", "t.hammer.outer") not in witness.edges()
    assert witness.max_held >= 2
    assert witness.held_now() == {}


def test_striped_locks_share_one_identity(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()
    stripes = make_striped_locks("t.stripes", 8)
    for stripe in stripes:
        with stripe:
            pass
    assert witness.acquisition_count("t.stripes") == 8
    # Nested distinct stripes are re-entry on the same logical lock:
    # no ordering edge.
    with stripes[0]:
        with stripes[1]:
            pass
    assert ("t.stripes", "t.stripes") not in witness.edges()


def test_locks_created_before_reset_record_to_current_witness(monkeypatch):
    """The witness is resolved per operation, not captured at lock
    construction: module-global locks (default registry, global tracer)
    built before a reset must still feed edges into the new witness."""
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    reset_witness()
    outer = make_lock("t.stale.outer")
    inner = make_lock("t.stale.inner")
    witness = reset_witness()  # both locks predate this witness
    with outer:
        with inner:
            pass
    assert witness.acquisition_count("t.stale.outer") == 1
    assert ("t.stale.outer", "t.stale.inner") in witness.edges()


def test_witnessed_condition_records(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()
    condition = make_condition("t.cond")
    with condition:
        condition.notify_all()
    assert witness.acquisition_count("t.cond") == 1


# ---------------------------------------------------------------------------
# Soundness: observed edges must be statically predicted
# ---------------------------------------------------------------------------
def test_witness_exercise_is_sound():
    witness = concurrency.run_witness_exercise()
    static = concurrency.run_concurrency_check()
    observed = {
        edge
        for edge in witness.edges()
        if edge[0] in static.locks and edge[1] in static.locks
    }
    # The /statz consistent snapshot guarantees at least one real
    # multi-lock ordering (acceptance criterion).
    assert observed, "witnessed exercise saw no multi-lock ordering"
    assert concurrency.verify_witness(witness, static) == []
    assert observed <= set(static.edges)


def test_verify_witness_flags_unpredicted_edge(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()
    # Two locks the static table knows, nested in an order the clean
    # source never exercises.
    static = _analyze(_CLEAN_SOURCE, roots=["m.one", "m.two"])
    lock_b = make_lock("m._B")
    lock_a = make_lock("m._A")
    with lock_b:
        with lock_a:
            pass
    findings = concurrency.verify_witness(witness, static)
    assert [finding.code for finding in findings] == ["RPRCON04"]
    assert "m._B -> m._A" in findings[0].message


def test_verify_witness_ignores_unknown_locks(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()
    static = _analyze(_CLEAN_SOURCE, roots=["m.one", "m.two"])
    with make_lock("test.only.x"):
        with make_lock("test.only.y"):
            pass
    assert concurrency.verify_witness(witness, static) == []


# ---------------------------------------------------------------------------
# Fork safety
# ---------------------------------------------------------------------------
def test_reinit_replaces_registered_locks(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    reset_witness()

    class Owner:
        def __init__(self):
            self._lock = make_lock("t.owner._lock")
            register_lock_owner(self, "_lock")

    owner = Owner()
    old = owner._lock
    old.acquire()  # simulate the parent-side holder
    assert reinit_locks_after_fork() >= 1
    assert owner._lock is not old
    assert owner._lock.name == "t.owner._lock"  # identity preserved
    assert owner._lock.acquire(timeout=1)  # fresh and unlocked
    owner._lock.release()
    old.release()


def test_fresh_lock_like_preserves_flavor(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    reset_witness()
    witnessed = make_lock("t.flavor")
    fresh = locks_mod._fresh_lock_like(witnessed)
    assert type(fresh) is type(witnessed)
    assert fresh.name == "t.flavor"
    monkeypatch.delenv(ENV_LOCK_WITNESS)
    plain = threading.Lock()
    assert type(locks_mod._fresh_lock_like(plain)) is type(plain)
    rlock = threading.RLock()
    assert type(locks_mod._fresh_lock_like(rlock)) is type(rlock)


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="os.fork unavailable on this platform"
)
def test_fork_records_held_locks_and_child_reinits(monkeypatch):
    monkeypatch.setenv(ENV_LOCK_WITNESS, "1")
    witness = reset_witness()

    class Owner:
        def __init__(self):
            self._lock = make_lock("t.fork._lock")
            register_lock_owner(self, "_lock")

    owner = Owner()
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with owner._lock:
            acquired.set()
            release.wait(10)

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    assert acquired.wait(10)
    try:
        pid = os.fork()
        if pid == 0:
            # Child: the holder thread does not exist here. Without the
            # after_in_child re-init this acquire would deadlock on the
            # inherited locked mutex.
            ok = owner._lock.acquire(True, 5)
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        thread.join(10)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    events = witness.held_at_fork_events()
    assert any("t.fork._lock" in event for event in events)


def test_global_tracer_lock_reinit_callback_registered():
    from repro.obs import tracing

    # The module registered a fork callback for _GLOBAL_LOCK; running
    # the child-side re-init must replace it with an unlocked lock.
    tracing._GLOBAL_LOCK.acquire()
    try:
        reinit_locks_after_fork()
        assert tracing._GLOBAL_LOCK.acquire(timeout=1)
        tracing._GLOBAL_LOCK.release()
    finally:
        pass


# ---------------------------------------------------------------------------
# RPR013 lint
# ---------------------------------------------------------------------------
def test_rpr013_flags_function_local_lock():
    violations, _ = lint_source(
        "import threading\n"
        "def f():\n"
        "    lock = threading.Lock()\n"
        "    return lock\n",
        relative_to_package="service.py",
    )
    assert [v.rule for v in violations] == ["RPR013"]


def test_rpr013_allows_attributes_and_module_constants():
    violations, _ = lint_source(
        "import threading\n"
        "_GLOBAL = threading.Lock()\n"
        "class C:\n"
        "    SHARED = threading.RLock()\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n",
        relative_to_package="service.py",
    )
    assert violations == []


def test_rpr013_exempts_lock_factory_module():
    violations, _ = lint_source(
        "import threading\n"
        "def make():\n"
        "    inner = threading.Lock()\n"
        "    return inner\n",
        relative_to_package="obs/locks.py",
    )
    assert violations == []


def test_rpr013_in_rule_catalogue():
    from repro.analysis.lint import RULES

    assert "RPR013" in RULES
    assert "RPRCON01" in concurrency.CONCURRENCY_RULES
