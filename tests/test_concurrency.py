"""Concurrency-contract analyzer and fork-safety tests.

Covers the static pass (nested-acquisition / blocking / fork findings
on synthetic modules, a clean real repo with its exact lock inventory)
and fork safety (post-fork lock re-initialization).
"""

import os
import threading

import pytest

from repro.analysis import concurrency
from repro.analysis.check import _run_injection, run_concurrency_stage
from repro.analysis.lint import lint_source
from repro.obs import locks as locks_mod
from repro.obs.locks import register_lock_owner, reinit_locks_after_fork

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


_BUILTIN_SET_SOURCE = '''\
import threading

_L = threading.Lock()


class Gauge:
    def __init__(self):
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self.value = value


def collect(items):
    with _L:
        return set(items)
'''

_STRIPED_SOURCE = '''\
import threading


class Table:
    def __init__(self):
        self._locks = [threading.Lock() for _ in range(8)]

    def _lock_for(self, key):
        return self._locks[key % 8]

    def put(self, key):
        with self._lock_for(key):
            return key
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


def test_consistent_order_nesting_is_rprcon01():
    """No lock may be acquired while another is held, even in an order
    every path agrees on."""
    report = _analyze(_CLEAN_SOURCE, roots=["m.one", "m.two"])
    assert {finding.code for finding in report.findings} == {"RPRCON01"}
    assert set(report.edges) == {("m._A", "m._B")}
    assert "'m._B' acquired while holding 'm._A'" in report.findings[0].message


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
    # The call-only nesting is a finding on its own, at the call site.
    report = _analyze(_INTERPROCEDURAL_SOURCE, roots=["m.outer_ab"])
    assert [finding.code for finding in report.findings] == ["RPRCON01"]
    assert "through m.helper_b" in report.findings[0].message


def test_bare_builtin_call_does_not_resolve_to_a_method():
    """``set()`` under a lock is the builtin, not ``Gauge.set``: a bare
    name call reaches module-level functions only."""
    report = _analyze(_BUILTIN_SET_SOURCE, roots=["m.collect", "m.Gauge.set"])
    assert set(report.locks) == {"m._L", "m.Gauge._lock"}
    assert report.edges == {}
    assert report.findings == []


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
    assert set(report.locks) == {
        "analysis.writelog.WriteLog._registry_lock",
        "obs.flight.FlightRecorder._lock",
        "obs.locks._OWNERS_MUTEX",
        "obs.metrics.MetricsRegistry._lock",
        "obs.metrics._Instrument._lock",
        "obs.tracing.Tracer._lock",
        "obs.tracing._GLOBAL_LOCK",
        "parallel.locked.LockedDictEngine._central_lock",
        "parallel.locked.LockedDictEngine._frontier_lock",
        "parallel.locked.LockedDictEngine._locks[*]",
        "service.SearchService._lock",
    }
    assert report.locks["parallel.locked.LockedDictEngine._locks[*]"].kind == (
        "striped"
    )
    # No lock in the shell is acquired while another is held.
    assert report.edges == {}


def test_check_stage_runs_clean():
    lines = []
    assert run_concurrency_stage(lines.append) == 0
    assert any(
        "0 held-lock edge(s)" in line and "0 finding(s)" in line
        for line in lines
    )


def test_inject_deadlock_is_caught():
    lines = []
    assert _run_injection("deadlock", lines.append) == 1
    joined = "\n".join(lines)
    assert "RPRCON01" in joined
    assert "RPRCON02" in joined


def test_striped_locks_share_one_identity():
    """A list of locks is one logical lock, and ``self._lock_for(key)``
    resolves to it."""
    report = _analyze(_STRIPED_SOURCE, roots=["m.Table.put"])
    assert set(report.locks) == {"m.Table._locks[*]"}
    assert report.locks["m.Table._locks[*]"].kind == "striped"
    assert report.unresolved_acquisitions == 0
    assert report.findings == []


# ---------------------------------------------------------------------------
# Fork safety
# ---------------------------------------------------------------------------
def test_reinit_replaces_registered_locks():
    class Owner:
        def __init__(self):
            self._lock = threading.Lock()
            register_lock_owner(self, "_lock")

    owner = Owner()
    old = owner._lock
    old.acquire()  # simulate the parent-side holder
    assert reinit_locks_after_fork() >= 1
    assert owner._lock is not old
    assert owner._lock.acquire(timeout=1)  # fresh and unlocked
    owner._lock.release()
    old.release()


def test_fresh_lock_like_preserves_flavor():
    plain = threading.Lock()
    assert type(locks_mod._fresh_lock_like(plain)) is type(plain)
    rlock = threading.RLock()
    assert type(locks_mod._fresh_lock_like(rlock)) is type(rlock)


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="os.fork unavailable on this platform"
)
def test_fork_records_held_locks_and_child_reinits():
    """A parent thread holds a registered lock across ``os.fork``; the
    child must still acquire it."""

    class Owner:
        def __init__(self):
            self._lock = threading.Lock()
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
        assert owner._lock.locked()
        pid = os.fork()
        if pid == 0:
            # Child: the holder thread does not exist here. Without the
            # after_in_child re-init this acquire would time out on the
            # inherited locked mutex.
            ok = owner._lock.acquire(True, 5)
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        thread.join(10)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


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
