"""Concurrency-contract analyzer tests and the no-fork guard.

Covers the static pass (nested-acquisition / blocking findings on
synthetic modules, a clean real repo with its exact lock inventory),
lint rule RPR013, and the guard that nothing in ``src/repro`` forks a
process.
"""

import ast

from repro.analysis import concurrency
from repro.analysis.check import _run_injection, run_concurrency_stage
from repro.analysis.lint import lint_source, package_root

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
# No fork point
# ---------------------------------------------------------------------------
#: Modules whose import means a process pool or a forked child.
_FORKING_MODULES = ("multiprocessing", "concurrent.futures.process")
#: Names whose use means a process pool or a shared-memory segment.
_FORKING_NAMES = {"ProcessPoolExecutor", "shared_memory"}
#: ``os`` functions that fork or hook a fork.
_OS_FORK_CALLS = {"fork", "register_at_fork"}


def _is_forking_module(name):
    return any(
        name == module or name.startswith(module + ".")
        for module in _FORKING_MODULES
    )


def _fork_points(tree):
    """``(line, what)`` for every fork point in one module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_forking_module(alias.name):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if (
                    _is_forking_module(module)
                    or _is_forking_module(f"{module}.{alias.name}")
                    or alias.name in _FORKING_NAMES
                    or (module == "os" and alias.name in _OS_FORK_CALLS)
                ):
                    yield node.lineno, f"from {module} import {alias.name}"
        elif isinstance(node, ast.Name) and node.id in _FORKING_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            if node.attr in _FORKING_NAMES:
                yield node.lineno, node.attr
            elif (
                node.attr in _OS_FORK_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield node.lineno, f"os.{node.attr}"


def test_fork_points_are_recognised():
    source = (
        "import os\n"
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent.futures import process\n"
        "from multiprocessing import shared_memory\n"
        "from os import register_at_fork\n"
        "os.fork()\n"
        "os.register_at_fork(after_in_child=print)\n"
        "import subprocess, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
    )
    lines = [line for line, _ in _fork_points(ast.parse(source))]
    assert sorted(set(lines)) == [2, 3, 4, 5, 6, 7, 8]


def test_src_has_no_fork_point():
    """Nothing in ``src/repro`` forks a Python child: no process pool,
    no shared-memory segment, no ``os.fork`` and no fork hook. Every
    lock therefore lives in one process, and none needs re-creating in
    a child."""
    root = package_root()
    found = [
        f"{path.relative_to(root).as_posix()}:{line}: {what}"
        for path in sorted(root.rglob("*.py"))
        for line, what in _fork_points(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert found == []


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


def test_rpr013_in_rule_catalogue():
    from repro.analysis.lint import RULES

    assert "RPR013" in RULES
    assert "RPRCON01" in concurrency.CONCURRENCY_RULES
