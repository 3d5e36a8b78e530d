"""Static and dynamic analysis for the lock-free search engine.

The paper's central performance claim rests on a correctness claim:
racing writes during parallel expansion are benign because they are
idempotent (Theorem V.2). This package turns that claim — and the
repo-specific coding contracts that protect it — into machine checks:

* :mod:`~repro.analysis.checked` — :class:`CheckedBackend`, a drop-in
  wrapper verifying the lock-free write invariants (write-once,
  level-stamp, idempotent races, frontier monotonicity, finite-count
  accounting) after every expansion level via shadow-memory write logs;
* :mod:`~repro.analysis.writelog` — the per-thread, lock-free
  :class:`WriteLog` kernels fill in when a checker is attached;
* :mod:`~repro.analysis.lint` — AST lint rules ``RPR001``–``RPR013``
  encoding the repo's contracts (no locks / Python per-edge loops in
  ``@hot_path`` kernels, int64 fancy-index dtype, registered ``REPRO_*``
  env vars, explicit span parents in pool workers, read-only
  store-backed arrays, kernel-binding set equality, ...);
* :mod:`~repro.analysis.abi` — the kernel ABI contract verifier: parses
  the exported C prototypes/struct layouts from ``_kernel.c`` and
  ``_smoke.c`` and cross-checks them against the hand-written ctypes
  declarations and the ``.csrstore`` header dtypes (``RPRABI01..``);
* :mod:`~repro.analysis.sanitize` — ASan/UBSan wiring for the compiled
  kernel tier (``REPRO_SANITIZE=address,undefined``) plus the TSan race
  tier: an instrumented pthread harness racing the real kernel under
  the audited Theorem V.2 suppression list;
* :mod:`~repro.analysis.schedules` — the schedule-exploration checker:
  a deterministic virtual scheduler replaying the thread-pool chunk
  protocol under permuted/adversarial chunk orders (exhaustive on small
  fixtures) and demanding bitwise-identical results on every schedule;
* :mod:`~repro.analysis.concurrency` — the concurrency-contract
  analyzer for the *serving shell around* the lock-free engine: an
  interprocedural pass over every discovered lock enforcing that no
  lock is acquired while another is held (``RPRCON01``), plus
  ``RPRCON02`` blocking-under-lock;
* :mod:`~repro.analysis.faulty` — deliberately broken backends that
  prove the checker fires;
* :mod:`~repro.analysis.check` — the ``repro check`` gate combining all
  of the above.

Everything here is opt-in: an unwrapped backend pays a single
``is not None`` branch per kernel call and allocates nothing.
"""

from .abi import AbiFinding, AbiReport, run_abi_check
from .checked import CheckedBackend, InvariantViolation, InvariantViolationError
from .concurrency import (
    CONCURRENCY_RULES,
    ConcurrencyFinding,
    ConcurrencyReport,
    LockDef,
    run_concurrency_check,
)
from .faulty import FAULT_MODES, FaultyBackend
from .lint import LintReport, LintViolation, lint_source, run_lint
from .schedules import (
    ScheduleFinding,
    ScheduleReport,
    VirtualScheduleBackend,
    explore_schedules,
    run_schedule_check,
)
from .writelog import WriteBatch, WriteLog

__all__ = [
    "AbiFinding",
    "AbiReport",
    "run_abi_check",
    "CheckedBackend",
    "InvariantViolation",
    "InvariantViolationError",
    "CONCURRENCY_RULES",
    "ConcurrencyFinding",
    "ConcurrencyReport",
    "LockDef",
    "run_concurrency_check",
    "FAULT_MODES",
    "FaultyBackend",
    "LintReport",
    "LintViolation",
    "lint_source",
    "run_lint",
    "ScheduleFinding",
    "ScheduleReport",
    "VirtualScheduleBackend",
    "explore_schedules",
    "run_schedule_check",
    "WriteBatch",
    "WriteLog",
]
