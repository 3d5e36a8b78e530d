"""Static and dynamic analysis for the lock-free search engine.

The paper's central performance claim rests on a correctness claim:
racing writes during parallel expansion are benign because they are
idempotent (Theorem V.2). This package turns that claim — and the
repo-specific coding contracts that protect it — into machine checks:

* :mod:`~repro.analysis.checked` — :class:`CheckedBackend`, a drop-in
  wrapper that checks every bottom-up level against the invariants the
  lock-free design needs (write-once, level stamp, hit flags, frontier
  drain, Central-Node identification, finite-count accounting) from
  the level's delta on the shared state;
* :mod:`~repro.analysis.lint` — AST lint rules ``RPR001``–``RPR012``
  encoding the repo's contracts (no locks / Python per-edge loops in
  ``@hot_path`` kernels, int64 fancy-index dtype, registered ``REPRO_*``
  env vars, read-only store-backed arrays, constant metric names, ...);
* :mod:`~repro.analysis.sanitize` — ASan/UBSan wiring for the compiled
  kernel tier (``REPRO_SANITIZE=address,undefined``) plus the TSan race
  tier: an instrumented pthread harness racing the real kernel under
  the audited Theorem V.2 suppression list;
* :mod:`~repro.analysis.faulty` — deliberately broken backends that
  prove the checker fires;
* :mod:`~repro.analysis.check` — the ``repro check`` gate combining all
  of the above.

The serving shell's locks (no lock acquired while another is held, no
blocking call under a lock) are checked dynamically by the
recording-lock test in ``tests/test_service.py``; ``docs/ANALYSIS.md``
has the seeded-fault matrix that decides which detector stays.

The kernel's ABI needs no checker here: ``_kernel.c`` and the TSan
harness are compiled against the header rendered from
:data:`repro.parallel._native.KERNEL_EXPORTS`, the table the ctypes
declarations derive from, so the compiler rejects any drift between
them.

Everything here is opt-in: nothing in the search path knows it exists.
"""

from .checked import CheckedBackend, InvariantViolation, InvariantViolationError
from .faulty import FAULT_MODES, FaultyBackend
from .lint import LintReport, LintViolation, lint_source, run_lint

__all__ = [
    "CheckedBackend",
    "InvariantViolation",
    "InvariantViolationError",
    "FAULT_MODES",
    "FaultyBackend",
    "LintReport",
    "LintViolation",
    "lint_source",
    "run_lint",
]
