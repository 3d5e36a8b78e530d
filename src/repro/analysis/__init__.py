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
  env vars, explicit span parents in pool workers, read-only
  store-backed arrays, constant metric names, ...);
* :mod:`~repro.analysis.abi` — the kernel ABI contract verifier: parses
  the exported C prototypes/struct layouts from ``_kernel.c`` and
  ``_smoke.c`` and cross-checks them against the hand-written ctypes
  declarations and the ``.csrstore`` header dtypes (``RPRABI01..``);
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

Everything here is opt-in: nothing in the search path knows it exists.
"""

from .abi import AbiFinding, AbiReport, run_abi_check
from .checked import CheckedBackend, InvariantViolation, InvariantViolationError
from .faulty import FAULT_MODES, FaultyBackend
from .lint import LintReport, LintViolation, lint_source, run_lint

__all__ = [
    "AbiFinding",
    "AbiReport",
    "run_abi_check",
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
