"""`repro check` — the repo's static + dynamic analysis gate.

One command that answers "did we break the lock-free design?" four
ways:

1. **lint** — the repo-specific AST rules (:mod:`repro.analysis.lint`)
   over ``src`` plus — with per-directory rule allowlists
   (:data:`LINT_TREES`) — ``tests/`` and ``benchmarks/``.
2. **invariants** — a cross-backend fuzz where every parallel backend
   runs wrapped in :class:`~repro.analysis.checked.CheckedBackend` and
   must (a) violate nothing and (b) stay bitwise identical to the
   sequential oracle; plus a self-validation pass proving the checker
   *does* fire on each :data:`~repro.analysis.faulty.FAULT_MODES` class.
3. **sanitizers** — the compiled kernel tier rebuilt under ASan/UBSan
   (:mod:`repro.analysis.sanitize`) running the parity fuzz, plus the
   **TSan race tier**: an instrumented harness racing real pthreads
   through the kernel under the audited Theorem V.2 suppression list.
   A host without the toolchain prints ``SKIP`` for them (CI asserts it
   does not).
4. **external** — ``ruff`` / ``mypy`` with the configuration in
   ``pyproject.toml``, run only when installed (they are optional dev
   dependencies; the AST lint above carries the repo-specific load).

``--inject {lint,abi,race,sanitizer}`` seeds one
violation of the chosen class so CI and tests can prove the gate
actually gates: exit code 1 means the seeded violation was caught (the
expected outcome), 2 means the gate failed to catch it.

The kernel's ABI is not a stage: ``_kernel.c`` is compiled against the
header rendered from :data:`repro.parallel._native.KERNEL_EXPORTS`, so
the build itself rejects a drifted definition. ``--inject abi`` shows
it, on a header whose ``fused_expand`` CSR types are swapped.

The serving shell's locks are not a stage: the recording-lock test in
``tests/test_service.py`` drives every lock ``src/repro`` constructs and
fails on a nested acquisition or a blocking call under a lock
(``docs/ANALYSIS.md`` has the seeded-fault matrix behind that choice).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import lint as lint_mod
from . import sanitize as sanitize_mod
from ..parallel import _native
from .checked import CheckedBackend
from .faulty import FAULT_MODES, FaultyBackend

PrintFn = Callable[[str], None]

#: Injection classes `--inject` accepts (one seeded fault per class).
INJECT_CLASSES = ("lint", "abi", "race", "sanitizer")

#: Extra lint trees (relative to the repo root) and the rule ids waived
#: per tree. Test helpers may keep deliberate mutable defaults (RPR007)
#: — fixtures built once per call are the idiom there; benchmarks get no
#: waivers (they feed the figures, so the full discipline applies).
LINT_TREES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("tests", ("RPR007", "RPR012")),
    ("benchmarks", ()),
)

#: A hot-path snippet breaking several rules at once, used by
#: ``repro check --inject lint`` to prove the lint stage gates.
_INJECTED_LINT_SNIPPET = '''\
import threading
import numpy as np
from repro.instrumentation import hot_path

@hot_path
def bad_kernel(graph, chunk, q):
    lock = threading.Lock()
    indices = graph.adj.indices.astype(np.int64)
    for node in chunk:
        with lock:
            pass
    return indices

def bad_metrics(registry, field):
    registry.counter(f"repro_{field}_total", "oops").inc()
'''


def _fuzz_case(seed: int):
    """A small hub-heavy KB plus a random search problem (mirrors the
    fused-kernel fuzz population in ``tests/test_fused_kernel.py``)."""
    from ..core.activation import activation_levels
    from ..core.weights import node_weights
    from ..graph.generators import WikiKBConfig, wiki_like_kb

    config = WikiKBConfig(
        name=f"check-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    q = 2 + seed % 7
    rng = np.random.default_rng(seed * 31 + 7)
    n = graph.n_nodes
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 6))))
        for _ in range(q)
    ]
    if seed % 2:
        activation = activation_levels(node_weights(graph), 3.0, 0.1)
    else:
        activation = np.zeros(n, dtype=np.int32)
    k = int(rng.integers(1, 12))
    return graph, sets, activation, k


def _run(backend, graph, sets, activation, k):
    from ..core.bottom_up import BottomUpSearch

    with backend:
        return BottomUpSearch(graph, backend=backend).run(sets, activation, k)


def _contenders() -> Iterable[Tuple[str, Callable[[], object]]]:
    from ..parallel import ThreadPoolBackend, VectorizedBackend

    yield "threads", lambda: ThreadPoolBackend(n_threads=3)
    yield "threads-fine", lambda: ThreadPoolBackend(
        n_threads=8, chunks_per_thread=16
    )
    yield "vectorized", VectorizedBackend


def run_invariant_fuzz(
    seeds: Sequence[int] = (0, 1, 2, 3),
    print_fn: Optional[PrintFn] = None,
) -> int:
    """Checked cross-backend fuzz; returns the number of failures."""
    from ..parallel import SequentialBackend

    emit = print_fn or (lambda message: None)
    failures = 0
    for seed in seeds:
        graph, sets, activation, k = _fuzz_case(seed)
        reference = _run(
            CheckedBackend(SequentialBackend()), graph, sets, activation, k
        )
        for name, factory in _contenders():
            checked = CheckedBackend(factory())
            try:
                result = _run(checked, graph, sets, activation, k)
            except AssertionError as exc:
                emit(f"  FAIL seed {seed} {name}: {exc}")
                failures += 1
                continue
            if not np.array_equal(result.state.matrix, reference.state.matrix):
                emit(f"  FAIL seed {seed} {name}: M diverged from sequential")
                failures += 1
            elif sorted(result.central_nodes) != sorted(
                reference.central_nodes
            ):
                emit(f"  FAIL seed {seed} {name}: central nodes diverged")
                failures += 1
            else:
                emit(
                    f"  ok seed {seed} {name}: "
                    f"{checked.levels_checked} level(s) verified"
                )
    return failures


# ---------------------------------------------------------------------------
# Tail-guard corpus: the kernels' lane-word row reads at the end of M
# ---------------------------------------------------------------------------
#: Node counts of the tail-guard corpus, crossed with q = 1..8 (one lane
#: word) and :data:`TAIL_GUARD_WIDE_Q`. For n in {1, 2, 3} most q give
#: n*q < 8 words, where *no* row can be read a full row of words wide;
#: the larger graphs have both guarded and unguarded rows.
TAIL_GUARD_SIZES = (1, 2, 3, 5, 12, 40)

#: The q past one lane word: two words (9, 15, 16), three (17, 24) and
#: eight (57, 63, 64), each with and without pad lanes in the last word
#: (15 and 63 leave one pad lane, the fewest).
TAIL_GUARD_WIDE_Q = (9, 15, 16, 17, 24, 57, 63, 64)


def tail_guard_cases() -> "list[Tuple[int, int]]":
    """Every ``(n, q)`` of the tail-guard corpus."""
    return [
        (n, q)
        for n in TAIL_GUARD_SIZES
        for q in (*range(1, 9), *TAIL_GUARD_WIDE_Q)
    ]


def _tail_guard_case(n: int, q: int):
    """A graph whose highest-id nodes are hubs *and* keyword sources.

    The last rows of M (``ceil(8 / q)`` of them for q ≤ 8, one or two
    past that) are the ones whose last lane word would leave the
    buffer; making those nodes hubs means they are read
    on almost every edge, and seeding each keyword at one of them (plus
    a random node) means they are written too. ``k`` exceeds ``n`` so
    the search runs until the frontier drains.
    """
    from ..graph.builder import GraphBuilder

    rng = np.random.default_rng(n * 8 + q)
    builder = GraphBuilder()
    for node in range(n):
        builder.add_node(f"node {node}")
    hubs = list(range(max(0, n - 9), n))
    for hub in hubs:
        for other in range(n):
            if other != hub and rng.random() < 0.6:
                builder.add_edge(other, hub, "r")
    for node in range(1, n):
        builder.add_edge(node - 1, node, "r")
    graph = builder.build()
    sets = [
        np.unique([hubs[(column * 3) % len(hubs)], int(rng.integers(0, n))])
        for column in range(q)
    ]
    if (n + q) % 2:
        # Late-activating nodes put the blocked/retry protocol (Algorithm
        # 2 line 18-20) on the tail rows as well.
        activation = rng.integers(0, 4, size=n).astype(np.int32)
    else:
        activation = np.zeros(n, dtype=np.int32)
    return graph, sets, activation, n + 1


def _guarded_copy(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` in exactly ``matrix.nbytes`` bytes that end flush
    against an unreadable page, so a read past M faults instead of
    quietly returning what the allocator left there. Hosts without
    ``mprotect`` get a plain exact-size copy (ASan's redzone still
    guards that one)."""
    import ctypes
    import mmap

    page = mmap.PAGESIZE
    span = -(-max(matrix.nbytes, 1) // page) * page
    region = mmap.mmap(-1, span + page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(region))
    try:
        libc = ctypes.CDLL(None)
        failed = libc.mprotect(
            ctypes.c_void_p(base + span), ctypes.c_size_t(page), 0
        )
    except (OSError, AttributeError):
        failed = -1
    if failed:
        return matrix.copy()
    guarded = np.frombuffer(
        region, dtype=np.uint8, count=matrix.size, offset=span - matrix.nbytes
    ).reshape(matrix.shape)
    guarded[...] = matrix
    return guarded


def _level_snapshots(
    backend, graph, sets, activation, k, guarded: bool = False
) -> "list[tuple]":
    """Run the bottom-up levels on ``backend``; after each one snapshot
    ``(M, FIdentifier, finite_count, Central Nodes)``."""
    from ..core.state import INFINITE_LEVEL, SearchState
    from ..instrumentation import PhaseTimer

    state = SearchState.initialize(graph.n_nodes, sets, activation)
    if guarded:
        state.matrix = _guarded_copy(state.matrix)
    timer = PhaseTimer()
    snapshots = []
    with backend:
        # k > n and n <= 40: the frontier drains long before level 254.
        for level in range(INFINITE_LEVEL - 1):
            outcome = backend.run_level(graph, state, level, k, True, timer)
            snapshots.append(
                (
                    state.matrix.tobytes(),
                    state.f_identifier.tobytes(),
                    state.finite_count.tobytes(),
                    sorted(state.central_nodes),
                )
            )
            if not outcome.expanded:
                break
    return snapshots


def check_tail_guard_case(n: int, q: int) -> "list[str]":
    """One tail-guard case: ``whole_level_step`` and ``fused_expand``
    (one chunk, and three racing threads) against ``SequentialBackend``,
    level by level, on a guard-paged M and on a plain one.

    Returns the routes that diverged (empty = bit-identical).
    """
    from ..parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend

    graph, sets, activation, k = _tail_guard_case(n, q)
    want = _level_snapshots(SequentialBackend(), graph, sets, activation, k)
    routes = {
        "whole-level": VectorizedBackend,
        "fused-one-chunk": lambda: ThreadPoolBackend(n_threads=1),
        "fused-threads": lambda: ThreadPoolBackend(n_threads=3),
    }
    diverged = []
    for name, factory in routes.items():
        for guarded in (True, False):
            got = _level_snapshots(
                factory(), graph, sets, activation, k, guarded=guarded
            )
            if got != want:
                diverged.append(f"{name}{' (guard page)' if guarded else ''}")
    return diverged


def run_tail_guard_fuzz(print_fn: Optional[PrintFn] = None) -> int:
    """The whole tail-guard corpus; returns the number of failed cases."""
    emit = print_fn or (lambda message: None)
    failures = 0
    for n, q in tail_guard_cases():
        diverged = check_tail_guard_case(n, q)
        if diverged:
            emit(f"  FAIL tail guard n={n} q={q}: {', '.join(diverged)}")
            failures += 1
    return failures


def run_faulty_validation(print_fn: Optional[PrintFn] = None) -> int:
    """The checker must fire on every injected fault class."""
    emit = print_fn or (lambda message: None)
    failures = 0
    graph, sets, activation, k = _fuzz_case(2)
    for mode in FAULT_MODES:
        faulty = FaultyBackend(mode=mode)
        checked = CheckedBackend(faulty, raise_on_violation=False)
        _run(checked, graph, sets, activation, k)
        if faulty.faults_injected and checked.violations:
            kinds = sorted({v.invariant for v in checked.violations})
            emit(f"  ok fault '{mode}' detected as {kinds}")
        elif not faulty.faults_injected:
            emit(f"  FAIL fault '{mode}' could not be injected")
            failures += 1
        else:
            emit(f"  FAIL fault '{mode}' went UNDETECTED")
            failures += 1
    return failures


def _run_external(tool: str, args: Sequence[str], emit: PrintFn) -> int:
    """Run an optional external tool if installed; 0 when absent."""
    if shutil.which(tool) is None:
        emit(f"  {tool}: not installed, skipped (optional dev dependency)")
        return 0
    result = subprocess.run(
        [tool, *args],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if result.returncode == 0:
        emit(f"  {tool}: clean")
        return 0
    tail = (result.stdout + result.stderr).strip().splitlines()[-20:]
    for line in tail:
        emit(f"  {tool}: {line}")
    return 1


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent.parent


def run_lint_stage(emit: PrintFn) -> int:
    """Stage 1: the AST lint over ``src`` plus the allowlisted trees."""
    failures = 0
    report = lint_mod.run_lint()
    for violation in report.violations:
        emit(f"  {violation}")
    emit(
        f"  src: {len(report.violations)} violation(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.files_checked} file(s)"
    )
    failures += len(report.violations)
    root = _repo_root()
    for tree, allow in LINT_TREES:
        tree_path = root / tree
        if not tree_path.is_dir():
            emit(f"  {tree}/: not present, skipped")
            continue
        tree_report = lint_mod.run_lint(tree_path, allow=allow)
        for violation in tree_report.violations:
            emit(f"  {violation}")
        waived = f", {len(tree_report.allowed)} allowed" if allow else ""
        emit(
            f"  {tree}/: {len(tree_report.violations)} violation(s)"
            f"{waived} (allowlist: {sorted(allow) or 'none'}), "
            f"{tree_report.files_checked} file(s)"
        )
        failures += len(tree_report.violations)
    return failures


def run_sanitizer_stage(emit: PrintFn) -> int:
    """Stage 3: ASan/UBSan parity, then the TSan race tier."""
    failures = 0
    for name, result in (
        ("parity", sanitize_mod.run_parity()),
        ("tsan", sanitize_mod.run_tsan_parity()),
    ):
        if result.skipped:
            emit(f"  {name}: SKIP ({result.detail})")
        elif result.ok:
            emit(f"  {name}: ok — {result.detail.splitlines()[-1]}")
        else:
            emit(f"  {name}: FAIL")
            emit("  " + result.detail.replace("\n", "\n  "))
            failures += 1
    return failures


def run_check(
    inject: Optional[str] = None,
    skip_sanitize: bool = False,
    skip_fuzz: bool = False,
    fuzz_seeds: Sequence[int] = (0, 1, 2, 3),
    print_fn: PrintFn = print,
) -> int:
    """The full gate; returns a process exit code.

    0 = everything clean. 1 = violations found (including the expected
    outcome of ``--inject``). 2 = an injection was requested but the
    gate failed to catch it.
    """
    emit = print_fn
    if inject is not None:
        return _run_injection(inject, emit)

    failures = 0

    emit("[1/4] repo-specific lint (RPR001-RPR012; src, tests, benchmarks)")
    failures += run_lint_stage(emit)

    if skip_fuzz:
        emit("[2/4] lock-free invariant fuzz: skipped")
    else:
        emit("[2/4] lock-free invariant fuzz (CheckedBackend, all backends)")
        failures += run_invariant_fuzz(seeds=fuzz_seeds, print_fn=emit)
        emit("  checker self-validation (FaultyBackend)")
        failures += run_faulty_validation(print_fn=emit)

    if skip_sanitize:
        emit("[3/4] sanitized kernel tier: skipped")
    else:
        emit("[3/4] sanitized kernel tier (ASan/UBSan subprocess + TSan harness)")
        failures += run_sanitizer_stage(emit)

    emit("[4/4] external linters (optional)")
    root = _repo_root()
    failures += _run_external("ruff", ["check", str(root / "src")], emit)
    failures += _run_external(
        "mypy",
        ["--config-file", str(root / "pyproject.toml"),
         str(root / "src" / "repro" / "parallel"),
         str(root / "src" / "repro" / "obs")],
        emit,
    )

    emit("PASS" if failures == 0 else f"FAIL ({failures} finding(s))")
    return 0 if failures == 0 else 1


def _swapped_csr_types(exports: _native.Exports) -> _native.Exports:
    """``exports`` with ``fused_expand``'s ``indptr`` and ``indices``
    types swapped: an edit that widened one side of the CSR alone."""
    restype, params = exports["fused_expand"]
    types = dict(params)
    swap = {"indptr": "indices", "indices": "indptr"}
    drifted = tuple((name, types[swap.get(name, name)]) for name, _ in params)
    return {**exports, "fused_expand": (restype, drifted)}


def _run_injection(inject: str, emit: PrintFn) -> int:
    """Seed one violation of the chosen class; 1 = caught, 2 = missed."""
    if inject == "lint":
        emit("injecting a hot-path lint violation snippet")
        violations, _ = lint_mod.lint_source(
            _INJECTED_LINT_SNIPPET, path="<injected>"
        )
        for violation in violations:
            emit(f"  {violation}")
        rules = {violation.rule for violation in violations}
        expected = {"RPR001", "RPR002", "RPR003", "RPR012"}
        if expected <= rules:
            emit(f"caught: seeded rules {sorted(expected)} all fired")
            return 1
        emit(f"MISSED: only {sorted(rules)} fired, expected {sorted(expected)}")
        return 2
    if inject == "abi":
        emit("injecting a swap of fused_expand's indptr / indices types "
             "into the kernel's declaration")
        with tempfile.TemporaryDirectory(prefix="repro-abi-") as tmp:
            header = _native.write_header(
                _swapped_csr_types(_native.KERNEL_EXPORTS), Path(tmp), "kernel"
            )
            diagnostic = _native.syntax_errors(_native._SOURCE_PATH, header)
        emit("  " + diagnostic.replace("\n", "\n  "))
        if "fused_expand" in diagnostic:
            emit("caught: the compiler rejected the drifted declaration")
            return 1
        emit("MISSED: the kernel compiled against the drifted declaration")
        return 2
    if inject == "race":
        emit("injecting a non-idempotent racing write (FaultyBackend)")
        graph, sets, activation, k = _fuzz_case(2)
        faulty = FaultyBackend(mode="non-idempotent")
        checked = CheckedBackend(faulty, raise_on_violation=False)
        _run(checked, graph, sets, activation, k)
        for violation in checked.violations:
            emit(f"  {violation}")
        if not (faulty.faults_injected and checked.violations):
            emit("MISSED: seeded race went undetected by CheckedBackend")
            return 2
        emit("caught: CheckedBackend reported the seeded race")
        if sanitize_mod.toolchain_available(sanitize_mod.THREAD_SELECTION):
            emit("injecting a non-suppressed data race (TSan harness)")
            tsan = sanitize_mod.run_tsan_inject()
            emit("  " + tsan.detail.replace("\n", "\n  "))
            if not tsan.ok:
                emit("MISSED: TSan did not report the seeded race")
                return 2
            emit("caught: TSan reported the seeded race")
        else:
            emit("TSan toolchain unavailable: CheckedBackend half only")
        return 1
    if inject == "sanitizer":
        emit("injecting an out_keys one cell short into fused_expand")
        if not sanitize_mod.toolchain_available():
            emit("sanitizer toolchain unavailable: cannot run the injection")
            return 2
        result = sanitize_mod.run_parity(inject=True)
        emit("  " + result.detail.replace("\n", "\n  "))
        if result.ok:
            emit("caught: ASan aborted in fused_expand on the seeded overflow")
            return 1
        emit("MISSED: the seeded overflow was not caught")
        return 2
    emit(f"unknown injection class {inject!r}")
    return 2


if __name__ == "__main__":
    sys.exit(run_check())
