"""Sanitizer wiring for the compiled kernel tier.

``REPRO_SANITIZE=address,undefined`` makes
:mod:`repro.parallel._native` compile ``_kernel.c`` with
``-fsanitize=...`` into its own cached shared object. Loading an
ASan-instrumented library into a non-ASan Python has two wrinkles this
module owns:

* the ASan runtime must be the **first** library in the process, so the
  instrumented ``.so`` cannot be dlopen'd into the current interpreter —
  every sanitized run is a **subprocess** started with
  ``LD_PRELOAD=<libasan.so>`` (located via ``cc -print-file-name``);
* the preloaded runtime then leak-checks the Python interpreter itself
  at exit, so ``ASAN_OPTIONS=detect_leaks=0`` is required.

Entry points:

* :func:`run_parity` — runs the cross-backend parity fuzz from
  :mod:`repro.analysis.check` in a sanitized subprocess with the
  sanitized native kernel loaded; a clean run is also the proof that
  the sanitized kernel builds and loads. With ``inject=True`` the child
  instead calls the real ``fused_expand`` with an ``out_keys`` one cell
  too short for the cells it claims, and the sanitizer must *abort*
  inside the kernel: proof the wiring is armed on the shipped code, not
  silently uninstrumented.
* ``python -m repro.analysis.sanitize --parity|--inject`` — the
  child-process driver it spawns.

The **ThreadSanitizer tier** (``REPRO_SANITIZE=thread``) works
differently: TSan's runtime must own the process from the very first
allocation, so — unlike ASan — it cannot be LD_PRELOADed into an
uninstrumented Python (it segfaults at interpreter startup). The race
tier therefore compiles ``_tsan_harness.c`` *together with the real
``_kernel.c``* into a fully instrumented executable that replays the
``ThreadPoolBackend`` chunk-per-thread level protocol with genuine
pthreads racing on the shared ``M``/``FIdentifier`` arrays:

* :func:`run_tsan_parity` — runs the harness under the curated
  suppression list (:data:`THEOREM_V2_SUPPRESSIONS`, naming exactly the
  Theorem V.2 idempotent write sites), fails on any *new* race report,
  and compares the racing result bitwise against ``SequentialBackend``'s
  per-node body (:func:`~repro.parallel.sequential.expand_frontier_chunk`)
  run level by level under the harness's protocol;
* :func:`run_tsan_inject` — the harness's deliberately non-idempotent
  racing write (in a function no suppression names); TSan must report
  it, proving the tier is armed;
* :func:`audit_suppressions` — every suppression entry must name an
  exported kernel symbol and cite the Theorem V.2 site it covers; a
  blanket or unmapped suppression fails ``repro check``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.config import ENV_SANITIZE
from ..parallel import _native

#: Default selection for `repro check` and CI.
DEFAULT_SELECTION = ("address", "undefined")

#: The race tier's selection (compiled into the harness executable).
THREAD_SELECTION = ("thread",)

_HARNESS_SOURCE = Path(__file__).with_name("_tsan_harness.c")
_KERNEL_SOURCE = (
    Path(__file__).resolve().parent.parent / "parallel" / "_kernel.c"
)
_BUILD_DIR = Path(__file__).with_name("_build")

#: The curated TSan suppression list: ``(suppression, citation)`` pairs.
#: Policy (enforced by :func:`audit_suppressions` on every run): each
#: entry must be a plain ``race:<symbol>`` naming an **exported kernel
#: symbol**, and its citation must identify the Theorem V.2 idempotent
#: write site it covers. Nothing else may be suppressed — any other
#: report is a *new* race and fails the check.
THEOREM_V2_SUPPRESSIONS: "Tuple[Tuple[str, str], ...]" = (
    (
        "race:fused_expand",
        "Theorem V.2 idempotent stores in _kernel.c fused_expand: racing "
        "chunks store the same constants matrix[v*q+c] = next_level and "
        "fid[v] = 1 as byte stores (plus the benign live 8-byte lane-word "
        "row reads that dedup scatter targets; when 8 does not divide q "
        "the last word also covers bytes of the next row, which the "
        "eligibility words mask off before any use).",
    ),
)


@dataclass(frozen=True)
class SanitizeResult:
    """Outcome of one sanitized subprocess run.

    Attributes:
        ok: the run met expectations (clean run passed, or an injected
            fault was caught).
        detail: the tail of the child's combined output.
        skipped: the toolchain is unavailable; nothing ran.
        sanitizer_report: a sanitizer error report appeared anywhere in
            the child's output.
    """

    ok: bool
    detail: str
    skipped: bool = False
    sanitizer_report: bool = False


def _runtime_library(name: str) -> Optional[str]:
    """Locate a sanitizer runtime (e.g. ``libasan.so``) via the first
    compiler of :func:`~repro.parallel._native._compilers` that runs —
    the one that builds the sanitized kernel."""
    for compiler in _native._compilers():
        try:
            result = subprocess.run(
                [compiler, f"-print-file-name={name}"],
                capture_output=True,
                text=True,
                timeout=30,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        path = result.stdout.strip()
        # When the file is unknown the compiler echoes the bare name back.
        if path and path != name and Path(path).exists():
            return path
        return None
    return None


def toolchain_available(selection: Tuple[str, ...] = DEFAULT_SELECTION) -> bool:
    """Can this host build and preload the requested sanitizers? A
    compiler runs and knows the runtime of each one."""
    if "address" in selection and _runtime_library("libasan.so") is None:
        return False
    if "thread" in selection and _runtime_library("libtsan.so") is None:
        return False
    return any(shutil.which(name) for name in _native._compilers())


def sanitized_env(
    selection: Tuple[str, ...] = DEFAULT_SELECTION,
) -> Dict[str, str]:
    """Child-process environment for a sanitized run.

    Sets ``REPRO_SANITIZE``, preloads the ASan runtime when requested,
    disables the (Python-interpreter-wide) leak check, and makes the
    ``repro`` package importable.
    """
    env = dict(os.environ)
    env[ENV_SANITIZE] = ",".join(selection)
    env["ASAN_OPTIONS"] = "detect_leaks=0:abort_on_error=0:exitcode=99"
    src_dir = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    preload: List[str] = []
    if "address" in selection:
        libasan = _runtime_library("libasan.so")
        if libasan:
            preload.append(libasan)
    if "undefined" in selection:
        libubsan = _runtime_library("libubsan.so")
        if libubsan:
            preload.append(libubsan)
    if preload:
        existing_preload = env.get("LD_PRELOAD")
        if existing_preload:
            preload.append(existing_preload)
        env["LD_PRELOAD"] = os.pathsep.join(preload)
    return env


def _spawn(args: List[str], selection: Tuple[str, ...]) -> SanitizeResult:
    """Run the child driver in a sanitized environment."""
    cmd = [sys.executable, "-m", "repro.analysis.sanitize", *args]
    try:
        result = subprocess.run(
            cmd,
            env=sanitized_env(selection),
            capture_output=True,
            text=True,
            timeout=600,
            check=False,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return SanitizeResult(ok=False, detail=f"failed to spawn child: {exc}")
    combined = result.stdout + result.stderr
    lines = combined.strip().splitlines()
    # Where a report fired — its stack frames in the kernel and its
    # one-line summary — sits above the shadow map that fills the tail.
    kernel_frame = f"{_KERNEL_SOURCE.name}:"
    summary = [
        line.strip()
        for line in lines[:-12]
        if line.startswith("SUMMARY:")
        or (line.lstrip().startswith("#") and kernel_frame in line)
    ]
    # ASAN_OPTIONS pins exitcode=99 for sanitizer aborts; UBSan prints
    # "runtime error" without necessarily failing the process.
    reported = (
        result.returncode == 99
        or "AddressSanitizer" in combined
        or "runtime error" in combined
    )
    return SanitizeResult(
        ok=result.returncode == 0,
        detail="\n".join(summary + lines[-12:]),
        sanitizer_report=reported,
    )


def run_parity(
    selection: Tuple[str, ...] = DEFAULT_SELECTION, inject: bool = False
) -> SanitizeResult:
    """Cross-backend parity fuzz under the sanitized native kernel.

    With ``inject=True`` the child runs the seeded overflow in
    ``fused_expand`` instead, and ``ok`` means the sanitizer aborted it.
    The caller still treats the injected run as a seeded failure — this
    function reports whether the wiring behaved as commanded.
    """
    if not toolchain_available(selection):
        return SanitizeResult(
            ok=True, detail="sanitizer toolchain unavailable", skipped=True
        )
    if not inject:
        return _spawn(["--parity"], selection)
    result = _spawn(["--inject"], selection)
    caught = (
        not result.ok
        and result.sanitizer_report
        and " in fused_expand " in result.detail
    )
    return SanitizeResult(
        ok=caught,
        detail=result.detail
        if caught
        else "the overflow in fused_expand was NOT caught:\n" + result.detail,
        sanitizer_report=result.sanitizer_report,
    )


# ---------------------------------------------------------------------------
# ThreadSanitizer race tier (instrumented harness executable)
# ---------------------------------------------------------------------------
def declared_idempotent_sites() -> "Tuple[str, ...]":
    """Kernel symbols whose racing writes are declared benign."""
    return tuple(
        entry.split(":", 1)[1] for entry, _ in THEOREM_V2_SUPPRESSIONS
    )


def audit_suppressions() -> List[str]:
    """Validate the suppression list against the policy; returns
    problems (empty = every entry maps to a declared idempotent site).
    """
    problems: List[str] = []
    pattern = re.compile(r"race:[A-Za-z_][A-Za-z0-9_]*\Z")
    for entry, citation in THEOREM_V2_SUPPRESSIONS:
        if not pattern.fullmatch(entry):
            problems.append(
                f"suppression {entry!r} is not a plain race:<symbol> entry "
                "(wildcards/blankets are banned)"
            )
            continue
        symbol = entry.split(":", 1)[1]
        if symbol not in _native.KERNEL_EXPORTS:
            problems.append(
                f"suppression {entry!r} names '{symbol}', which is not an "
                "exported kernel symbol (KERNEL_EXPORTS)"
            )
        if "Theorem V.2" not in citation or "idempotent" not in citation:
            problems.append(
                f"suppression {entry!r} does not cite the Theorem V.2 "
                "idempotent write site it covers"
            )
    return problems


def write_suppressions(path: Optional[Path] = None) -> Path:
    """Materialize the suppression list for ``TSAN_OPTIONS``."""
    target = path or (_BUILD_DIR / "tsan-suppressions.txt")
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# Generated from repro.analysis.sanitize.THEOREM_V2_SUPPRESSIONS.",
        "# Every entry must cite its Theorem V.2 idempotent write site;",
        "# audit_suppressions() enforces the policy on every run.",
    ]
    for entry, citation in THEOREM_V2_SUPPRESSIONS:
        lines.append(f"# {citation}")
        lines.append(entry)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def tsan_harness_path(exports: _native.Exports) -> Path:
    """Where the harness built against ``exports`` is cached: named by
    the harness, the kernel and the rendered header."""
    digest = hashlib.sha256(
        _HARNESS_SOURCE.read_bytes()
        + _KERNEL_SOURCE.read_bytes()
        + _native.render_header(exports).encode()
    ).hexdigest()[:16]
    return _BUILD_DIR / f"tsan-harness-{digest}"


def _compile_tsan_harness() -> Tuple[Path, Optional[str]]:
    """Build the instrumented harness + kernel executable (cached) the
    way the kernel is built (:func:`~repro.parallel._native._compile`).
    Both sources are compiled against the kernel's header, so the
    harness's calls are checked against the same declaration as the
    kernel. Returns the executable's path and ``None``, or the path and
    the compiler's diagnostic."""
    target = tsan_harness_path(_native.KERNEL_EXPORTS)
    if target.exists():
        return target, None
    header = _native.write_header(
        _native.KERNEL_EXPORTS, _BUILD_DIR, "kernel"
    )
    failure = _native._compile(
        (_HARNESS_SOURCE, _KERNEL_SOURCE),
        target,
        header,
        _native.sanitize_cflags(THREAD_SELECTION),
        shared=False,
    )
    return target, failure


def _tsan_case(seed: int, q: int, n: int = 400) -> "Tuple[object, object]":
    """A preferential-attachment graph and q keyword source sets, every
    node active from level 0, as ``(graph, SearchState)``.

    The low ids are hubs, so racing chunks share scatter targets and the
    Theorem V.2 races actually occur under the detector instead of the
    threads accidentally partitioning the writes.
    """
    import numpy as np

    from ..core.state import SearchState
    from ..graph.generators import preferential_attachment_graph

    graph = preferential_attachment_graph(n, edges_per_node=3, seed=seed)
    rng = np.random.default_rng(seed * 9176 + 11)
    sets = [
        rng.integers(0, n, size=int(rng.integers(2, 7))) for _ in range(q)
    ]
    return graph, SearchState.initialize(n, sets, np.zeros(n, dtype=np.int32))


def _replay_levels(graph: "object", state: "object", level_cap: int) -> None:
    """The harness's level protocol on ``SequentialBackend``'s per-node
    body: each level drains FIdentifier into the frontier and expands
    all of it, with no Central-Node identification."""
    from ..parallel.sequential import expand_frontier_chunk

    for level in range(level_cap):
        if not state.enqueue_frontiers():
            break
        expand_frontier_chunk(graph, state, level, state.frontier)


def _tsan_env(suppressions: Optional[Path]) -> Dict[str, str]:
    env = dict(os.environ)
    options = ["halt_on_error=0", "exitcode=66", "history_size=7"]
    if suppressions is not None:
        options.insert(0, f"suppressions={suppressions}")
    env["TSAN_OPTIONS"] = ":".join(options)
    return env


#: The q of the TSan fixtures. At q = 3 and q = 6 the kernel's 8-byte
#: row read straddles two rows (three at q = 3) that other chunks are
#: storing into; at q = 8 it covers exactly one. q = 10 reads two lane
#: words, the second straddling the next row; q = 16 two full ones.
TSAN_LANE_COUNTS = (3, 6, 8, 10, 16)


def run_tsan_parity(
    seeds: "Tuple[int, ...]" = (0, 1),
    n_threads: int = 8,
    repeats: int = 3,
) -> SanitizeResult:
    """The race-tier gate: parity fuzz under TSan + suppression audit.

    Green means: the suppression list passed the policy audit, the
    racing chunk replay reported **zero unsuppressed races**, and its
    final ``M``/``FIdentifier`` matched ``SequentialBackend``'s
    (:func:`_replay_levels`) bitwise on every (seed, q) with q in
    :data:`TSAN_LANE_COUNTS`.
    """
    import numpy as np

    if not toolchain_available(THREAD_SELECTION):
        return SanitizeResult(
            ok=True,
            detail="TSan toolchain unavailable (no C compiler or libtsan.so)",
            skipped=True,
        )
    problems = audit_suppressions()
    if problems:
        return SanitizeResult(
            ok=False,
            detail="suppression audit failed:\n" + "\n".join(problems),
        )
    harness, failure = _compile_tsan_harness()
    if failure is not None:
        return SanitizeResult(
            ok=False, detail=f"failed to compile the TSan harness: {failure}"
        )
    suppressions = write_suppressions()
    import tempfile

    for seed, q in itertools.product(seeds, TSAN_LANE_COUNTS):
        graph, state = _tsan_case(seed, q)
        n = graph.n_nodes
        indices = graph.adj.indices.astype(np.int32)
        level_cap = 32
        with tempfile.TemporaryDirectory(prefix="repro-tsan-") as tmp:
            in_path = Path(tmp) / "fixture.bin"
            out_path = Path(tmp) / "result.bin"
            header = np.asarray(
                [n, q, len(indices), level_cap], dtype=np.int64
            )
            with open(in_path, "wb") as handle:
                handle.write(header.tobytes())
                handle.write(graph.adj.indptr.astype(np.int64).tobytes())
                handle.write(indices.tobytes())
                handle.write(state.matrix.tobytes())
                handle.write(state.f_identifier.tobytes())
            try:
                result = subprocess.run(
                    [
                        str(harness),
                        "parity",
                        str(in_path),
                        str(out_path),
                        str(n_threads),
                        str(repeats),
                    ],
                    env=_tsan_env(suppressions),
                    capture_output=True,
                    text=True,
                    timeout=600,
                    check=False,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                return SanitizeResult(
                    ok=False, detail=f"harness failed to run: {exc}"
                )
            combined = result.stdout + result.stderr
            if result.returncode == 66 or "WARNING: ThreadSanitizer" in combined:
                tail = "\n".join(combined.strip().splitlines()[-25:])
                return SanitizeResult(
                    ok=False,
                    detail=(
                        f"seed {seed} q {q}: NEW data race outside the declared "
                        f"Theorem V.2 sites:\n{tail}"
                    ),
                    sanitizer_report=True,
                )
            if result.returncode != 0:
                return SanitizeResult(
                    ok=False,
                    detail=f"seed {seed} q {q}: harness exited "
                    f"{result.returncode}:\n{combined.strip()[-800:]}",
                )
            payload = out_path.read_bytes()
            got_matrix = np.frombuffer(
                payload[8 : 8 + n * q], dtype=np.uint8
            ).reshape(n, q)
            got_fid = np.frombuffer(payload[8 + n * q :], dtype=np.uint8)
            _replay_levels(graph, state, level_cap)
            if not np.array_equal(got_matrix, state.matrix) or not (
                np.array_equal(got_fid, state.f_identifier)
            ):
                return SanitizeResult(
                    ok=False,
                    detail=f"seed {seed} q {q}: racing replay diverged from "
                    "SequentialBackend (idempotence broken)",
                )
    return SanitizeResult(
        ok=True,
        detail=(
            f"{len(seeds)} seed(s) x q in {TSAN_LANE_COUNTS} x {repeats} repeats "
            f"x {n_threads} racing threads: bitwise-identical to "
            "SequentialBackend, "
            "0 unsuppressed races "
            f"({len(THEOREM_V2_SUPPRESSIONS)} suppression(s) audited)"
        ),
    )


def run_tsan_inject() -> SanitizeResult:
    """Seeded non-suppressed race; ``ok`` means TSan reported it."""
    if not toolchain_available(THREAD_SELECTION):
        return SanitizeResult(
            ok=True,
            detail="TSan toolchain unavailable (no C compiler or libtsan.so)",
            skipped=True,
        )
    harness, failure = _compile_tsan_harness()
    if failure is not None:
        return SanitizeResult(
            ok=False, detail=f"failed to compile the TSan harness: {failure}"
        )
    suppressions = write_suppressions()
    try:
        result = subprocess.run(
            [str(harness), "inject", "2"],
            env=_tsan_env(suppressions),
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return SanitizeResult(ok=False, detail=f"harness failed to run: {exc}")
    combined = result.stdout + result.stderr
    caught = result.returncode == 66 or "WARNING: ThreadSanitizer" in combined
    tail = "\n".join(combined.strip().splitlines()[-15:])
    if caught:
        return SanitizeResult(
            ok=True,
            detail="TSan reported the seeded non-idempotent race:\n" + tail,
            sanitizer_report=True,
        )
    return SanitizeResult(
        ok=False,
        detail="seeded non-suppressed race was NOT reported:\n" + tail,
    )


# ---------------------------------------------------------------------------
# Child-process driver
# ---------------------------------------------------------------------------
def _child_inject() -> int:
    """One ``fused_expand`` call from a 200-leaf star's hub, which claims
    the 200 leaf cells, with an ``out_keys`` of 199: an armed ASan aborts
    inside the kernel on the last key's store."""
    import numpy as np

    from ..core.state import SearchState
    from ..graph.generators import star_graph

    kernel = _native.load_kernel()
    graph = star_graph(200)
    n = graph.n_nodes
    state = SearchState.initialize(n, [np.array([0])], np.zeros(n, dtype=np.int32))
    state.enqueue_frontiers()
    print("inject: fused_expand claims 200 cells, out_keys has room for 199")
    cells, _ = kernel.expand(
        state.frontier,
        graph.adj.indptr,
        graph.adj.indices,
        state.matrix.reshape(-1),
        1,
        state.f_identifier,
        state.c_identifier,
        state.keyword_node.view(np.uint8),
        state.activation,
        0,
        False,
        np.empty(n - 2, dtype=np.int64),
    )  # ASan aborts here when armed
    print(f"inject: fused_expand wrote {cells} keys unreported — the "
          "sanitizer is NOT armed")
    return 4


def _child_parity() -> int:
    selection = _native.sanitize_selection()
    if not selection:
        print("parity: REPRO_SANITIZE is empty in the child")
        return 3
    kernel = _native.load_kernel()
    from .check import run_invariant_fuzz, run_tail_guard_fuzz, tail_guard_cases

    failures = run_invariant_fuzz(seeds=(0, 1), print_fn=print)
    if failures:
        print(f"parity: {failures} failure(s) under sanitized kernel")
        return 5
    print("parity: all backends bit-identical under sanitized native kernel")

    # The lane-word row reads at the end of M: hubs in the last rows,
    # n*q < 8 words, M allocated at exactly n*q bytes. An over-read
    # aborts right here.
    failures = run_tail_guard_fuzz(print_fn=print)
    if failures:
        print(f"parity: {failures} tail-guard case(s) diverged")
        return 6
    print(
        f"parity: {len(tail_guard_cases())} tail-guard cases (q = 1..8, "
        "and 9..64: two, three and eight lane words) match the "
        "sequential backend level by level"
    )

    # Drive the remaining native entry points under the sanitizers: stage
    # two's extract_graphs (walks, level-cover, weight mass), with its
    # buffers at their defaults and forced to overflow, and rank_graphs
    # (dedup, Eq. 6, top-k, the answers' edges and masks) after each.
    # The checked fuzz above already runs whole_level_step and
    # fused_expand via the backends' run_level.
    from ..core.bottom_up import BottomUpSearch
    from ..core.weights import node_weights
    from .check import _fuzz_case

    import numpy as np

    from ..core import top_down

    cases = []
    cut_nodes = 0
    for seed in range(5):
        graph, sets, activation, k = _fuzz_case(seed)
        # The same problem again with its keywords confined to eight
        # nodes: sources then carry several keywords, which is what gives
        # level-cover something to cut (the spread sets never do).
        rng = np.random.default_rng(1000 + seed)
        pool = rng.choice(graph.n_nodes, size=8, replace=False)
        pooled = [
            np.unique(rng.choice(pool, size=int(rng.integers(1, 5))))
            for _ in sets
        ]
        weights = node_weights(graph)
        for keyword_sets in (sets, pooled):
            state = BottomUpSearch(graph).run(
                keyword_sets, activation, k
            ).state
            cases.append((graph, state, weights, k))
            everything, counts = top_down._batch_stage_two(
                kernel, graph, state, weights,
                top_down.TopDownConfig(k=10**6, deduplicate=False),
            )
            cut_nodes += counts["extracted_nodes"] - sum(
                answer.n_nodes for answer in everything
            )
    failures = stage_two_overflow_failures(kernel, cases)
    if not cut_nodes:
        failures.append("level-cover cut nothing: its closure never ran")
    for failure in failures:
        print(f"parity: {failure}")
    if failures:
        return 7
    print(
        f"parity: batched top-down matches the reference route under "
        f"sanitizers ({len(cases)} cases, {cut_nodes} nodes cut by "
        "level-cover; node, edge and pair buffers each forced to "
        "overflow, then all three)"
    )
    return 0


class _ExtractSpy:
    """Stands in for the kernel on the batch route, for one query: it
    binds the query's stage two and notes, after every
    ``extract_graphs`` exit, whether it fitted and whether ``marks``
    came back zeroed, and after every ``rank_graphs`` exit whether
    ``marks`` came back zeroed."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._bound = None
        self.exits: "List[Tuple[bool, bool]]" = []
        self.rank_exits: "List[bool]" = []

    def bind_graph(self, *arrays):
        return self._kernel.bind_graph(*arrays)

    def bind_stage_two(self, *arrays) -> "_ExtractSpy":
        self._bound = self._kernel.bind_stage_two(*arrays)
        return self

    def __getattr__(self, name):
        return getattr(self._bound, name)

    def extract(self, columns, apply_level_cover, marks, *buffers) -> bool:
        fitted = self._bound.extract(
            columns, apply_level_cover, marks, *buffers
        )
        self.exits.append((fitted, not marks.any()))
        return fitted

    def rank(self, columns, nodes, edges, deduplicate, k, marks, masks) -> int:
        survivors = self._bound.rank(
            columns, nodes, edges, deduplicate, k, marks, masks
        )
        self.rank_exits.append(not marks.any())
        return survivors


def stage_two_overflow_failures(kernel, cases) -> List[str]:
    """The batch route's overflow contract on ``cases`` — ``(graph,
    finished SearchState, weights, k)`` tuples: with the node buffer, the
    edge buffer and the per-graph pair scratch started at one cell (each
    alone, then all three) the answers equal the reference route's, one
    retry is enough, and ``marks`` is zero after every ``extract_graphs``
    exit, overflow or not, and after the one ``rank_graphs`` call.
    Returns what went wrong (empty: nothing).

    Run in-process by tier-1 and under ASan/UBSan by the parity child,
    where a write past a capacity aborts — ``rank_graphs``' masks
    buffer is allocated at exactly one cell per kept node, and it
    finalises edge runs inside their own bounds.
    """
    from ..core import top_down
    from ..core.top_down import TopDownConfig, process_top_down

    def signature(ranked):
        return [
            (g.central_node, g.score, sorted(g.nodes), sorted(g.edges))
            for g in ranked
        ]

    forced = [
        {},
        {"_node_capacity": 1},
        {"_edge_capacity": 1},
        {"_pair_capacity": 1},
        {"_node_capacity": 1, "_edge_capacity": 1, "_pair_capacity": 1},
    ]
    failures: List[str] = []
    retried = [False] * len(forced)
    for number, (graph, state, weights, k) in enumerate(cases):
        config = TopDownConfig(k=k)
        want = signature(
            process_top_down(
                graph, state, weights, TopDownConfig(k=k, native=False)
            )
        )
        for position, capacities in enumerate(forced):
            where = f"case {number}, capacities {capacities or 'default'}"
            spy = _ExtractSpy(kernel)
            got, _ = top_down._batch_stage_two(
                spy, graph, state, weights, config, **capacities
            )
            if signature(got) != want:
                failures.append(f"batch answers differ from reference ({where})")
            fits = [fitted for fitted, _ in spy.exits]
            if fits not in ([], [True], [False, True]):
                failures.append(f"one retry did not suffice: {fits} ({where})")
            if not all(clean for _, clean in spy.exits):
                failures.append(f"marks left nonzero ({where})")
            if spy.rank_exits != [True] * bool(state.central_nodes):
                failures.append(
                    f"rank_graphs ran {len(spy.rank_exits)} times or left "
                    f"marks nonzero ({where})"
                )
            retried[position] = retried[position] or len(fits) == 2
    for capacities, ran in zip(forced[1:], retried[1:]):
        if not ran:
            failures.append(f"overflow exit never ran for {capacities}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """Child-process entry point (``python -m repro.analysis.sanitize``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitize",
        description="child driver for sanitized subprocess runs",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parity", action="store_true")
    mode.add_argument("--inject", action="store_true")
    args = parser.parse_args(argv)
    if args.inject:
        return _child_inject()
    return _child_parity()


if __name__ == "__main__":
    sys.exit(main())
