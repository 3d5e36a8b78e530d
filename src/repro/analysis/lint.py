"""Repo-specific AST lint pass (``repro check`` / :func:`run_lint`).

Generic linters cannot know that this codebase's hot kernels must stay
lock-free and loop-free, or that its figure numbers are corrupted by
wall-clock timing. These rules encode exactly those contracts:

========  ==============================================================
Rule      Contract
========  ==============================================================
RPR001    No locks inside ``@hot_path``-marked kernel code. The paper's
          expansion is lock-free by idempotent writes (Theorem V.2); a
          lock in a kernel means the design has been silently abandoned.
RPR002    No Python per-edge/per-node loops inside ``@hot_path`` code.
          The only interpreter loop a fused kernel may run is over the
          keyword columns (``range(q)`` / ``range(_LANES)``); everything
          else belongs in a whole-array NumPy pass or the C tier.
RPR003    int64 dtype contract on fancy-index operands: no per-call
          ``.astype(...)`` and no non-int64 integer ``dtype=`` index
          construction in ``@hot_path`` code — pass the CSR arrays as
          stored (the compiled kernel reads ``indices`` as int32) and
          the cached read-only ``CSRAdjacency.degree_array``.
RPR004    Every ``REPRO_*`` environment variable literal in ``src`` must
          be registered in :mod:`repro.obs.config`, the single place
          where telemetry/kernel switches are documented.
RPR005    Pool-worker spans must pass explicit ``parent=``: inside
          ``repro.parallel``, a ``.span(...)`` call in a nested function
          (the closures handed to worker pools) without ``parent=``
          would attach to the *worker's* empty span stack.
RPR006    No bare ``except:`` — it swallows ``KeyboardInterrupt`` and
          ``SystemExit`` in long-running search services.
RPR007    No mutable default arguments.
RPR008    No direct ``time.time()`` in figure-producing paths (core,
          parallel, bench, eval, instrumentation): phase timings must
          come from the monotonic ``time.perf_counter()``.
RPR009    No copying calls (``np.asarray`` / ``np.ascontiguousarray`` /
          ``np.copy`` / ``np.array`` / ``.copy()``) on CSR base arrays
          (``indptr`` / ``indices`` / ``labels`` / ``degree_array``)
          inside ``@hot_path`` code. The mmap store tier shares one
          physical CSR copy across every worker; a per-call copy
          silently re-materializes the graph into private heap and
          breaks the zero-copy contract.
RPR010    No writes to store-backed (memmap) arrays outside
          ``StoreWriter``/builder code (``graph/store.py`` and
          ``graph/builder.py``): no subscript stores into arrays bound
          from ``np.memmap``, no ``.setflags(write=True)`` on them,
          and no writable-mode (``r+`` / ``w+``) memmap construction.
          The ``.csrstore`` tier's safety argument is that workers
          share *read-only* pages; one stray writable view silently
          turns shared state into per-process copy-on-write divergence.
RPR012    Metric names handed to ``MetricsRegistry.counter`` /
          ``.histogram`` must be module-level constants:
          no inline string literals and especially no f-strings. An
          inline name defeats ``grep`` from a dashboard back to the
          emitter, and an f-string additionally pays per-request
          string formatting on the service hot path.
========  ==============================================================

Suppression: append ``# noqa: RPR00x`` (with a justification comment)
to the offending line; a bare ``# noqa`` suppresses every rule on the
line. Rule ids are matched **exactly** (token by token), so a
``# noqa: RPR001`` can never also silence RPR0010-style longer ids.
Suppressions are counted and reported.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

#: Rule ids and their one-line summaries (kept in sync with the table
#: above; ``repro check --list-rules`` prints this).
RULES = {
    "RPR001": "lock primitive used inside @hot_path kernel code",
    "RPR002": "Python per-edge loop inside @hot_path kernel code",
    "RPR003": "per-call dtype conversion on fancy-index operands in @hot_path code",
    "RPR004": "REPRO_* env var not registered in repro.obs.config",
    "RPR005": "pool-worker span without explicit parent=",
    "RPR006": "bare except:",
    "RPR007": "mutable default argument",
    "RPR008": "wall-clock time.time() in a figure-producing path",
    "RPR009": "copy of a CSR base array inside @hot_path kernel code",
    "RPR010": "write to a store-backed memmap array outside StoreWriter/builder",
    "RPR012": "inline metric name in a registry call; use a module-level constant",
}

_ENV_LITERAL = re.compile(r"REPRO_[A-Z][A-Z0-9_]*\Z")
_NOQA = re.compile(r"#\s*noqa(?::(?P<codes>[\sA-Z0-9,]+))?", re.IGNORECASE)
#: One rule id inside a ``# noqa:`` code list — letters then digits, so
#: comma- or space-separated lists tokenize without substring matches.
_NOQA_CODE = re.compile(r"[A-Za-z]+\d+")

_LOCK_NAMES = {
    "Lock",
    "RLock",
    "Semaphore",
    "BoundedSemaphore",
    "Condition",
    "acquire",
}

#: Names allowed as the sole ``range()`` argument in hot-path loops —
#: the keyword-column range (q BFS instances, ≤ 8 SWAR lanes).
_COLUMN_RANGE_NAMES = {"q", "_LANES", "n_keywords"}

#: Integer dtypes that must not be constructed per-call for fancy
#: indexing (the contract is cached int64 views).
_NARROW_INDEX_DTYPES = {"int8", "int16", "int32", "uint16", "uint32"}

#: Path prefixes (relative to the package root) whose timings feed the
#: paper figures; wall-clock reads are banned there.
_FIGURE_SCOPES = ("core", "parallel", "bench", "eval", "instrumentation.py")

#: Attribute names of the CSR arrays shared zero-copy by worker threads
#: (and mapped read-only from the store file); copying one of these in a
#: kernel re-materializes the graph into private heap.
_CSR_BASE_ATTRS = {"indptr", "indices", "labels", "degree_array"}

#: Call names that produce (or may produce) an array copy.
_COPYING_CALLS = {"asarray", "ascontiguousarray", "copy", "array"}

#: Paths (relative to the package root) allowed to write store-backed
#: arrays: the store writer itself and the streaming builder.
_STORE_WRITER_SCOPES = ("graph/store.py", "graph/builder.py")

#: Calls whose result is a store-backed (memmap) array; names bound from
#: them are tracked for RPR010.
_MEMMAP_SOURCES = {"memmap"}

#: ``np.memmap`` modes that produce a writable mapping.
_WRITABLE_MMAP_MODES = {"r+", "w+", "readwrite", "write"}

#: ``MetricsRegistry`` factory methods whose first argument is a metric
#: name (RPR012 requires it to be a module-level constant).
_METRIC_FACTORY_METHODS = {"counter", "histogram"}

#: Receiver terminal names treated as a metrics registry for RPR012
#: (``self.registry.counter(...)``, ``_REGISTRY.histogram(...)``).
_REGISTRY_RECEIVER_NAMES = {"registry", "_registry", "_REGISTRY"}


@dataclass(frozen=True)
class LintViolation:
    """One lint finding.

    Attributes:
        path: file path as given to the linter.
        line / col: 1-based line, 0-based column of the offending node.
        rule: the ``RPR00x`` id.
        message: human-readable description.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``allowed`` holds findings waived by a per-directory rule allowlist
    (``run_lint(allow=...)``) — reported for transparency but not
    failures, unlike ``suppressed`` which needs an inline ``# noqa``.
    """

    violations: List[LintViolation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: List[LintViolation] = field(default_factory=list)
    allowed: List[LintViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_hot_path_decorator(decorator: ast.expr) -> bool:
    return _terminal_name(decorator) == "hot_path"


class _FileLinter(ast.NodeVisitor):
    """Single-pass visitor applying every rule to one module."""

    def __init__(
        self,
        path: str,
        registered_env: Set[str],
        in_parallel: bool,
        figure_scope: bool,
        is_registry: bool,
        store_writer_scope: bool = False,
    ) -> None:
        self.path = path
        self.registered_env = registered_env
        self.in_parallel = in_parallel
        self.figure_scope = figure_scope
        self.is_registry = is_registry
        self.store_writer_scope = store_writer_scope
        self.violations: List[LintViolation] = []
        # Stack of per-function "is hot path" flags; hotness is inherited
        # by nested helpers defined inside a hot kernel.
        self._hot_stack: List[bool] = []
        # Names bound (anywhere in the module) from np.memmap — the
        # store-backed arrays RPR010 guards.
        self._memmap_names: Set[str] = set()

    # ------------------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    @property
    def _in_hot(self) -> bool:
        return any(self._hot_stack)

    @property
    def _in_nested_function(self) -> bool:
        return len(self._hot_stack) >= 2

    # ------------------------------------------------------------------
    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in {"list", "dict", "set"}
                and not default.args
                and not default.keywords
            ):
                mutable = True
            if mutable:
                self._emit(
                    default,
                    "RPR007",
                    "mutable default argument; default to None and "
                    "allocate inside the function",
                )

    def _visit_function(self, node) -> None:
        hot = self._in_hot or any(
            _is_hot_path_decorator(d) for d in node.decorator_list
        )
        self._check_defaults(node, node.args)
        self._hot_stack.append(hot)
        self.generic_visit(node)
        self._hot_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # ------------------------------------------------------------------
    # RPR010 — store-backed memmap arrays are read-only outside the
    # writer/builder
    # ------------------------------------------------------------------
    def _is_memmap_source(self, value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and _terminal_name(value.func) in _MEMMAP_SOURCES
        )

    def _track_memmap_binding(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        if not self._is_memmap_source(value):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self._memmap_names.add(target.id)

    def _touches_memmap_name(self, node: ast.expr) -> Optional[str]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self._memmap_names:
                return sub.id
        return None

    def _check_memmap_store(self, targets: Sequence[ast.expr]) -> None:
        if self.store_writer_scope:
            return
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            name = self._touches_memmap_name(target.value)
            if name is not None:
                self._emit(
                    target,
                    "RPR010",
                    f"subscript store into store-backed array '{name}' "
                    "(bound from np.memmap); store "
                    "pages are shared read-only across workers — only "
                    "StoreWriter/builder code may write them",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_memmap_binding(node.targets, node.value)
        self._check_memmap_store(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_memmap_binding([node.target], node.value)
            self._check_memmap_store([node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_memmap_store([node.target])
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node,
                "RPR006",
                "bare except: catches KeyboardInterrupt/SystemExit; "
                "name the exceptions",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        if self._in_hot:
            for item in node.items:
                name = _terminal_name(item.context_expr)
                if name and "lock" in name.lower():
                    self._emit(
                        item.context_expr,
                        "RPR001",
                        f"'with {name}' inside @hot_path kernel code; the "
                        "expansion must stay lock-free (Theorem V.2)",
                    )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._in_hot and not self._is_column_range(node.iter):
            self._emit(
                node,
                "RPR002",
                "Python loop over per-edge/per-node data inside "
                "@hot_path kernel code; only the keyword-column range "
                "(range(q)) may be looped in the interpreter",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_column_range(iterable: ast.expr) -> bool:
        if not (
            isinstance(iterable, ast.Call)
            and _terminal_name(iterable.func) == "range"
        ):
            return False
        for arg in iterable.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                continue
            name = _terminal_name(arg)
            if name in _COLUMN_RANGE_NAMES:
                continue
            return False
        return True

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _terminal_name(node.func)
        if self._in_hot:
            if name in _LOCK_NAMES:
                self._emit(
                    node,
                    "RPR001",
                    f"'{name}' inside @hot_path kernel code; the "
                    "expansion must stay lock-free (Theorem V.2)",
                )
            if isinstance(node.func, ast.Attribute) and name == "astype":
                self._emit(
                    node,
                    "RPR003",
                    ".astype() inside @hot_path kernel code pays a "
                    "per-call copy; pass the CSR arrays as stored "
                    "(CSRAdjacency.indices / degree_array)",
                )
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype_name = _terminal_name(keyword.value)
                    if dtype_name in _NARROW_INDEX_DTYPES:
                        self._emit(
                            keyword.value,
                            "RPR003",
                            f"dtype={dtype_name} index construction in "
                            "@hot_path kernel code; fancy-index operands "
                            "carry the int64 contract",
                        )
            if name in _COPYING_CALLS:
                csr_attr = self._csr_base_operand(node, name)
                if csr_attr is not None:
                    self._emit(
                        node,
                        "RPR009",
                        f"'{name}' copies CSR base array "
                        f"'.{csr_attr}' inside @hot_path kernel code; "
                        "the store tier shares one physical CSR copy "
                        "across workers — use the array (or its cached "
                        "read-only views) directly",
                    )
        if not self.store_writer_scope:
            if (
                name == "setflags"
                and isinstance(node.func, ast.Attribute)
                and any(
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in node.keywords
                )
                and self._touches_memmap_name(node.func.value) is not None
            ):
                self._emit(
                    node,
                    "RPR010",
                    ".setflags(write=True) re-arms a store-backed array; "
                    "store pages are shared read-only across workers",
                )
            if name == "memmap":
                for keyword in node.keywords:
                    if (
                        keyword.arg == "mode"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value in _WRITABLE_MMAP_MODES
                    ):
                        self._emit(
                            node,
                            "RPR010",
                            f"writable np.memmap (mode={keyword.value.value!r}) "
                            "outside StoreWriter/builder code; the store "
                            "contract maps sections read-only",
                        )
        if (
            self.in_parallel
            and self._in_nested_function
            and isinstance(node.func, ast.Attribute)
            and name == "span"
        ):
            if not any(k.arg == "parent" for k in node.keywords):
                self._emit(
                    node,
                    "RPR005",
                    "span opened inside a pool-worker closure without "
                    "explicit parent=; worker threads have empty span "
                    "stacks, so parentage must be handed over",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and name in _METRIC_FACTORY_METHODS
            and self._is_registry_receiver(node.func.value)
        ):
            metric_arg: Optional[ast.expr] = None
            if node.args:
                metric_arg = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        metric_arg = keyword.value
                        break
            if isinstance(metric_arg, ast.JoinedStr) or (
                isinstance(metric_arg, ast.Constant)
                and isinstance(metric_arg.value, str)
            ):
                kind = (
                    "an f-string"
                    if isinstance(metric_arg, ast.JoinedStr)
                    else "an inline string literal"
                )
                self._emit(
                    metric_arg,
                    "RPR012",
                    f"metric name passed to .{name}() as {kind}; "
                    "reference a module-level constant so names stay "
                    "greppable and no per-call formatting runs on the "
                    "request path",
                )
        if (
            self.figure_scope
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            self._emit(
                node,
                "RPR008",
                "time.time() in a figure-producing path; phase timings "
                "must use the monotonic time.perf_counter()",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_registry_receiver(receiver: ast.expr) -> bool:
        """True when ``receiver`` looks like a metrics registry.

        Matches any name/attribute chain ending in a
        registry-conventional identifier (``self.registry``,
        ``service.registry``); other receivers with
        ``counter``/``histogram`` methods stay out of scope so
        unrelated APIs are not misflagged.
        """
        return _terminal_name(receiver) in _REGISTRY_RECEIVER_NAMES

    @staticmethod
    def _csr_base_operand(node: ast.Call, name: str) -> Optional[str]:
        """The CSR base attribute a copying call touches, if any.

        Checks every argument expression — and, for a ``.copy()`` method
        call, the receiver — for an attribute access named like a CSR
        base array (``graph.adj.indices``, ``self._indptr`` does not
        match; the attribute name itself must be one of the bases).
        """
        operands: List[ast.expr] = list(node.args) + [
            keyword.value for keyword in node.keywords
        ]
        if isinstance(node.func, ast.Attribute) and name == "copy":
            operands.append(node.func.value)
        for operand in operands:
            for sub in ast.walk(operand):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in _CSR_BASE_ATTRS
                ):
                    return sub.attr
        return None

    # ------------------------------------------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            not self.is_registry
            and isinstance(node.value, str)
            and _ENV_LITERAL.fullmatch(node.value)
            and node.value not in self.registered_env
        ):
            self._emit(
                node,
                "RPR004",
                f"environment variable {node.value!r} is not registered "
                "in repro.obs.config; add a documented ENV_* constant "
                "there",
            )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def registered_env_vars(config_source: str) -> Set[str]:
    """``REPRO_*`` literals declared in :mod:`repro.obs.config` source."""
    registered: Set[str] = set()
    for node in ast.walk(ast.parse(config_source)):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _ENV_LITERAL.fullmatch(node.value)
        ):
            registered.add(node.value)
    return registered


def _split_suppressed(
    violations: Sequence[LintViolation], source: str
) -> Tuple[List[LintViolation], List[LintViolation]]:
    lines = source.splitlines()
    active: List[LintViolation] = []
    suppressed: List[LintViolation] = []
    for violation in violations:
        line = lines[violation.line - 1] if violation.line <= len(lines) else ""
        match = _NOQA.search(line)
        if match:
            codes = match.group("codes")
            # Exact-id matching: tokenize the code list (letters+digits
            # per token) and compare whole ids, so "RPR001" can never
            # also suppress a longer id like "RPR0010".
            if codes is None or violation.rule in {
                code.upper() for code in _NOQA_CODE.findall(codes)
            }:
                suppressed.append(violation)
                continue
        active.append(violation)
    return active, suppressed


def package_root() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    return Path(__file__).resolve().parent.parent


def lint_source(
    source: str,
    path: str = "<memory>",
    registered_env: Optional[Set[str]] = None,
    relative_to_package: Optional[str] = None,
) -> Tuple[List[LintViolation], List[LintViolation]]:
    """Lint one module's source; returns ``(violations, suppressed)``.

    Args:
        source: the module text.
        path: label used in reports.
        registered_env: the ``REPRO_*`` registry (defaults to the real
            one parsed from :mod:`repro.obs.config`).
        relative_to_package: the module's path relative to the ``repro``
            package root, which determines scope-sensitive rules
            (parallel-package span rule, figure-path wall-clock rule).
            ``None`` applies every scope — the strictest interpretation,
            right for fixtures.
    """
    if registered_env is None:
        config_path = package_root() / "obs" / "config.py"
        registered_env = registered_env_vars(
            config_path.read_text(encoding="utf-8")
        )
    rel = relative_to_package
    in_parallel = rel is None or rel.startswith("parallel")
    figure_scope = rel is None or rel.startswith(_FIGURE_SCOPES)
    is_registry = rel is not None and rel.endswith("obs/config.py")
    store_writer_scope = rel is not None and rel in _STORE_WRITER_SCOPES
    linter = _FileLinter(
        path=path,
        registered_env=registered_env,
        in_parallel=in_parallel,
        figure_scope=figure_scope,
        is_registry=is_registry,
        store_writer_scope=store_writer_scope,
    )
    tree = ast.parse(source)
    # Pre-pass: bind memmap-sourced names module-wide before rule checks,
    # so a write above its binding in source order is still flagged.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            linter._track_memmap_binding(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            linter._track_memmap_binding([node.target], node.value)
    linter.visit(tree)
    return _split_suppressed(linter.violations, source)


def run_lint(
    root: Optional[Path] = None,
    allow: Optional[Sequence[str]] = None,
    registered_env: Optional[Set[str]] = None,
) -> LintReport:
    """Lint every module under ``root`` (default: the ``repro`` package).

    Args:
        root: directory tree to lint.
        allow: rule ids waived for this whole tree (the per-directory
            allowlist ``repro check`` uses for ``tests/`` and
            ``benchmarks/``, e.g. deliberate mutable defaults in test
            helpers). Waived findings land in ``report.allowed``.
        registered_env: the ``REPRO_*`` registry to validate against.
            Defaults to the tree's own ``obs/config.py`` when present,
            else the installed package's registry — so linting ``tests/``
            does not misflag legitimate uses of registered variables.
    """
    root = Path(root) if root is not None else package_root()
    allowed_rules = set(allow or ())
    if registered_env is None:
        config_path = root / "obs" / "config.py"
        if config_path.exists():
            registered_env = registered_env_vars(
                config_path.read_text(encoding="utf-8")
            )
        else:  # a non-package tree validates against the real registry
            fallback = package_root() / "obs" / "config.py"
            registered_env = registered_env_vars(
                fallback.read_text(encoding="utf-8")
                if fallback.exists()
                else ""
            )
    report = LintReport()
    for module in sorted(root.rglob("*.py")):
        rel = module.relative_to(root).as_posix()
        source = module.read_text(encoding="utf-8")
        violations, suppressed = lint_source(
            source,
            path=str(module),
            registered_env=registered_env,
            relative_to_package=rel,
        )
        for violation in violations:
            if violation.rule in allowed_rules:
                report.allowed.append(violation)
            else:
                report.violations.append(violation)
        report.suppressed.extend(suppressed)
        report.files_checked += 1
    report.violations.sort(key=lambda v: (v.path, v.line, v.col))
    return report


def format_report(report: LintReport) -> str:
    """Human-readable lint summary."""
    lines = [str(violation) for violation in report.violations]
    lines.append(
        f"{len(report.violations)} violation(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.files_checked} file(s) checked"
    )
    return "\n".join(lines)
