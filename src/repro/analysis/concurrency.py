"""Concurrency-contract analyzer: no lock is acquired while another is held.

The engine's expansion is lock-free by design (Theorem V.2), but the
serving shell grown around it — service handlers, tracer, metrics,
flight recorder, load harness, the locked ablation engine — holds real
mutexes. Nothing in the lock-free invariant machinery
(:mod:`repro.analysis.checked`, the TSan tier) sees those: TSan only
instruments the C kernel, and per-level invariants say nothing about a
service thread deadlocking the metrics registry. The shell therefore
keeps one rule — **no lock is acquired while another is held** — and
this whole-package static pass (:func:`run_concurrency_check`) enforces
it. With no nesting there is no acquisition order, so no deadlock
between two locks is possible.

1. *Lock discovery.* Every ``threading.Lock/RLock/Condition``
   construction bound to an instance attribute or module constant
   becomes a node in the known-lock table, named by its binding
   (``obs.flight.FlightRecorder._lock``). A list of locks is one
   striped lock (``parallel.locked.LockedDictEngine._locks[*]``).
2. *Call graph.* Functions are linked by terminal callee name (an
   over-approximation: ``x.snapshot()`` reaches every repo function
   named ``snapshot``; a bare ``f()`` reaches only module-level
   functions and nested defs named ``f``, so the ``set()`` builtin never
   resolves to ``Gauge.set``). Property reads under a lock resolve against
   ``@property``-decorated functions, so ``counter.value`` counts as a
   call. The graph is rooted at service handlers, engine entry points,
   the batch searcher, and the locked ablation engine.
3. *Held-lock edges.* A fixpoint over the call graph computes, for
   every function, the locks it may transitively acquire; every
   acquisition (or call) made while a lock is held contributes an edge
   ``held -> acquired``. The shell's graph has no edges.

Findings (suppress with ``# noqa: RPRCONxx`` on the offending line):

==========  ===========================================================
Code        Meaning
==========  ===========================================================
RPRCON01    A lock is acquired — directly, or through a call — while
            another lock (or the same one) is held.
RPRCON02    A blocking operation (``time.sleep``, subprocess, socket or
            file I/O, ``pool.map``, ``future.result``, untimed
            ``Queue.get``) is reachable while a lock is held: the lock's
            critical section is bounded by I/O, not by compute.
==========  ===========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .lint import _NOQA, _NOQA_CODE, package_root

#: Finding codes and one-line summaries (``repro check`` prints these).
CONCURRENCY_RULES = {
    "RPRCON01": "lock acquired while another lock is held",
    "RPRCON02": "blocking call reachable while a lock is held",
}

#: Constructors that create a lock object.
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition"}

#: Blocking-call table: terminal name -> (label, receiver restriction).
#: A ``None`` restriction matches any receiver; a set restricts to
#: receiver terminal names (lowercased); ``"BARE"`` requires a bare
#: name call (the ``open`` builtin, not ``store.open``).
_BLOCKING_CALLS: Dict[str, Tuple[str, object]] = {
    "sleep": ("time.sleep", None),
    "open": ("file I/O (open)", "BARE"),
    "run": ("subprocess.run", {"subprocess"}),
    "check_call": ("subprocess.check_call", {"subprocess"}),
    "check_output": ("subprocess.check_output", {"subprocess"}),
    "communicate": ("subprocess communicate", None),
    "accept": ("socket accept", None),
    "recv": ("socket recv", None),
    "recv_into": ("socket recv", None),
    "connect": ("socket connect", None),
    "sendall": ("socket sendall", None),
    "urlopen": ("urllib urlopen", None),
    "serve_forever": ("HTTP serve loop", None),
    "map": ("pool map dispatch", {"pool", "executor", "_executor"}),
    "result": ("future.result", {"future", "fut"}),
    "join": ("thread/process join", {"thread", "process", "proc"}),
    "get": ("untimed Queue.get", {"queue", "_queue", "q"}),
}

#: Method names shared with the builtin containers (``dict.get``,
#: ``list.clear``, ``set.add``...). Name-based call-graph linking must
#: not resolve ``self._ring.clear()`` to ``FlightRecorder.clear`` — that
#: would invent a self-loop on the flight lock and a false RPRCON01.
#: These names resolve only for ``self.<m>()`` receivers or bare calls;
#: any other receiver is assumed to be a container.
_AMBIGUOUS_CONTAINER_METHODS = {
    "get", "clear", "append", "appendleft", "pop", "popleft", "update",
    "add", "items", "keys", "values", "copy", "remove", "extend",
    "setdefault", "insert", "sort", "count", "index", "discard",
    "reverse",
}

#: Call-graph roots: (module prefix, class-or-None, function-or-None).
#: ``None`` matches anything at that position.
_ROOTS: Tuple[Tuple[str, Optional[str], Optional[str]], ...] = (
    ("service", "SearchService", None),
    ("service", "_Handler", None),
    ("core.engine", "KeywordSearchEngine", None),
    ("core.batch", None, None),
    ("parallel.locked", "LockedDictEngine", None),
)


@dataclass(frozen=True)
class LockDef:
    """One discovered lock entity.

    Attributes:
        name: stable dotted identity derived from the binding, e.g.
            ``obs.flight.FlightRecorder._lock``.
        kind: ``lock`` / ``rlock`` / ``condition`` / ``striped``.
        path / line: where the construction lives.
    """

    name: str
    kind: str
    path: str
    line: int


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One RPRCONxx finding."""

    code: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class ConcurrencyReport:
    """Outcome of one analyzer run."""

    findings: List[ConcurrencyFinding] = field(default_factory=list)
    suppressed: List[ConcurrencyFinding] = field(default_factory=list)
    locks: Dict[str, LockDef] = field(default_factory=dict)
    #: Held-lock edges (outer held while acquiring inner) -> one example
    #: site; every edge is also an RPRCON01 finding, so a clean tree has
    #: none.
    edges: Dict[Tuple[str, str], Tuple[str, int]] = field(
        default_factory=dict
    )
    functions_analyzed: int = 0
    reachable_functions: int = 0
    unresolved_acquisitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


# ---------------------------------------------------------------------------
# Per-module extraction
# ---------------------------------------------------------------------------
def _terminal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver_terminal(func: ast.expr) -> Optional[str]:
    """Terminal name of a call's receiver (``a.b.c()`` -> ``b``)."""
    if isinstance(func, ast.Attribute):
        return _terminal(func.value)
    return None


def _is_lock_construction(call: ast.Call) -> Optional[str]:
    """The lock kind when ``call`` constructs a threading primitive."""
    name = _terminal(call.func)
    if name not in _LOCK_CONSTRUCTORS:
        return None
    if isinstance(call.func, ast.Attribute):
        receiver = _terminal(call.func.value)
        if receiver not in (None, "threading"):
            return None
    return name.lower()


@dataclass
class _Acquisition:
    lock: str  # resolved lock name, or "?attr:<name>" placeholder
    line: int
    held: Tuple[str, ...]  # locks held at this point (outermost first)


@dataclass
class _CallSite:
    callee: str
    receiver: Optional[str]
    bare: bool  # a Name call, not an attribute call
    line: int
    held: Tuple[str, ...]
    has_timeout: bool


@dataclass
class _FuncInfo:
    qualname: str  # module.Class.func or module.func
    module: str
    cls: Optional[str]
    name: str
    path: str
    line: int
    is_property: bool = False
    acquisitions: List[_Acquisition] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    #: attribute reads made while at least one lock is held, with the
    #: held-set — resolved later against @property functions.
    attr_reads: List[Tuple[str, Tuple[str, ...], int]] = field(
        default_factory=list
    )


@dataclass
class _ModuleInfo:
    modname: str
    path: str
    source_lines: List[str]
    #: class -> base terminal names
    bases: Dict[str, List[str]] = field(default_factory=dict)
    #: (class-or-"", attr) -> lock name
    lock_attrs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    functions: List[_FuncInfo] = field(default_factory=list)


class _ModuleScanner(ast.NodeVisitor):
    """Two-phase scan: lock discovery, then per-function extraction."""

    def __init__(self, modname: str, path: str, source: str) -> None:
        self.info = _ModuleInfo(
            modname=modname, path=path, source_lines=source.splitlines()
        )
        self._class_stack: List[str] = []
        self._func_stack: List[_FuncInfo] = []
        self._held_stack: List[str] = []
        self._locks: List[LockDef] = []

    # -- lock discovery ------------------------------------------------
    def _lock_id_for(self, attr_or_name: str, striped: bool) -> str:
        owner = ".".join(
            [self.info.modname]
            + ([self._class_stack[-1]] if self._class_stack else [])
        )
        suffix = "[*]" if striped else ""
        return f"{owner}.{attr_or_name}{suffix}"

    def _record_lock(
        self,
        target: ast.expr,
        value: ast.expr,
        lineno: int,
    ) -> None:
        """Register a lock construction bound to ``target``."""
        kind: Optional[str] = None
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                kind = _is_lock_construction(node)
                if kind is not None:
                    break
        if kind is None:
            return
        striped = isinstance(value, (ast.List, ast.ListComp))
        if isinstance(target, ast.Attribute):
            attr = target.attr
        elif isinstance(target, ast.Name) and not self._func_stack:
            attr = target.id
        else:
            return  # anonymous local lock: RPR013's department, not ours
        name = self._lock_id_for(attr, striped)
        cls = self._class_stack[-1] if self._class_stack else ""
        self.info.lock_attrs[(cls, attr)] = name
        self._locks.append(
            LockDef(
                name=name,
                kind="striped" if striped else kind,
                path=self.info.path,
                line=lineno,
            )
        )

    # -- structure -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.info.bases[node.name] = [
            base for base in (_terminal(b) for b in node.bases) if base
        ]
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        parts = [self.info.modname]
        if cls:
            parts.append(cls)
        if self._func_stack:  # nested def: separate function, own scope
            parts.append(self._func_stack[-1].name + ".<locals>")
        parts.append(node.name)
        info = _FuncInfo(
            qualname=".".join(parts),
            module=self.info.modname,
            cls=cls,
            name=node.name,
            path=self.info.path,
            line=node.lineno,
            is_property=any(
                _terminal(d) in ("property", "cached_property")
                for d in node.decorator_list
            ),
        )
        self.info.functions.append(info)
        self._func_stack.append(info)
        saved_held = self._held_stack
        self._held_stack = []  # a closure runs on its caller's thread,
        # but the held-set does not flow through a def boundary statically
        self.generic_visit(node)
        self._held_stack = saved_held
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- assignments (lock discovery) ----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_lock(target, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_lock(node.target, node.value, node.lineno)
        self.generic_visit(node)

    # -- lock resolution ----------------------------------------------
    def _resolve_lock_expr(self, expr: ast.expr) -> Optional[str]:
        """The lock placeholder/name for a ``with``-item expression."""
        # with self._lock: / with obj._lock:
        if isinstance(expr, ast.Attribute):
            return f"?attr:{expr.attr}"
        # with _GLOBAL_LOCK:
        if isinstance(expr, ast.Name):
            return f"?name:{expr.id}"
        # with self._lock_for(node): / with self._locks[i]:
        if isinstance(expr, ast.Call):
            name = _terminal(expr.func)
            if name and ("lock" in name.lower()):
                return f"?attr:{name}"
            return None
        if isinstance(expr, ast.Subscript):
            inner = self._resolve_lock_expr(expr.value)
            return inner
        return None

    # -- bodies --------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        if not self._func_stack:
            self.generic_visit(node)
            return
        info = self._func_stack[-1]
        pushed = 0
        for item in node.items:
            placeholder = self._resolve_lock_expr(item.context_expr)
            if placeholder is None:
                continue
            info.acquisitions.append(
                _Acquisition(
                    lock=placeholder,
                    line=item.context_expr.lineno,
                    held=tuple(self._held_stack),
                )
            )
            self._held_stack.append(placeholder)
            pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self._held_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._func_stack:
            info = self._func_stack[-1]
            callee = _terminal(node.func)
            if callee is not None:
                info.calls.append(
                    _CallSite(
                        callee=callee,
                        receiver=_receiver_terminal(node.func),
                        bare=isinstance(node.func, ast.Name),
                        line=node.lineno,
                        held=tuple(self._held_stack),
                        has_timeout=any(
                            keyword.arg == "timeout"
                            for keyword in node.keywords
                        )
                        or len(node.args) >= 2,
                    )
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._func_stack and self._held_stack:
            self._func_stack[-1].attr_reads.append(
                (node.attr, tuple(self._held_stack), node.lineno)
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Whole-program analysis
# ---------------------------------------------------------------------------
class _Analyzer:
    def __init__(self, modules: List[_ModuleInfo]) -> None:
        self.modules = modules
        self.locks: Dict[str, LockDef] = {}
        self.report = ConcurrencyReport()
        #: function qualname -> _FuncInfo
        self.functions: Dict[str, _FuncInfo] = {}
        #: terminal function name -> [qualnames]
        self.by_name: Dict[str, List[str]] = {}
        #: terminal property name -> [qualnames]
        self.properties: Dict[str, List[str]] = {}
        #: class terminal name -> (module, class) for base walking
        self.class_home: Dict[str, List[Tuple[_ModuleInfo, str]]] = {}

    # -- assembly ------------------------------------------------------
    def assemble(self, locks: List[LockDef]) -> None:
        for lock in locks:
            known = self.locks.get(lock.name)
            if known is None or known.path == lock.path:
                self.locks[lock.name] = lock
        for module in self.modules:
            for cls in module.bases:
                self.class_home.setdefault(cls, []).append((module, cls))
            for fn in module.functions:
                self.functions[fn.qualname] = fn
                self.by_name.setdefault(fn.name, []).append(fn.qualname)
                if fn.is_property:
                    self.properties.setdefault(fn.name, []).append(
                        fn.qualname
                    )
        self.report.locks = dict(self.locks)

    # -- lock placeholder resolution ----------------------------------
    def _resolve_attr_in_class(
        self, module: _ModuleInfo, cls: str, attr: str, depth: int = 0
    ) -> Optional[str]:
        if depth > 8:
            return None
        hit = module.lock_attrs.get((cls, attr))
        if hit is not None:
            return hit
        for base in module.bases.get(cls, ()):  # walk bases by name
            for home_mod, home_cls in self.class_home.get(base, ()):
                found = self._resolve_attr_in_class(
                    home_mod, home_cls, attr, depth + 1
                )
                if found is not None:
                    return found
        return None

    def _resolve_placeholder(
        self, fn: _FuncInfo, module: _ModuleInfo, placeholder: str
    ) -> Optional[str]:
        if not placeholder.startswith("?"):
            return placeholder
        kind, _, name = placeholder.partition(":")
        if kind == "?name":
            return module.lock_attrs.get(("", name))
        # ?attr — resolve against the enclosing class (walking bases),
        # else against a unique attr name across the whole table.
        if fn.cls is not None:
            found = self._resolve_attr_in_class(module, fn.cls, name)
            if found is not None:
                return found
        if name.endswith("_for"):  # self._lock_for(x) helper convention
            stem = name[: -len("_for")] + "s"
            if fn.cls is not None:
                found = self._resolve_attr_in_class(module, fn.cls, stem)
                if found is not None:
                    return found
        candidates = {
            lock_name
            for mod in self.modules
            for (_, attr), lock_name in mod.lock_attrs.items()
            if attr == name
        }
        if len(candidates) == 1:
            return candidates.pop()
        return None

    def resolve_all(self) -> None:
        module_of = {m.modname: m for m in self.modules}
        for fn in self.functions.values():
            module = module_of[fn.module]
            for acq in fn.acquisitions:
                resolved = self._resolve_placeholder(fn, module, acq.lock)
                if resolved is None:
                    self.report.unresolved_acquisitions += 1
                    acq.lock = "?"
                else:
                    acq.lock = resolved
            def _resolve_held(held: Tuple[str, ...]) -> Tuple[str, ...]:
                return tuple(
                    resolved
                    for resolved in (
                        self._resolve_placeholder(fn, module, h)
                        for h in held
                    )
                    if resolved is not None
                )

            for entry in (fn.acquisitions, fn.calls):
                for item in entry:
                    item.held = _resolve_held(item.held)
            fn.attr_reads = [
                (attr, _resolve_held(held), line)
                for attr, held, line in fn.attr_reads
            ]
            fn.acquisitions = [a for a in fn.acquisitions if a.lock != "?"]

    # -- reachability --------------------------------------------------
    def _is_root(self, fn: _FuncInfo) -> bool:
        for mod_prefix, cls, name in _ROOTS:
            if not (
                fn.module == mod_prefix
                or fn.module.startswith(mod_prefix + ".")
            ):
                continue
            if cls is not None and fn.cls != cls:
                continue
            if name is not None and fn.name != name:
                continue
            return True
        return False

    def _callees_for(self, call: _CallSite) -> Sequence[str]:
        """Repo functions a call site may reach (name-based, with the
        container-method restriction). A bare call never reaches a
        method: ``set()`` is the builtin, not ``Gauge.set``."""
        candidates = self.by_name.get(call.callee, ())
        if call.bare:
            return [
                qual
                for qual in candidates
                if self.functions[qual].cls is None or ".<locals>." in qual
            ]
        if call.callee in _AMBIGUOUS_CONTAINER_METHODS and (
            call.receiver != "self"
        ):
            return ()
        return candidates

    def reachable(self, extra_roots: Sequence[str] = ()) -> Set[str]:
        frontier = [
            qual
            for qual, fn in self.functions.items()
            if self._is_root(fn) or qual in extra_roots
        ]
        seen: Set[str] = set(frontier)
        while frontier:
            qual = frontier.pop()
            fn = self.functions[qual]
            targets: Set[str] = set()
            for call in fn.calls:
                targets.update(self._callees_for(call))  # over-approx
            for attr, _, _ in fn.attr_reads:
                targets.update(self.properties.get(attr, ()))
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    # -- transitive acquisition fixpoint -------------------------------
    def compute(
        self, reachable: Set[str]
    ) -> Tuple[
        Dict[str, Set[str]],
        Dict[str, Dict[str, Tuple[str, int, str]]],
    ]:
        """Per-function transitive (acquires, blocking ops)."""
        trans_acquires: Dict[str, Set[str]] = {q: set() for q in reachable}
        trans_blocking: Dict[str, Dict[str, Tuple[str, int, str]]] = {
            q: {} for q in reachable
        }

        # Direct contributions.
        for qual in reachable:
            fn = self.functions[qual]
            for acq in fn.acquisitions:
                trans_acquires[qual].add(acq.lock)
            for call in fn.calls:
                label = self._blocking_label(call)
                if label is not None:
                    trans_blocking[qual].setdefault(
                        label, (fn.path, call.line, "directly")
                    )

        # Fixpoint over name-resolved calls and property reads.
        changed = True
        while changed:
            changed = False
            for qual in reachable:
                fn = self.functions[qual]
                callees: Set[str] = set()
                for call in fn.calls:
                    callees.update(self._callees_for(call))
                for attr, _, _ in fn.attr_reads:
                    callees.update(self.properties.get(attr, ()))
                for callee in callees:
                    if callee not in reachable or callee == qual:
                        continue
                    if not trans_acquires[callee] <= trans_acquires[qual]:
                        trans_acquires[qual] |= trans_acquires[callee]
                        changed = True
                    for label, (path, line, _) in trans_blocking[
                        callee
                    ].items():
                        if label not in trans_blocking[qual]:
                            trans_blocking[qual][label] = (
                                path,
                                line,
                                f"via {callee}",
                            )
                            changed = True
        return trans_acquires, trans_blocking

    @staticmethod
    def _blocking_label(call: _CallSite) -> Optional[str]:
        entry = _BLOCKING_CALLS.get(call.callee)
        if entry is None:
            return None
        label, restriction = entry
        if restriction == "BARE":
            return label if call.bare else None
        if isinstance(restriction, set):
            receiver = (call.receiver or "").lower()
            if receiver not in restriction:
                return None
        if call.callee == "get" and call.has_timeout:
            return None  # a timed Queue.get is bounded, not blocking
        return label

    # -- findings ------------------------------------------------------
    def build_edges_and_findings(self, reachable: Set[str]) -> None:
        trans_acquires, trans_blocking = self.compute(reachable)
        edges = self.report.edges
        raw_findings: List[ConcurrencyFinding] = []

        def add_edge(
            outer: str, inner: str, path: str, line: int, where: str
        ) -> None:
            edges.setdefault((outer, inner), (path, line))
            raw_findings.append(
                ConcurrencyFinding(
                    code="RPRCON01",
                    path=path,
                    line=line,
                    message=f"{inner!r} acquired while holding {outer!r} in {where}",
                )
            )

        for qual in reachable:
            fn = self.functions[qual]
            for acq in fn.acquisitions:
                for outer in acq.held:
                    add_edge(outer, acq.lock, fn.path, acq.line, qual)
            for call in fn.calls:
                if not call.held:
                    continue
                # Direct blocking op under a lock.
                label = self._blocking_label(call)
                if label is not None:
                    raw_findings.append(
                        ConcurrencyFinding(
                            code="RPRCON02",
                            path=fn.path,
                            line=call.line,
                            message=(
                                f"{label} while holding "
                                f"{call.held[-1]!r} in {qual}"
                            ),
                        )
                    )
                # Transitive effects of the callees.
                for callee in self._callees_for(call):
                    if callee not in reachable:
                        continue
                    for inner in trans_acquires[callee]:
                        for outer in call.held:
                            add_edge(
                                outer, inner, fn.path, call.line,
                                f"{qual} (through {callee})",
                            )
                    for blabel, (bpath, bline, via) in trans_blocking[
                        callee
                    ].items():
                        raw_findings.append(
                            ConcurrencyFinding(
                                code="RPRCON02",
                                path=fn.path,
                                line=call.line,
                                message=(
                                    f"{blabel} reachable while holding "
                                    f"{call.held[-1]!r} in {qual} "
                                    f"(through {callee}, op at "
                                    f"{bpath}:{bline} {via})"
                                ),
                            )
                        )
            # Property reads under a lock pull the property's acquires.
            for attr, held, line in fn.attr_reads:
                for prop in self.properties.get(attr, ()):
                    if prop not in reachable:
                        continue
                    for inner in trans_acquires[prop]:
                        for outer in held:
                            add_edge(
                                outer, inner, fn.path, line,
                                f"{qual} (through {prop})",
                            )

        self._apply_suppressions(raw_findings)
        self.report.functions_analyzed = len(self.functions)
        self.report.reachable_functions = len(reachable)

    def _apply_suppressions(
        self, raw: List[ConcurrencyFinding]
    ) -> None:
        lines_by_path = {
            module.path: module.source_lines for module in self.modules
        }
        seen: Set[Tuple[str, str, int, str]] = set()
        for finding in sorted(
            raw, key=lambda f: (f.code, f.path, f.line, f.message)
        ):
            key = (finding.code, finding.path, finding.line, finding.message)
            if key in seen:
                continue
            seen.add(key)
            source = lines_by_path.get(finding.path, [])
            line = (
                source[finding.line - 1]
                if 0 < finding.line <= len(source)
                else ""
            )
            match = _NOQA.search(line)
            if match:
                codes = match.group("codes")
                if codes is None or finding.code in {
                    code.upper() for code in _NOQA_CODE.findall(codes)
                }:
                    self.report.suppressed.append(finding)
                    continue
            self.report.findings.append(finding)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def scan_module(
    modname: str, path: str, source: str
) -> Tuple[_ModuleInfo, List[LockDef]]:
    """Scan one module's source; returns its info + discovered locks."""
    scanner = _ModuleScanner(modname, path, source)
    scanner.visit(ast.parse(source))
    return scanner.info, scanner._locks


def analyze_sources(
    sources: Sequence[Tuple[str, str, str]],
    extra_roots: Sequence[str] = (),
) -> ConcurrencyReport:
    """Run the full analysis over ``(modname, path, source)`` triples.

    ``extra_roots`` adds function qualnames to the call-graph roots
    (used by the injection path, whose seeded modules are not service
    handlers).
    """
    modules: List[_ModuleInfo] = []
    locks: List[LockDef] = []
    for modname, path, source in sources:
        info, found = scan_module(modname, path, source)
        modules.append(info)
        locks.extend(found)
    analyzer = _Analyzer(modules)
    analyzer.assemble(locks)
    analyzer.resolve_all()
    reachable = analyzer.reachable(extra_roots)
    analyzer.build_edges_and_findings(reachable)
    return analyzer.report


def repo_sources() -> List[Tuple[str, str, str]]:
    """``(modname, path, source)`` for every module under ``repro``."""
    root = package_root()
    sources: List[Tuple[str, str, str]] = []
    for module in sorted(root.rglob("*.py")):
        rel = module.relative_to(root).as_posix()
        modname = rel[:-3].replace("/", ".")
        if modname.endswith(".__init__"):
            modname = modname[: -len(".__init__")]
        sources.append(
            (modname, str(module), module.read_text(encoding="utf-8"))
        )
    return sources


def run_concurrency_check(
    extra_sources: Sequence[Tuple[str, str, str]] = (),
    extra_roots: Sequence[str] = (),
) -> ConcurrencyReport:
    """The static pass over ``src/repro`` (plus any seeded modules)."""
    return analyze_sources(
        list(repo_sources()) + list(extra_sources), extra_roots
    )
