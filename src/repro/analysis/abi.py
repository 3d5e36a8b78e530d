"""ABI contract verifier — C kernel ↔ ctypes ↔ store header.

The native tier's correctness rests on three hand-maintained contracts
that no compiler ever checks end to end:

1. every exported function in ``parallel/_kernel.c`` (and the sanitizer
   fixture ``analysis/_smoke.c``) is called through hand-written ctypes
   ``argtypes``/``restype`` declarations in ``parallel/_native.py`` (and
   :data:`repro.analysis.sanitize.SMOKE_BINDINGS`);
2. any C struct shared across the boundary must match its
   ``ctypes.Structure`` mirror field for field (order, width,
   signedness, padding);
3. the ``.csrstore`` header dtypes and alignment in ``graph/store.py``
   must match the array views ``_native.py`` feeds the kernel — the
   memmapped sections are handed to C as raw pointers, so a silent
   ``<i4``/``<i8`` drift corrupts every query.

This module parses both sides **statically** — a small C prototype and
struct parser on one side, an AST walk of the ctypes declarations on the
other — and cross-checks them. Any drift is a named finding in the
``RPRABI`` rule family, reported through ``repro check``:

==========  ============================================================
Code        Contract breach
==========  ============================================================
RPRABI01    exported C symbol has no ctypes binding
RPRABI02    ctypes binding names a symbol the C source does not export
RPRABI03    argument count mismatch
RPRABI04    argument type mismatch (pointerness, width, or signedness)
RPRABI05    return type mismatch
RPRABI06    struct layout mismatch (fields, order, width, offsets)
RPRABI07    store section dtype drifted from the kernel's array view
RPRABI08    store section alignment/endianness violates the mmap layout
==========  ============================================================

``run_abi_check(inject="swap")`` seeds a deterministic drift (the parsed
``fused_expand`` CSR parameter types are swapped, simulating an edit
that widened ``indices`` without touching the binding) so ``repro check
--inject abi`` can prove the verifier actually fires.

The parser is deliberately small: it understands exactly the C subset
the kernel uses (fixed-width scalar typedefs, pointers, flat structs,
``const``) and fails loudly on anything it cannot classify rather than
guessing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Rule ids and one-line summaries (mirrors the table in the module
#: docstring; ``repro check --list-rules`` prints these too).
ABI_RULES = {
    "RPRABI01": "exported C symbol has no ctypes binding",
    "RPRABI02": "ctypes binding without a matching exported C symbol",
    "RPRABI03": "argument count mismatch between C prototype and argtypes",
    "RPRABI04": "argument type mismatch (pointerness/width/signedness)",
    "RPRABI05": "return type mismatch between C prototype and restype",
    "RPRABI06": "struct layout mismatch between C and ctypes.Structure",
    "RPRABI07": "store section dtype drifted from the kernel array view",
    "RPRABI08": "store section alignment/endianness violation",
}

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
KERNEL_SOURCE_PATH = _PACKAGE_ROOT / "parallel" / "_kernel.c"
NATIVE_SOURCE_PATH = _PACKAGE_ROOT / "parallel" / "_native.py"
SMOKE_SOURCE_PATH = Path(__file__).with_name("_smoke.c")

#: Sections of the ``.csrstore`` header that are memmapped and handed to
#: the native kernel, and the scalar type each kernel-side array view
#: assumes. ``graph/store.py``
#: may evolve its layout freely — but these sections must keep these
#: exact types or every store-backed query feeds the kernel garbage.
KERNEL_VIEW_CONTRACT: Dict[str, Tuple[str, int]] = {
    # indptr / indices of fused_expand, whole_level_step, extract_graphs
    "adj_indptr": ("int", 64),
    "adj_indices": ("int", 32),
    "adj_indices64": ("int", 64),  # int64 fancy-index view
    "adj_degree": ("int", 64),  # degree_array (gather offsets)
}


# ---------------------------------------------------------------------------
# Canonical type descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CType:
    """Canonical scalar/pointer type: ``kind`` is ``int``/``uint``/
    ``float``/``void``; ``bits`` is the scalar width (0 for void);
    ``pointer`` marks one level of indirection (the kernel ABI never
    nests pointers)."""

    kind: str
    bits: int
    pointer: bool = False

    def __str__(self) -> str:
        base = "void" if self.kind == "void" else f"{self.kind}{self.bits}"
        return base + ("*" if self.pointer else "")


#: Exact C token(s) → (kind, bits). ``const`` and ``*`` are handled by
#: the parser; anything not in this table is a parse error, on purpose.
_C_SCALARS = {
    "int64_t": ("int", 64),
    "int32_t": ("int", 32),
    "int16_t": ("int", 16),
    "int8_t": ("int", 8),
    "uint64_t": ("uint", 64),
    "uint32_t": ("uint", 32),
    "uint16_t": ("uint", 16),
    "uint8_t": ("uint", 8),
    "char": ("int", 8),
    "double": ("float", 64),
    "float": ("float", 32),
    "size_t": ("uint", 64),
    "void": ("void", 0),
}

#: ctypes scalar names → (kind, bits).
_CTYPES_SCALARS = {
    "c_int64": ("int", 64),
    "c_int32": ("int", 32),
    "c_int16": ("int", 16),
    "c_int8": ("int", 8),
    "c_uint64": ("uint", 64),
    "c_uint32": ("uint", 32),
    "c_uint16": ("uint", 16),
    "c_uint8": ("uint", 8),
    "c_double": ("float", 64),
    "c_float": ("float", 32),
    "c_size_t": ("uint", 64),
    "c_longlong": ("int", 64),
    "c_ulonglong": ("uint", 64),
}

#: NumPy dtype attribute names (``np.<name>``) → (kind, bits), used for
#: both ``ndpointer`` aliases and ``ctypes.Structure`` fields.
_NUMPY_SCALARS = {
    "int64": ("int", 64),
    "int32": ("int", 32),
    "int16": ("int", 16),
    "int8": ("int", 8),
    "uint64": ("uint", 64),
    "uint32": ("uint", 32),
    "uint16": ("uint", 16),
    "uint8": ("uint", 8),
    "float64": ("float", 64),
    "float32": ("float", 32),
    "bool_": ("uint", 8),
}


class AbiParseError(ValueError):
    """The source uses a construct the contract parser does not model.

    Raised instead of guessing: an unparseable declaration is itself a
    contract problem (the verifier must be extended alongside the code).
    """


@dataclass(frozen=True)
class CParam:
    name: str
    ctype: CType


@dataclass(frozen=True)
class CFunction:
    """One exported (non-static) C function prototype."""

    name: str
    restype: CType
    params: Tuple[CParam, ...]
    line: int


@dataclass(frozen=True)
class CStructField:
    name: str
    ctype: CType
    offset: int
    count: int = 1  # array fields: element count

    @property
    def nbytes(self) -> int:
        return (self.ctype.bits // 8 or 1) * self.count


@dataclass(frozen=True)
class CStruct:
    """One C struct with its natural-alignment layout resolved."""

    name: str
    fields: Tuple[CStructField, ...]
    size: int
    line: int


@dataclass(frozen=True)
class AbiFinding:
    """One detected contract breach."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.code} {self.message}"


@dataclass
class AbiReport:
    """Outcome of one ABI verification pass."""

    findings: List[AbiFinding] = field(default_factory=list)
    functions_checked: int = 0
    structs_checked: int = 0
    sections_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> List[str]:
        return sorted({finding.code for finding in self.findings})


# ---------------------------------------------------------------------------
# C side: prototype + struct parsing
# ---------------------------------------------------------------------------
_C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)

# A function *definition*: type tokens, name, parameter list, open brace.
# Parameter lists in this codebase never contain parentheses (no function
# pointers), so a non-greedy [^()]* parameter body is exact.
_C_FUNCTION = re.compile(
    r"(?P<head>(?:[A-Za-z_][A-Za-z0-9_]*\s+)+\*?)\s*"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\((?P<params>[^()]*)\)\s*\{",
    re.DOTALL,
)

_C_STRUCT = re.compile(
    r"(?:typedef\s+)?struct\s*(?P<tag>[A-Za-z_][A-Za-z0-9_]*)?\s*"
    r"\{(?P<body>[^{}]*)\}\s*(?P<alias>[A-Za-z_][A-Za-z0-9_]*)?\s*;",
    re.DOTALL,
)

_C_FIELD = re.compile(
    r"(?P<type>[A-Za-z_][A-Za-z0-9_]*(?:\s+[A-Za-z_][A-Za-z0-9_]*)*)\s*"
    r"(?P<ptr>\*?)\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:\[(?P<count>\d+)\])?\s*;"
)


def _strip_c_comments(source: str) -> str:
    """Blank out comments, preserving newlines so line numbers survive."""

    def blank(match: "re.Match[str]") -> str:
        return "".join(ch if ch == "\n" else " " for ch in match.group(0))

    return _C_COMMENT.sub(blank, source)


def _parse_c_type(tokens: Sequence[str], pointer: bool, context: str) -> CType:
    names = [token for token in tokens if token not in ("const", "restrict")]
    if len(names) != 1 or names[0] not in _C_SCALARS:
        raise AbiParseError(
            f"unsupported C type {' '.join(tokens)!r} in {context}; "
            "extend repro.analysis.abi's scalar table if this is deliberate"
        )
    kind, bits = _C_SCALARS[names[0]]
    return CType(kind=kind, bits=bits, pointer=pointer)


def _parse_c_param(raw: str, context: str) -> CParam:
    text = raw.strip()
    pointer = "*" in text
    text = text.replace("*", " ")
    tokens = text.split()
    if len(tokens) < 2:
        raise AbiParseError(f"unparseable parameter {raw!r} in {context}")
    return CParam(
        name=tokens[-1], ctype=_parse_c_type(tokens[:-1], pointer, context)
    )


def parse_c_exports(source: str) -> List[CFunction]:
    """Every exported (non-``static``) function definition in ``source``."""
    clean = _strip_c_comments(source)
    functions: List[CFunction] = []
    for match in _C_FUNCTION.finditer(clean):
        head = match.group("head")
        tokens = head.replace("*", " * ").split()
        if "static" in tokens or "inline" in tokens:
            continue
        pointer = "*" in tokens
        type_tokens = [token for token in tokens if token != "*"]
        name = match.group("name")
        # Control-flow keywords can match the pattern (`if (...) {`).
        if name in ("if", "for", "while", "switch", "return"):
            continue
        restype = _parse_c_type(type_tokens, pointer, f"{name} return type")
        params_src = match.group("params").strip()
        params: List[CParam] = []
        if params_src and params_src != "void":
            for raw in params_src.split(","):
                params.append(_parse_c_param(raw, f"{name} parameters"))
        line = clean.count("\n", 0, match.start()) + 1
        functions.append(
            CFunction(
                name=name, restype=restype, params=tuple(params), line=line
            )
        )
    return functions


def parse_c_structs(source: str) -> List[CStruct]:
    """Every flat struct in ``source`` with natural-alignment layout.

    Offsets follow the System V x86-64 rules for flat scalar members:
    each member is aligned to its own size, the struct to its widest
    member. That is exactly what ``ctypes.Structure`` computes, so the
    two layouts are directly comparable — including implicit padding.
    """
    clean = _strip_c_comments(source)
    structs: List[CStruct] = []
    for match in _C_STRUCT.finditer(clean):
        name = match.group("alias") or match.group("tag")
        if not name:
            raise AbiParseError("anonymous struct is not bindable over ctypes")
        fields: List[CStructField] = []
        offset = 0
        max_align = 1
        for field_match in _C_FIELD.finditer(match.group("body")):
            pointer = bool(field_match.group("ptr"))
            ctype = _parse_c_type(
                field_match.group("type").split(), pointer, f"struct {name}"
            )
            size = 8 if pointer else max(ctype.bits // 8, 1)
            count = int(field_match.group("count") or 1)
            align = size
            max_align = max(max_align, align)
            offset = (offset + align - 1) // align * align
            fields.append(
                CStructField(
                    name=field_match.group("name"),
                    ctype=ctype,
                    offset=offset,
                    count=count,
                )
            )
            offset += size * count
        size = (offset + max_align - 1) // max_align * max_align
        line = clean.count("\n", 0, match.start()) + 1
        structs.append(
            CStruct(name=name, fields=tuple(fields), size=size, line=line)
        )
    return structs


# ---------------------------------------------------------------------------
# Python side: static ctypes declaration extraction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PyBinding:
    """One ``library.<symbol>`` binding's declared ctypes signature.

    ``argtypes`` entries and ``restype`` are :class:`CType` descriptors;
    a ``c_void_p`` argument becomes ``CType('void', 0, pointer=True)``
    (an untyped, nullable pointer that matches any C pointer parameter).
    """

    symbol: str
    restype: Optional[CType]
    argtypes: Tuple[CType, ...]
    line: int


@dataclass(frozen=True)
class PyStruct:
    """One ``ctypes.Structure`` subclass's declared ``_fields_``."""

    name: str
    fields: Tuple[Tuple[str, CType], ...]
    line: int


def _attr_chain(node: ast.expr) -> Optional[str]:
    """Dotted name of an attribute chain (``np.ctypeslib.ndpointer``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _CtypesExtractor(ast.NodeVisitor):
    """Collects ndpointer aliases, ``library.X`` bindings and Structures
    from the static AST of a module (no import, no compile)."""

    def __init__(self) -> None:
        self.bindings: Dict[str, PyBinding] = {}
        self.structures: Dict[str, PyStruct] = {}
        # name → CType for `i64 = pointer(np.int64, ...)` style aliases
        self._aliases: Dict[str, CType] = {}
        # names bound to np.ctypeslib.ndpointer itself
        self._ndpointer_names = {"ndpointer"}
        # local variable → library symbol (`fn = library.fused_expand`)
        self._symbols: Dict[str, str] = {}
        self._errors: List[str] = []

    # -- type resolution ------------------------------------------------
    def _resolve_dtype(self, node: ast.expr) -> Optional[Tuple[str, int]]:
        chain = _attr_chain(node) or (
            node.id if isinstance(node, ast.Name) else None
        )
        if chain is None:
            return None
        leaf = chain.split(".")[-1]
        return _NUMPY_SCALARS.get(leaf)

    def _resolve_ctype(self, node: ast.expr, context: str) -> Optional[CType]:
        if isinstance(node, ast.Name) and node.id in self._aliases:
            return self._aliases[node.id]
        chain = _attr_chain(node)
        if chain is not None:
            leaf = chain.split(".")[-1]
            if leaf == "c_void_p":
                return CType("void", 0, pointer=True)
            if leaf in _CTYPES_SCALARS:
                kind, bits = _CTYPES_SCALARS[leaf]
                return CType(kind, bits)
            if leaf in _NUMPY_SCALARS:
                kind, bits = _NUMPY_SCALARS[leaf]
                return CType(kind, bits)
        if isinstance(node, ast.Call):
            pointer = self._pointer_call(node)
            if pointer is not None:
                return pointer
        self._errors.append(
            f"{context}: cannot resolve ctypes declaration "
            f"{ast.dump(node)[:80]}"
        )
        return None

    def _pointer_call(self, node: ast.Call) -> Optional[CType]:
        """An inline ``ndpointer(np.int64, ...)`` call, if that is what
        this is."""
        callee = _attr_chain(node.func) or (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        if callee is None:
            return None
        if callee.split(".")[-1] not in self._ndpointer_names:
            return None
        if not node.args:
            return None
        resolved = self._resolve_dtype(node.args[0])
        if resolved is None:
            return None
        kind, bits = resolved
        return CType(kind, bits, pointer=True)

    # -- assignments ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self._record_name_assign(target.id, node.value)
            elif isinstance(target, ast.Attribute):
                self._record_attr_assign(target, node.value, node.lineno)
        self.generic_visit(node)

    def _record_name_assign(self, name: str, value: ast.expr) -> None:
        # pointer = np.ctypeslib.ndpointer
        chain = _attr_chain(value)
        if chain in ("np.ctypeslib.ndpointer", "ctypeslib.ndpointer"):
            self._ndpointer_names.add(name)
            return
        # i64 = pointer(np.int64, flags=...)
        if isinstance(value, ast.Call):
            pointer = self._pointer_call(value)
            if pointer is not None:
                self._aliases[name] = pointer
                return
        # fn = library.fused_expand
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "library"
        ):
            self._symbols[name] = value.attr

    def _record_attr_assign(
        self, target: ast.Attribute, value: ast.expr, line: int
    ) -> None:
        if not isinstance(target.value, ast.Name):
            return
        symbol = self._symbols.get(target.value.id)
        if symbol is None:
            return
        existing = self.bindings.get(symbol) or PyBinding(
            symbol=symbol, restype=None, argtypes=(), line=line
        )
        if target.attr == "restype":
            if isinstance(value, ast.Constant) and value.value is None:
                restype: Optional[CType] = CType("void", 0)
            else:
                restype = self._resolve_ctype(value, f"{symbol}.restype")
            self.bindings[symbol] = PyBinding(
                symbol=symbol,
                restype=restype,
                argtypes=existing.argtypes,
                line=existing.line if existing.argtypes else line,
            )
        elif target.attr == "argtypes":
            if not isinstance(value, (ast.List, ast.Tuple)):
                self._errors.append(
                    f"{symbol}.argtypes is not a literal list"
                )
                return
            argtypes: List[CType] = []
            for element in value.elts:
                resolved = self._resolve_ctype(
                    element, f"{symbol}.argtypes[{len(argtypes)}]"
                )
                if resolved is None:
                    return
                argtypes.append(resolved)
            self.bindings[symbol] = PyBinding(
                symbol=symbol,
                restype=existing.restype,
                argtypes=tuple(argtypes),
                line=line,
            )

    # -- ctypes.Structure subclasses ------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_structure = any(
            (_attr_chain(base) or "").split(".")[-1] == "Structure"
            for base in node.bases
        )
        if is_structure:
            fields: List[Tuple[str, CType]] = []
            for statement in node.body:
                if not (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                    and statement.targets[0].id == "_fields_"
                    and isinstance(statement.value, (ast.List, ast.Tuple))
                ):
                    continue
                for element in statement.value.elts:
                    if not (
                        isinstance(element, ast.Tuple)
                        and len(element.elts) == 2
                        and isinstance(element.elts[0], ast.Constant)
                    ):
                        self._errors.append(
                            f"struct {node.name}: unparseable _fields_ entry"
                        )
                        continue
                    resolved = self._resolve_ctype(
                        element.elts[1], f"struct {node.name}"
                    )
                    if resolved is not None:
                        fields.append(
                            (str(element.elts[0].value), resolved)
                        )
            self.structures[node.name] = PyStruct(
                name=node.name, fields=tuple(fields), line=node.lineno
            )
        self.generic_visit(node)

    @property
    def errors(self) -> List[str]:
        return self._errors


def extract_ctypes_declarations(
    source: str,
) -> Tuple[Dict[str, PyBinding], Dict[str, PyStruct], List[str]]:
    """Static ctypes declarations of a module: bindings, Structures,
    and any resolution errors (themselves reported as findings)."""
    extractor = _CtypesExtractor()
    extractor.visit(ast.parse(source))
    return extractor.bindings, extractor.structures, extractor.errors


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------
def _types_compatible(c_type: CType, py_type: CType) -> bool:
    if py_type.kind == "void" and py_type.pointer:
        # c_void_p: untyped nullable pointer, matches any C pointer.
        return c_type.pointer
    if c_type.pointer != py_type.pointer:
        return False
    return c_type.kind == py_type.kind and c_type.bits == py_type.bits


def _check_functions(
    functions: Sequence[CFunction],
    bindings: Dict[str, PyBinding],
    c_path: str,
    py_path: str,
    findings: List[AbiFinding],
) -> int:
    exported = {function.name: function for function in functions}
    for function in functions:
        binding = bindings.get(function.name)
        location = f"{c_path}:{function.line}"
        if binding is None:
            findings.append(
                AbiFinding(
                    "RPRABI01",
                    location,
                    f"exported symbol '{function.name}' has no ctypes "
                    f"binding in {py_path}",
                )
            )
            continue
        py_location = f"{py_path}:{binding.line}"
        if len(binding.argtypes) != len(function.params):
            findings.append(
                AbiFinding(
                    "RPRABI03",
                    py_location,
                    f"'{function.name}' takes {len(function.params)} C "
                    f"parameter(s) but argtypes declares "
                    f"{len(binding.argtypes)}",
                )
            )
            continue
        for index, (param, declared) in enumerate(
            zip(function.params, binding.argtypes)
        ):
            if not _types_compatible(param.ctype, declared):
                findings.append(
                    AbiFinding(
                        "RPRABI04",
                        py_location,
                        f"'{function.name}' parameter {index} "
                        f"('{param.name}') is {param.ctype} in C but "
                        f"declared {declared} in argtypes",
                    )
                )
        if binding.restype is None or not _types_compatible(
            function.restype, binding.restype
        ):
            declared_res = (
                str(binding.restype) if binding.restype else "<unresolved>"
            )
            findings.append(
                AbiFinding(
                    "RPRABI05",
                    py_location,
                    f"'{function.name}' returns {function.restype} in C "
                    f"but restype declares {declared_res}",
                )
            )
    for symbol, binding in sorted(bindings.items()):
        if symbol not in exported:
            findings.append(
                AbiFinding(
                    "RPRABI02",
                    f"{py_path}:{binding.line}",
                    f"ctypes binding '{symbol}' has no exported symbol "
                    f"in {c_path}",
                )
            )
    return len(exported)


def _check_structs(
    c_structs: Sequence[CStruct],
    py_structs: Dict[str, PyStruct],
    c_path: str,
    py_path: str,
    findings: List[AbiFinding],
) -> int:
    checked = 0
    c_by_name = {struct.name: struct for struct in c_structs}
    for struct in c_structs:
        mirror = py_structs.get(struct.name)
        location = f"{c_path}:{struct.line}"
        if mirror is None:
            findings.append(
                AbiFinding(
                    "RPRABI06",
                    location,
                    f"C struct '{struct.name}' has no ctypes.Structure "
                    f"mirror in {py_path}",
                )
            )
            continue
        checked += 1
        c_fields = [(f.name, f.ctype) for f in struct.fields]
        py_fields = list(mirror.fields)
        if c_fields != py_fields:
            findings.append(
                AbiFinding(
                    "RPRABI06",
                    location,
                    f"struct '{struct.name}' layout drifted: C declares "
                    f"{[(n, str(t)) for n, t in c_fields]} but "
                    f"ctypes.Structure declares "
                    f"{[(n, str(t)) for n, t in py_fields]}",
                )
            )
    for name, mirror in sorted(py_structs.items()):
        if name not in c_by_name:
            findings.append(
                AbiFinding(
                    "RPRABI06",
                    f"{py_path}:{mirror.line}",
                    f"ctypes.Structure '{name}' has no C struct "
                    f"counterpart in {c_path}",
                )
            )
    return checked


def _check_store_contract(findings: List[AbiFinding]) -> int:
    """``.csrstore`` header dtypes/alignment vs the kernel's views."""
    from ..graph import store

    store_path = "graph/store.py"
    dtypes = dict(store.SECTION_DTYPES)
    checked = 0
    for section, (kind, bits) in sorted(KERNEL_VIEW_CONTRACT.items()):
        declared = dtypes.get(section)
        if declared is None:
            findings.append(
                AbiFinding(
                    "RPRABI07",
                    store_path,
                    f"section '{section}' (a kernel view) is missing "
                    "from SECTION_DTYPES",
                )
            )
            continue
        checked += 1
        dtype = np.dtype(declared)
        expected_kind = {"int": "i", "uint": "u", "float": "f"}[kind]
        if dtype.kind != expected_kind or dtype.itemsize * 8 != bits:
            findings.append(
                AbiFinding(
                    "RPRABI07",
                    store_path,
                    f"section '{section}' is {declared!r} on disk but "
                    f"the kernel view expects {kind}{bits} "
                    "(KERNEL_VIEW_CONTRACT)",
                )
            )
        if dtype.byteorder == ">":
            findings.append(
                AbiFinding(
                    "RPRABI08",
                    store_path,
                    f"section '{section}' is big-endian on disk; the "
                    "kernel reads native little-endian views",
                )
            )
    # Every section's payload — derived ones included — must stay aligned
    # for a zero-copy memmap view: the fixed header block and the
    # inter-section alignment must both be multiples of each item size.
    every_section = {**dtypes, **dict(store.DERIVED_SECTION_DTYPES)}
    for section, declared in sorted(every_section.items()):
        itemsize = np.dtype(declared).itemsize
        if store.SECTION_ALIGN % itemsize or store.HEADER_BLOCK % itemsize:
            findings.append(
                AbiFinding(
                    "RPRABI08",
                    store_path,
                    f"section '{section}' ({declared!r}, {itemsize}B "
                    f"items) is not guaranteed {itemsize}B-aligned by "
                    f"SECTION_ALIGN={store.SECTION_ALIGN} / "
                    f"HEADER_BLOCK={store.HEADER_BLOCK}",
                )
            )
    # And the actual planner must honor SECTION_ALIGN (belt to the
    # declaration's braces): verify a representative plan.
    sections, _ = store._section_plan(1000, 5000, 4096, 512)
    for name, section in sections.items():
        if section.offset % store.SECTION_ALIGN:
            findings.append(
                AbiFinding(
                    "RPRABI08",
                    store_path,
                    f"_section_plan places '{name}' at offset "
                    f"{section.offset}, not {store.SECTION_ALIGN}B-aligned",
                )
            )
    return checked


def _inject_drift(functions: List[CFunction]) -> List[CFunction]:
    """Seeded ABI drift: swap ``fused_expand``'s CSR parameter types.

    Simulates the classic silent break — someone widens ``indices`` to
    int64 in C (or narrows ``indptr``) without touching the ctypes
    declaration. The parsed representation is mutated, exactly as if
    the source had been edited.
    """
    drifted: List[CFunction] = []
    for function in functions:
        if function.name != "fused_expand":
            drifted.append(function)
            continue
        params = list(function.params)
        indptr = next(
            i for i, p in enumerate(params) if p.name == "indptr"
        )
        indices = next(
            i for i, p in enumerate(params) if p.name == "indices"
        )
        params[indptr] = CParam(params[indptr].name, params[indices].ctype)
        params[indices] = CParam(
            params[indices].name, CType("int", 64, pointer=True)
        )
        drifted.append(
            CFunction(
                name=function.name,
                restype=function.restype,
                params=tuple(params),
                line=function.line,
            )
        )
    return drifted


def run_abi_check(
    inject: Optional[str] = None,
    kernel_source: Optional[str] = None,
    native_source: Optional[str] = None,
) -> AbiReport:
    """The full ABI verification pass.

    Args:
        inject: ``"swap"`` seeds the deterministic parameter-type drift
            (see :func:`_inject_drift`); ``None`` verifies the real
            sources.
        kernel_source / native_source: override the on-disk sources
            (tests use this to verify detection of synthetic drift).
    """
    report = AbiReport()
    kernel_src = (
        kernel_source
        if kernel_source is not None
        else KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    )
    native_src = (
        native_source
        if native_source is not None
        else NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    )
    try:
        functions = parse_c_exports(kernel_src)
        c_structs = parse_c_structs(kernel_src)
    except AbiParseError as exc:
        report.findings.append(
            AbiFinding("RPRABI01", "parallel/_kernel.c", str(exc))
        )
        return report
    if inject == "swap":
        functions = _inject_drift(functions)
    elif inject is not None:
        raise ValueError(f"unknown ABI injection {inject!r}")

    bindings, py_structs, errors = extract_ctypes_declarations(native_src)
    for error in errors:
        report.findings.append(
            AbiFinding("RPRABI02", "parallel/_native.py", error)
        )

    report.functions_checked += _check_functions(
        functions,
        bindings,
        "parallel/_kernel.c",
        "parallel/_native.py",
        report.findings,
    )
    report.structs_checked += _check_structs(
        c_structs,
        py_structs,
        "parallel/_kernel.c",
        "parallel/_native.py",
        report.findings,
    )

    # The sanitizer smoke fixture rides the same contract: its symbols
    # are declared in sanitize.SMOKE_BINDINGS (live ctypes objects, so
    # they are converted rather than AST-parsed).
    if kernel_source is None and native_source is None:
        from . import sanitize

        smoke_functions = parse_c_exports(
            SMOKE_SOURCE_PATH.read_text(encoding="utf-8")
        )
        smoke_bindings = {
            name: PyBinding(
                symbol=name,
                restype=_ctypes_object_to_ctype(restype),
                argtypes=tuple(
                    _ctypes_object_to_ctype(a) for a in argtypes
                ),
                line=0,
            )
            for name, (restype, argtypes) in sanitize.SMOKE_BINDINGS.items()
        }
        report.functions_checked += _check_functions(
            smoke_functions,
            smoke_bindings,
            "analysis/_smoke.c",
            "analysis/sanitize.py",
            report.findings,
        )
        report.sections_checked += _check_store_contract(report.findings)

    report.findings.sort(key=lambda f: (f.code, f.location))
    return report


def _ctypes_object_to_ctype(obj: object) -> CType:
    """Map a live ctypes type object to a canonical descriptor."""
    import ctypes

    if obj is None:
        return CType("void", 0)
    if obj is ctypes.c_void_p:
        return CType("void", 0, pointer=True)
    name = getattr(obj, "__name__", "")
    if name in _CTYPES_SCALARS:
        kind, bits = _CTYPES_SCALARS[name]
        return CType(kind, bits)
    # Fixed-width ctypes names are platform aliases (c_int64 IS c_long on
    # LP64), so resolve through the _type_ code + actual size instead.
    if isinstance(obj, type) and issubclass(obj, ctypes._SimpleCData):
        code = getattr(obj, "_type_", "")
        bits = ctypes.sizeof(obj) * 8
        if code in "bhilq":
            return CType("int", bits)
        if code in "BHILQ":
            return CType("uint", bits)
        if code in "fd":
            return CType("float", bits)
    raise AbiParseError(f"unsupported ctypes object {obj!r} in SMOKE_BINDINGS")


def format_report(report: AbiReport) -> str:
    """Human-readable summary for ``repro check``."""
    lines = [str(finding) for finding in report.findings]
    lines.append(
        f"{len(report.findings)} finding(s); "
        f"{report.functions_checked} function(s), "
        f"{report.structs_checked} struct(s), "
        f"{report.sections_checked} store section(s) checked"
    )
    return "\n".join(lines)
