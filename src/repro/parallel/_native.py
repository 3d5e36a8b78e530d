"""On-demand compiled native tier: stage one's expansion and stage two.

The paper's CPU engine is native code; a NumPy reproduction pays an
interpreter-dispatch and memory-traffic tax on every whole-array pass.
This module closes that gap without adding a build step or a
dependency: ``_kernel.c`` (the byte-lane expansion for every q ≤ 64 and
stage two's extraction and ranking) is compiled once per source hash
with whatever system C compiler is available and loaded through
:mod:`ctypes`.

Every search route needs it. :func:`load_kernel` returns the loaded
kernel or raises :class:`NativeKernelUnavailable`, whose message
carries why (the compiler's diagnostic, or the load's exception), and
raises ``ValueError`` on a ``REPRO_SANITIZE`` it does not know.
Nothing outside this package directory is written; the shared object
lands in ``_build/`` next to the source and is reused across processes.

The kernel's ABI is declared once, in :data:`KERNEL_EXPORTS`. The
ctypes argtypes derive from it, and so does a C header the kernel is
compiled against (``-include``, with ``-Werror=missing-prototypes``):
a definition that drifts from its declaration is a "conflicting types"
error and an undeclared export a "no previous prototype" error, both
naming the symbol, on every host at first load.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs.config import ENV_SANITIZE, sanitize_value

# ``REPRO_SANITIZE`` selects a sanitized build, compiled to its own
# shared object (the sanitizer set is part of the cache key), so
# sanitized and plain kernels coexist in ``_build/``. Loading an ASan
# kernel into a non-ASan Python requires the ASan runtime to be
# preloaded — :mod:`repro.analysis.sanitize` prepares such an
# environment and runs the checks in a subprocess.

#: Sanitizers this tier knows how to wire up. ``thread`` compiles with
#: ``-fsanitize=thread`` into its own cached object; note that the TSan
#: runtime cannot be preloaded into an uninstrumented Python, so the
#: race tier executes through the instrumented harness binary built by
#: :mod:`repro.analysis.sanitize` rather than a sanitized ``.so`` in a
#: Python child.
KNOWN_SANITIZERS = ("address", "thread", "undefined")

_SOURCE_PATH = Path(__file__).with_name("_kernel.c")
_BUILD_DIR = Path(__file__).with_name("_build")

#: A C export table: each symbol's return type and its parameters as
#: ``(name, C type)`` pairs, constness included.
Exports = Dict[str, Tuple[str, Tuple[Tuple[str, str], ...]]]

#: The kernel's four exports, declared once. The ctypes declarations
#: (:class:`NativeKernel`) and the header ``_kernel.c`` is compiled
#: against (:func:`render_header`) both derive from this table, so an
#: edit on either side that the other does not match fails the build.
KERNEL_EXPORTS: Exports = {
    "fused_expand": ("int64_t", (
        ("n", "int64_t"),
        ("n_chunk", "int64_t"),
        ("chunk", "const int64_t*"),
        ("indptr", "const int64_t*"),
        ("indices", "const int32_t*"),
        ("matrix", "uint8_t*"),
        ("q", "int64_t"),
        ("fid", "uint8_t*"),
        ("cid", "const uint8_t*"),
        ("keyword_node", "const uint8_t*"),
        ("activation", "const int32_t*"),
        ("level", "uint8_t"),
        ("may_block", "int64_t"),
        ("out_keys", "int64_t*"),
        ("stats_out", "int64_t*"),
    )),
    "whole_level_step": ("int64_t", (
        ("n", "int64_t"),
        ("indptr", "const int64_t*"),
        ("indices", "const int32_t*"),
        ("matrix", "uint8_t*"),
        ("q", "int64_t"),
        ("fid", "uint8_t*"),
        ("cid", "uint8_t*"),
        ("keyword_node", "const uint8_t*"),
        ("activation", "const int32_t*"),
        ("central_level", "int16_t*"),
        ("finite_count", "int32_t*"),
        ("level", "uint8_t"),
        ("central_have", "int64_t"),
        ("k", "int64_t"),
        ("may_expand", "int64_t"),
        ("may_block", "int64_t"),
        ("frontier_out", "int64_t*"),
        ("central_out", "int64_t*"),
        ("stats_out", "int64_t*"),
    )),
    "extract_graphs": ("int64_t", (
        ("n", "int64_t"),
        ("indptr", "const int64_t*"),
        ("indices", "const int32_t*"),
        ("matrix", "const uint8_t*"),
        ("q", "int64_t"),
        ("activation", "const int32_t*"),
        ("keyword_node", "const uint8_t*"),
        ("central_level", "const int16_t*"),
        ("weights", "const double*"),
        ("n_centrals", "int64_t"),
        ("centrals", "const int64_t*"),
        ("apply_level_cover", "int64_t"),
        ("marks", "int32_t*"),
        ("stack", "int64_t*"),
        ("members", "int64_t*"),
        ("pairs", "int64_t*"),
        ("pair_capacity", "int64_t"),
        ("out_nodes", "int64_t*"),
        ("node_capacity", "int64_t"),
        ("out_edges", "int64_t*"),
        ("edge_capacity", "int64_t"),
        ("node_counts", "int64_t*"),
        ("edge_counts", "int64_t*"),
        ("raw_counts", "int64_t*"),
        ("mass", "double*"),
        ("needed", "int64_t*"),
    )),
    "rank_graphs": ("int64_t", (
        ("n", "int64_t"),
        ("matrix", "const uint8_t*"),
        ("q", "int64_t"),
        ("n_graphs", "int64_t"),
        ("centrals", "const int64_t*"),
        ("depths", "const int64_t*"),
        ("factors", "const double*"),
        ("nodes", "const int64_t*"),
        ("node_counts", "const int64_t*"),
        ("edges", "int64_t*"),
        ("edge_counts", "int64_t*"),
        ("mass", "const double*"),
        ("deduplicate", "int64_t"),
        ("k", "int64_t"),
        ("marks", "int32_t*"),
        ("order", "int64_t*"),
        ("sketch", "uint64_t*"),
        ("node_offsets", "int64_t*"),
        ("edge_offsets", "int64_t*"),
        ("scores", "double*"),
        ("masks", "uint64_t*"),
    )),
}

#: C scalar type -> (ctypes scalar, NumPy element type of a pointer to it).
_SCALARS = {
    "int64_t": (ctypes.c_int64, np.int64),
    "int32_t": (ctypes.c_int32, np.int32),
    "int16_t": (ctypes.c_int16, np.int16),
    "uint64_t": (ctypes.c_uint64, np.uint64),
    "uint8_t": (ctypes.c_uint8, np.uint8),
    "double": (ctypes.c_double, np.float64),
}

#: Flag sets to attempt, best first; ``-march=native`` is dropped for
#: toolchains that reject it.
_FLAG_SETS = (
    ("-O3", "-march=native"),
    ("-O3",),
    ("-O2",),
)


def sanitize_selection(value: Optional[str] = None) -> "tuple[str, ...]":
    """Parse ``REPRO_SANITIZE`` into a sorted tuple of sanitizer names.

    Unknown names raise ``ValueError`` — a typo silently compiling an
    unsanitized kernel would defeat the whole point.
    """
    raw = sanitize_value() if value is None else value
    selected = sorted({part.strip() for part in raw.split(",") if part.strip()})
    unknown = [name for name in selected if name not in KNOWN_SANITIZERS]
    if unknown:
        raise ValueError(
            f"unknown sanitizer(s) {unknown!r} in {ENV_SANITIZE}; "
            f"known: {', '.join(KNOWN_SANITIZERS)}"
        )
    if "thread" in selected and "address" in selected:
        # The two runtimes shadow memory differently and refuse to
        # coexist in one process; a combined build links but crashes.
        raise ValueError(
            f"'address' and 'thread' cannot be combined in {ENV_SANITIZE}"
        )
    return tuple(selected)


def sanitize_cflags(selection: "tuple[str, ...]") -> "tuple[str, ...]":
    """Extra compile flags for a sanitized build (empty when none)."""
    if not selection:
        return ()
    flags = (
        f"-fsanitize={','.join(selection)}",
        "-fno-omit-frame-pointer",
        "-g",
    )
    if "thread" in selection:
        # TSan needs the pthread interceptors linked into the object.
        flags += ("-pthread",)
    return flags


class NativeKernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or used on this host. Every
    search route runs on it, so a host without a C compiler (or a
    big-endian one) fails here, once, with the compilers it tried and
    what the last one said."""


def _compilers() -> "list[str]":
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    seen: "list[str]" = []
    for name in candidates:
        if name and name not in seen:
            seen.append(name)
    return seen


def render_header(exports: Exports) -> str:
    """``exports`` as the C prototypes a source is compiled against."""
    lines = [
        "/* Generated from an export table in repro.parallel._native. */",
        "#include <stdint.h>",
    ]
    for symbol, (restype, params) in exports.items():
        arguments = ", ".join(f"{ctype} {name}" for name, ctype in params)
        lines.append(f"{restype} {symbol}({arguments});")
    return "\n".join(lines) + "\n"


def write_header(exports: Exports, directory: Path, stem: str) -> Path:
    """:func:`render_header` of ``exports`` in ``directory``, named by its
    digest (so a table edit never reuses an old header), written once."""
    text = render_header(exports)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    target = directory / f"{stem}-{digest}.h"
    if not target.exists():
        directory.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=str(directory), suffix=".h", delete=False
        )
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    return target


def declared_flags(header: Path) -> "tuple[str, ...]":
    """Compile against ``header``: a definition that does not match its
    prototype, or an export without one, is an error naming it."""
    return ("-include", str(header), "-Werror=missing-prototypes")


def _failure(compiler: str, result: "subprocess.CompletedProcess[str]") -> str:
    """A failed compile in brief: its error lines (a declaration drift
    names its symbol there), or the tail of its output if none says
    "error"."""
    lines = result.stderr.strip().splitlines()
    shown = [line for line in lines if "error" in line][:10] or lines[-20:]
    return f"{compiler} exited {result.returncode}:\n" + "\n".join(shown)


def _located(
    result: "subprocess.CompletedProcess[str]", *paths: Path
) -> bool:
    """Whether a diagnostic of ``result`` points into one of ``paths``
    (the source or its header): then the code is wrong, and no other
    flag set or compiler will accept it."""
    prefixes = tuple(f"{path}:" for path in paths)
    return any(line.startswith(prefixes) for line in result.stderr.splitlines())


def _output_flags(shared: bool) -> "tuple[str, ...]":
    """What makes a build a shared object rather than an executable."""
    return ("-shared", "-fPIC") if shared else ()


def build_digest(
    sources: "tuple[Path, ...]",
    exports: Exports,
    extra_flags: "tuple[str, ...]" = (),
    shared: bool = True,
) -> str:
    """The cache key of one :func:`_compile` build: the ``sources``, the
    header rendered from ``exports``, and the recipe — every flag set
    it may try, ``extra_flags`` and the output kind. A build made under
    another recipe is never reused."""
    recipe = repr((_FLAG_SETS, tuple(extra_flags), _output_flags(shared)))
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.read_bytes())
    digest.update(render_header(exports).encode())
    digest.update(recipe.encode())
    return digest.hexdigest()[:16]


def _compile(
    sources: "tuple[Path, ...]",
    target: Path,
    header: Path,
    extra_flags: "tuple[str, ...]" = (),
    shared: bool = True,
) -> Optional[str]:
    """Try (compiler, flags) pairs until one produces ``target`` — a
    shared object, or with ``shared=False`` an executable — from
    ``sources`` compiled against ``header``. Returns ``None`` then, and
    otherwise what the last compiler that ran said (or why the first
    could not run, if none did). Only a rejected flag set or a compiler
    that does not run moves on to the next pair: the first diagnostic
    located in a source or ``header`` ends the search."""
    target.parent.mkdir(parents=True, exist_ok=True)
    output_flags = _output_flags(shared)
    failure = ""
    for compiler in _compilers():
        for flags in _FLAG_SETS:
            handle = tempfile.NamedTemporaryFile(
                dir=str(target.parent), suffix=target.suffix, delete=False
            )
            handle.close()
            tmp = Path(handle.name)
            cmd = [
                compiler,
                *flags,
                *extra_flags,
                *declared_flags(header),
                *output_flags,
                *map(str, sources),
                "-o",
                str(tmp),
            ]
            try:
                result = subprocess.run(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=120,
                    check=False,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                tmp.unlink(missing_ok=True)
                failure = failure or f"{compiler}: {exc}"
                continue
            if result.returncode == 0 and tmp.stat().st_size > 0:
                # Atomic publish: concurrent builders race harmlessly.
                os.replace(tmp, target)
                return None
            tmp.unlink(missing_ok=True)
            failure = _failure(compiler, result)
            if _located(result, *sources, header):
                return failure
    return failure


def syntax_errors(source: Path, header: Path) -> str:
    """What the first C compiler that runs says about ``source`` compiled
    against ``header``, generating no code: empty when it accepts it."""
    for compiler in _compilers():
        try:
            result = subprocess.run(
                [compiler, "-fsyntax-only", *declared_flags(header),
                 str(source)],
                capture_output=True,
                text=True,
                timeout=120,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        return "" if result.returncode == 0 else _failure(compiler, result)
    return f"no C compiler ran (tried {', '.join(_compilers())})"


def _ctype(declared: str) -> type:
    """The ctypes argtype of the C type ``declared``: a one-dimensional
    C-contiguous ``ndpointer`` of the element type for a pointer, the
    ctypes scalar otherwise."""
    scalar, element = _SCALARS[declared.removeprefix("const ").rstrip("*")]
    if declared.endswith("*"):
        return np.ctypeslib.ndpointer(element, ndim=1, flags="C_CONTIGUOUS")
    return scalar


def _address_type(argtype: type) -> type:
    """``c_void_p`` for an ``ndpointer`` argtype, the argtype otherwise.

    ``ndpointer`` classes derive from ``c_void_p``; the derived type takes
    an address as a plain integer and checks nothing.
    """
    return ctypes.c_void_p if issubclass(argtype, ctypes.c_void_p) else argtype


def _by_address(
    library: ctypes.CDLL, declared: "ctypes._CFuncPtr"
) -> "ctypes._CFuncPtr":
    """The symbol of ``declared`` through a second function object whose
    array arguments are plain addresses, derived from ``declared``'s
    typed argtypes. Whoever binds an address runs the ``ndpointer``
    check first: :meth:`NativeKernel._address`."""
    fn = library[declared.__name__]
    fn.restype = declared.restype
    fn.argtypes = [_address_type(t) for t in declared.argtypes]
    return fn


class Columns:
    """Fixed-length 8-byte columns carved out of one ``int64`` buffer.

    A batch's per-graph fields (counts, masses, offsets, scores, ...)
    are all sized by the batch, so they share one allocation, whose
    ``ndpointer`` check and address are taken once. Column ``name`` is
    ``self[name]`` (an ``int64`` view; ``.view(np.float64)`` /
    ``.view(np.uint64)`` for the kernel's ``double`` / ``uint64``
    columns) at address ``self.address(name)``. :meth:`carve` lays out
    each batch's columns over the same buffer, which is replaced (and
    checked, by ``check``) only when the batch needs more. ``nbytes`` is
    what the current columns span. The growable outputs and the
    one-cell-per-node scratch are separate arrays, so a sanitizer sees
    each of their bounds.
    """

    __slots__ = ("buffer", "nbytes", "_check", "_base", "_spans")

    def __init__(self, check: "Callable[[np.ndarray], int]") -> None:
        self._check = check
        self.buffer: Optional[np.ndarray] = None
        self._spans: Dict[str, Tuple[int, int]] = {}
        self.nbytes = 0

    def carve(self, **lengths: int) -> "Columns":
        """Lay the columns ``lengths`` out afresh; returns ``self``."""
        spans = {}
        total = 0
        for name, length in lengths.items():
            spans[name] = (total, total + length)
            total += length
        if self.buffer is None or total > len(self.buffer):
            self.buffer = np.empty(total, dtype=np.int64)
            self._base = self._check(self.buffer)
        self._spans = spans
        self.nbytes = 8 * total
        return self

    def trim(self, limit: int) -> None:
        """Free a buffer longer than ``limit`` cells; the next
        :meth:`carve` allocates afresh."""
        if self.buffer is not None and len(self.buffer) > limit:
            self.buffer = None
            self._spans = {}
            self.nbytes = 0

    def __getitem__(self, name: str) -> np.ndarray:
        start, end = self._spans[name]
        return self.buffer[start:end]

    def address(self, name: str) -> int:
        return self._base + 8 * self._spans[name][0]


class BoundWholeLevel:
    """``whole_level_step`` with one query's arrays bound once.

    Built by :meth:`NativeKernel.bind_whole_level`. A call takes only the
    per-level scalars and returns the frontier size. The instance holds
    the bound arrays, so their addresses stay valid for as long as it
    lives. It belongs to one query (``SearchState.whole_level``) or to
    the search arena that query leased, never to a backend: a backend
    is shared by every request thread, and the call runs with the GIL
    released.
    """

    __slots__ = ("_step", "_head", "_tail", "arrays")

    def __init__(
        self,
        step: "ctypes._CFuncPtr",
        head: "tuple[int, ...]",
        tail: "tuple[int, ...]",
        arrays: "tuple[np.ndarray, ...]",
    ) -> None:
        self._step = step
        self._head = head
        self._tail = tail
        self.arrays = arrays

    def __call__(
        self,
        level: int,
        central_have: int,
        k: int,
        may_expand: bool,
        may_block: bool,
    ) -> int:
        return self._step(
            *self._head,
            level,
            central_have,
            k,
            1 if may_expand else 0,
            1 if may_block else 0,
            *self._tail,
        )

    @property
    def outputs(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(frontier_out, central_out, stats_out)``, which a call fills."""
        return self.arrays[-3:]

    def state_addresses(
        self,
        matrix: np.ndarray,
        activation: np.ndarray,
        keyword_node: np.ndarray,
        central_level: np.ndarray,
    ) -> "Optional[Tuple[int, int, int, int]]":
        """The addresses this call holds for a query's ``matrix`` (bound
        as its flat view), ``activation``, ``keyword_node`` (bound as its
        ``uint8`` view) and ``central_level``, in that order — or
        ``None`` unless it was bound to exactly these arrays."""
        arrays, head = self.arrays, self._head
        if (
            arrays[2].base is matrix
            and arrays[6] is activation
            and arrays[5].base is keyword_node
            and arrays[7] is central_level
        ):
            return head[3], head[8], head[7], head[9]
        return None


class BoundGraph:
    """A graph's ``indptr`` / ``indices`` and its Eq. 6 weights, checked
    and bound once (:meth:`NativeKernel.bind_graph`). The engine that
    owns the arrays keeps it and hands it to every query's stage two;
    it holds the arrays, so their addresses stay valid while it lives.
    """

    __slots__ = ("arrays", "addresses")

    def __init__(
        self, arrays: "tuple[np.ndarray, ...]", addresses: "tuple[int, ...]"
    ) -> None:
        self.arrays = arrays
        self.addresses = addresses

    def binds(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> bool:
        """Whether this binding is of exactly these arrays."""
        bound = self.arrays
        return (
            bound[0] is indptr and bound[1] is indices and bound[2] is weights
        )


class StageTwoScratch:
    """One ``extract_graphs`` caller's arrays, each checked once, where
    it is allocated: the one-cell-per-node ``marks`` (zero between
    calls), ``stack`` and ``members``, and the growable ``pairs``,
    ``out_nodes`` and ``out_edges``, plus the per-graph
    :class:`Columns` of its ``extract`` and ``rank`` calls
    (:meth:`extract_columns`, :meth:`rank_columns`).

    :meth:`grow` replaces a buffer the kernel asked more of;
    :meth:`shrink` frees what grew past the capacities it was made
    with. A search arena keeps one per stage-two chunk across queries;
    whoever holds it is its only user.
    """

    __slots__ = (
        "arrays", "addresses", "capacities", "_extract", "_rank", "_kernel",
    )

    #: The growable buffers, in the order of ``needed`` and capacities.
    GROWABLE = ("out_nodes", "out_edges", "pairs")

    def __init__(self, kernel: "NativeKernel", **arrays: np.ndarray) -> None:
        self._kernel = kernel
        self.arrays: Dict[str, np.ndarray] = {}
        self.addresses: Dict[str, int] = {}
        for name, array in arrays.items():
            self._put(name, array)
        self.capacities = tuple(len(self.arrays[name]) for name in self.GROWABLE)
        # Each columns buffer is checked as the int64 array it is passed
        # as first.
        self._extract = Columns(
            lambda buffer: kernel._address("extract_graphs", "centrals", buffer)
        )
        self._rank = Columns(
            lambda buffer: kernel._address("rank_graphs", "centrals", buffer)
        )

    def _put(self, name: str, array: np.ndarray) -> None:
        self.addresses[name] = self._kernel._address(
            "extract_graphs", name, array
        )
        self.arrays[name] = array

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays, the columns aside."""
        return sum(array.nbytes for array in self.arrays.values())

    @property
    def columns_nbytes(self) -> int:
        """Bytes of the two columns buffers."""
        return sum(
            columns.buffer.nbytes
            for columns in (self._extract, self._rank)
            if columns.buffer is not None
        )

    def extract_columns(self, n_graphs: int) -> Columns:
        """The per-graph fields of one ``extract`` call: ``centrals``
        (filled by the caller), ``node_counts``, ``edge_counts``,
        ``raw_counts``, ``mass`` (``float64``) and ``needed`` (3)."""
        return self._extract.carve(
            centrals=n_graphs,
            node_counts=n_graphs,
            edge_counts=n_graphs,
            raw_counts=n_graphs,
            mass=n_graphs,
            needed=3,
        )

    def rank_columns(self, n_graphs: int, n_depths: int) -> Columns:
        """The per-graph fields of the ``rank`` call. The caller fills
        ``centrals``, ``depths``, ``node_counts``, ``edge_counts``,
        ``mass`` and ``factors`` (``n_depths`` entries, ``float64``); the
        call writes ``order``, ``node_offsets`` / ``edge_offsets``
        (``n_graphs + 1`` each), ``scores`` (``float64``) and rewrites
        the ranked graphs' ``edge_counts``; ``sketch`` is scratch."""
        return self._rank.carve(
            centrals=n_graphs,
            depths=n_graphs,
            node_counts=n_graphs,
            edge_counts=n_graphs,
            mass=n_graphs,
            order=n_graphs,
            sketch=n_graphs,
            node_offsets=n_graphs + 1,
            edge_offsets=n_graphs + 1,
            scores=n_graphs,
            factors=n_depths,
        )

    def grow(self, needed: "Tuple[int, int, int]") -> None:
        """Make each growable buffer at least ``needed`` (nodes, edges,
        pairs) long — what an overflowed ``extract`` asked for."""
        for name, size in zip(self.GROWABLE, needed):
            if len(self.arrays[name]) < size:
                self._put(name, np.empty(size, dtype=np.int64))

    def shrink(self) -> None:
        """Free every buffer grown past the capacity it was made with,
        and per-graph columns longer than the node capacity, so one
        large query does not pin its peak."""
        for name, capacity in zip(self.GROWABLE, self.capacities):
            if len(self.arrays[name]) > capacity:
                self._put(name, np.empty(capacity, dtype=np.int64))
        for columns in (self._extract, self._rank):
            columns.trim(self.capacities[0])


class BoundStageTwo:
    """``extract_graphs`` and ``rank_graphs`` with one query's graph and
    state arrays bound (:meth:`NativeKernel.bind_stage_two`).

    A call passes its scratch and outputs by the addresses a
    :class:`StageTwoScratch` checked when it allocated them, and each
    batch's per-graph fields as one :class:`Columns` buffer. Like
    :class:`BoundWholeLevel` it belongs to one query (or to the search
    arena that query leased), never to a backend.
    """

    __slots__ = ("_kernel", "_head", "n", "arrays")

    def __init__(
        self,
        kernel: "NativeKernel",
        head: "tuple[int, ...]",
        arrays: "tuple[np.ndarray, ...]",
    ) -> None:
        self._kernel = kernel
        #: (n, indptr, indices, matrix, q, activation, keyword_node,
        #: central_level, weights): extract_graphs' leading arguments.
        self._head = head
        self.n = head[0]
        self.arrays = arrays

    def _rank_address(self, parameter: str, array: np.ndarray) -> int:
        return self._kernel._address("rank_graphs", parameter, array)

    def scratch(self, capacities: "Tuple[int, int, int]") -> StageTwoScratch:
        """Fresh scratch for this graph: zeroed ``marks``, ``stack`` and
        ``members`` of one cell per node, and ``out_nodes``,
        ``out_edges`` and ``pairs`` of ``capacities`` cells."""
        n = self.n
        nodes, edges, pairs = capacities
        return StageTwoScratch(
            self._kernel,
            marks=np.zeros(n, dtype=np.int32),
            stack=np.empty(n, dtype=np.int64),
            members=np.empty(n, dtype=np.int64),
            pairs=np.empty(pairs, dtype=np.int64),
            out_nodes=np.empty(nodes, dtype=np.int64),
            out_edges=np.empty(edges, dtype=np.int64),
        )

    def extract(
        self,
        columns: Columns,
        apply_level_cover: bool,
        scratch: StageTwoScratch,
    ) -> bool:
        """``extract_graphs`` (:meth:`NativeKernel.bind_stage_two`) over
        ``columns["centrals"]`` (from
        :meth:`StageTwoScratch.extract_columns`), which also receives
        the per-graph outputs and ``needed``, with ``scratch``'s arrays;
        ``True`` when everything fitted."""
        arrays, address = scratch.arrays, scratch.addresses
        if not (
            len(arrays["marks"]) == len(arrays["stack"])
            == len(arrays["members"]) == self.n
        ):
            raise ValueError("marks, stack and members need one cell per node")
        status = self._kernel._bound_extract(
            *self._head,
            len(columns["centrals"]),
            columns.address("centrals"),
            1 if apply_level_cover else 0,
            address["marks"],
            address["stack"],
            address["members"],
            address["pairs"],
            len(arrays["pairs"]),
            address["out_nodes"],
            len(arrays["out_nodes"]),
            address["out_edges"],
            len(arrays["out_edges"]),
            columns.address("node_counts"),
            columns.address("edge_counts"),
            columns.address("raw_counts"),
            columns.address("mass"),
            columns.address("needed"),
        )
        return status == 0

    def rank(
        self,
        columns: Columns,
        scratch: StageTwoScratch,
        deduplicate: bool,
        k: int,
        masks: np.ndarray,
        runs: "Optional[Tuple[np.ndarray, np.ndarray]]" = None,
    ) -> int:
        """``rank_graphs`` (:meth:`NativeKernel.bind_stage_two`) on the
        batch whose per-graph fields are ``columns`` (from
        :meth:`StageTwoScratch.rank_columns`) and whose node and edge
        runs are ``scratch``'s ``out_nodes`` / ``out_edges`` — or
        ``runs``, a ``(nodes, edges)`` pair concatenated over several
        scratches; ``scratch``'s ``marks`` are the call's. Returns the
        survivors of the dedup. ``masks`` needs one cell per node run
        entry."""
        if runs is None:
            nodes, edges = scratch.arrays["out_nodes"], scratch.arrays["out_edges"]
            nodes_address = scratch.addresses["out_nodes"]
            edges_address = scratch.addresses["out_edges"]
        else:
            nodes, edges = runs
            nodes_address = self._rank_address("nodes", nodes)
            edges_address = self._rank_address("edges", edges)
        kept = columns["node_counts"].sum()
        if len(scratch.arrays["marks"]) != self.n or len(masks) < kept:
            raise ValueError(
                "marks needs one cell per node, masks one per run entry"
            )
        if kept > len(nodes) or columns["edge_counts"].sum() > len(edges):
            raise ValueError("the runs' counts overrun nodes or edges")
        head = self._head
        return self._kernel._bound_rank(
            head[0],
            head[3],
            head[4],
            len(columns["centrals"]),
            columns.address("centrals"),
            columns.address("depths"),
            columns.address("factors"),
            nodes_address,
            columns.address("node_counts"),
            edges_address,
            columns.address("edge_counts"),
            columns.address("mass"),
            1 if deduplicate else 0,
            k,
            scratch.addresses["marks"],
            columns.address("order"),
            columns.address("sketch"),
            columns.address("node_offsets"),
            columns.address("edge_offsets"),
            columns.address("scores"),
            self._rank_address("masks", masks),
        )


class NativeKernel:
    """ctypes wrapper around the compiled kernel symbols.

    Exposes the per-chunk ``fused_expand`` and the per-level
    ``whole_level_step`` (Algorithm 1's enqueue + identify + expansion
    fused into one call, bound once per query or search arena by
    :meth:`bind_whole_level`), plus stage two's ``extract_graphs`` (every
    Central Node of a chunk in one call) and ``rank_graphs`` (dedup,
    Eq. 6 and the top-k cut over the whole batch, then the k answers'
    edges), both bound once per query or search arena by
    :meth:`bind_stage_two`.
    Each symbol is typed from :data:`KERNEL_EXPORTS` (``ndpointer``
    argtypes for its arrays); a bound call goes through a second
    function object derived from that declaration (:func:`_by_address`),
    after the same checks ran where its arrays were bound. Every call
    releases the GIL, so concurrent chunk expansions
    (``ThreadPoolBackend``) overlap on real cores.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        #: Each export's typed function and its parameters' positions by
        #: name, resolved once: :meth:`_address` checks an array against
        #: the parameter it is named for.
        self._declared: "Dict[str, Tuple[ctypes._CFuncPtr, Dict[str, int]]]" = {}
        for symbol, (restype, params) in KERNEL_EXPORTS.items():
            fn = getattr(library, symbol)  # AttributeError names a missing one
            fn.restype = _ctype(restype)
            fn.argtypes = [_ctype(ctype) for _, ctype in params]
            self._declared[symbol] = (
                fn, {name: position for position, (name, _) in enumerate(params)}
            )
        self._fn = self._declared["fused_expand"][0]
        self._step = self._declared["whole_level_step"][0]
        self._extract = self._declared["extract_graphs"][0]
        self._rank = self._declared["rank_graphs"][0]
        # The same symbols through second function objects whose array
        # arguments are plain addresses, derived from the typed ones: the
        # binds run the ndpointer checks once per query (or per graph), and
        # a call then marshals only integers.
        self._bound_step = _by_address(library, self._step)
        self._bound_extract = _by_address(library, self._extract)
        self._bound_rank = _by_address(library, self._rank)

    def _address(self, symbol: str, parameter: str, array: np.ndarray) -> int:
        """``array``'s address as ``parameter`` of ``symbol``, after the
        checks a direct call makes: the declared ``ndpointer``'s
        ``from_param`` raises ``TypeError`` on a wrong dtype, ndim or
        contiguity, and returns ``array.ctypes`` otherwise."""
        fn, positions = self._declared[symbol]
        return fn.argtypes[positions[parameter]].from_param(array).data

    def expand(
        self,
        chunk: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        matrix_flat: np.ndarray,
        q: int,
        f_identifier: np.ndarray,
        c_identifier: np.ndarray,
        keyword_node_u8: np.ndarray,
        activation: np.ndarray,
        level: int,
        may_block: bool,
        out_keys: np.ndarray,
    ) -> "tuple[int, list[int]]":
        """Run Algorithm 2 over one frontier chunk, as enqueued.

        The node count the kernel's tail guard needs is
        ``len(f_identifier)``. Returns the number of unique cell keys
        written to ``out_keys`` and ``[edges_gathered, pairs_hit,
        sources_pruned, duplicates_elided, live_lanes]``: the scatter
        duplicates are the cells a live matrix read found already
        stamped, and ``live_lanes`` has bit i set iff lane i was written
        or kept open by a waiting or retrying source.
        """
        stats = np.zeros(5, dtype=np.int64)
        count = int(
            self._fn(
                len(f_identifier),
                len(chunk),
                chunk,
                indptr,
                indices,
                matrix_flat,
                q,
                f_identifier,
                c_identifier,
                keyword_node_u8,
                activation,
                level,
                1 if may_block else 0,
                out_keys,
                stats,
            )
        )
        return count, stats.view(np.uint64).tolist()

    def bind_whole_level(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        matrix_flat: np.ndarray,
        q: int,
        f_identifier: np.ndarray,
        c_identifier: np.ndarray,
        keyword_node_u8: np.ndarray,
        activation: np.ndarray,
        central_level: np.ndarray,
        finite_count: np.ndarray,
        frontier_out: np.ndarray,
        central_out: np.ndarray,
        stats_out: np.ndarray,
    ) -> BoundWholeLevel:
        """One query's ``whole_level_step``, its 12 arrays bound once (a
        search arena keeps it for the queries that lease the arena).

        Each array goes through its declared ``ndpointer``'s
        ``from_param`` here, which raises the ``TypeError`` a direct call
        would (wrong dtype, ndim or contiguity). The returned call runs
        one complete bottom-up level in C per invocation,
        ``step(level, central_have, k, may_expand, may_block)``, and
        returns the frontier size. ``stats_out`` (int64, length >= 8)
        receives ``[n_frontier, n_new_central, expanded, edges_gathered,
        pairs_hit, sources_pruned, duplicates_elided, live_lanes]``;
        ``live_lanes`` has bit i set iff lane i may still be written
        after the level (0 when it did not expand).
        """
        def address(parameter: str, array: np.ndarray) -> int:
            return self._address("whole_level_step", parameter, array)

        head = (
            len(f_identifier),
            address("indptr", indptr),
            address("indices", indices),
            address("matrix", matrix_flat),
            q,
            address("fid", f_identifier),
            address("cid", c_identifier),
            address("keyword_node", keyword_node_u8),
            address("activation", activation),
            address("central_level", central_level),
            address("finite_count", finite_count),
        )
        tail = (
            address("frontier_out", frontier_out),
            address("central_out", central_out),
            address("stats_out", stats_out),
        )
        arrays = (
            indptr, indices, matrix_flat, f_identifier, c_identifier,
            keyword_node_u8, activation, central_level, finite_count,
            frontier_out, central_out, stats_out,
        )
        return BoundWholeLevel(self._bound_step, head, tail, arrays)

    def bind_graph(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> BoundGraph:
        """A graph's CSR ``indptr`` / ``indices`` and Eq. 6 ``weights``,
        bound once for :meth:`bind_stage_two`: an engine binds its graph
        once and reuses the binding for every query. Each array goes
        through its declared ``ndpointer`` check, which raises the
        ``TypeError`` a direct call would."""
        arrays = (indptr, indices, weights)
        return BoundGraph(
            arrays,
            tuple(
                self._address("extract_graphs", parameter, array)
                for parameter, array in zip(
                    ("indptr", "indices", "weights"), arrays
                )
            ),
        )

    def bind_stage_two(
        self,
        graph: BoundGraph,
        matrix: np.ndarray,
        activation: np.ndarray,
        keyword_node: np.ndarray,
        central_level: np.ndarray,
        whole_level: Optional[BoundWholeLevel] = None,
    ) -> BoundStageTwo:
        """Stage two's two calls with one query's arrays bound.

        ``graph`` is the graph's binding (:meth:`bind_graph`), made once
        per engine. The query's state arrays — the ``(n, q)``
        hitting-level ``matrix``, ``activation``, ``keyword_node``
        (bool) and ``central_level`` — take the addresses
        ``whole_level`` holds when it was bound to exactly these arrays,
        and are checked and bound here otherwise.
        Every check is the declared ``ndpointer``'s ``from_param``, which
        raises the ``TypeError`` a direct call would.

        ``extract_graphs`` (:meth:`BoundStageTwo.extract`) walks back
        from every Central Node of a chunk: the Theorem V.4 walk off the
        graph CSR, level-cover and Eq. 6's weight mass. A graph's kept
        nodes (ascending) are concatenated in ``out_nodes``, its
        ``node_counts`` entry long; its edge keys ``pred * n + target``
        in ``out_edges`` likewise by ``edge_counts``, as the walk found
        them — raw, with repeats, or sorted and deduplicated where
        level-cover pruned the graph (its closure needs them so).
        ``raw_counts`` is a graph's node count before level-cover and
        ``mass`` the left-to-right sum of ``weights`` over its kept
        nodes. ``q`` must be at most 64. The capacities are
        ``len(pairs)`` (one graph's walk), ``len(out_nodes)`` and
        ``len(out_edges)``. It returns ``True`` when everything fitted;
        otherwise nothing was written past a capacity, the outputs are
        unusable, and ``needed`` holds ``[nodes, edges, pairs]``
        capacities with which one more call fits. ``marks`` must arrive
        zeroed and is zero on return either way; ``marks``, ``stack`` and
        ``members`` have one cell per node.

        ``rank_graphs`` (:meth:`BoundStageTwo.rank`) runs once on the
        concatenated batch: the containment dedup, Eq. 6 scores, the
        top-k cut by ``(score, n_nodes, central node)`` and, for the
        ranked graphs only, their final edge runs (sorted, deduplicated,
        both endpoints kept) and their nodes' contribution masks.
        """
        indptr, indices, weights = graph.arrays
        n = len(indptr) - 1
        if (
            matrix.ndim != 2
            or not matrix.flags.c_contiguous
            or keyword_node.dtype != np.bool_
        ):
            raise TypeError(
                "matrix must be a C-contiguous (n, q) array and "
                "keyword_node bool"
            )
        if not (
            len(weights) == matrix.shape[0] == len(activation)
            == len(keyword_node) == len(central_level) == n
        ):
            raise ValueError("stage-two arrays must have one entry per node")
        indptr_address, indices_address, weights_address = graph.addresses
        state = (
            whole_level.state_addresses(
                matrix, activation, keyword_node, central_level
            )
            if whole_level is not None
            else None
        )
        flat = matrix.reshape(-1)
        keyword_u8 = keyword_node.view(np.uint8)
        if state is None:
            state = tuple(
                self._address("extract_graphs", parameter, array)
                for parameter, array in (
                    ("matrix", flat),
                    ("activation", activation),
                    ("keyword_node", keyword_u8),
                    ("central_level", central_level),
                )
            )
        matrix_address, *state_rest = state
        head = (
            n,
            indptr_address,
            indices_address,
            matrix_address,
            matrix.shape[1],
            *state_rest,  # activation, keyword_node, central_level
            weights_address,
        )
        arrays = (
            indptr, indices, flat, activation, keyword_u8, central_level,
            weights,
        )
        return BoundStageTwo(self, head, arrays)


def shared_object_path(
    exports: Exports, selection: "tuple[str, ...]" = ()
) -> Path:
    """Where the kernel built against ``exports`` with ``selection``'s
    sanitizers is cached: named by its :func:`build_digest`."""
    digest = build_digest(
        (_SOURCE_PATH,), exports, sanitize_cflags(selection)
    )
    tag = ("-" + "-".join(selection)) if selection else ""
    return _BUILD_DIR / f"fused_expand-{digest}{tag}.so"


def load_kernel() -> NativeKernel:
    """Compile (once) and load the native kernel.

    Raises:
        NativeKernelUnavailable: no compiler could build it, it does not
            load, or the host is big-endian (the byte-lane ballots read
            lane 0 as the lowest-address byte of a word). The message
            names the compilers tried and carries the compiler's
            diagnostic or the load's exception.
        ValueError: ``REPRO_SANITIZE`` names a sanitizer this tier does
            not know — a typo must not load an unsanitized kernel.
    """
    selection = sanitize_selection()
    if sys.byteorder != "little":
        raise NativeKernelUnavailable(
            "the native kernel's byte-lane words need a little-endian host"
        )
    try:
        so_path = shared_object_path(KERNEL_EXPORTS, selection)
        failure = None
        if not so_path.exists():
            failure = _compile(
                (_SOURCE_PATH,),
                so_path,
                write_header(KERNEL_EXPORTS, _BUILD_DIR, "kernel"),
                sanitize_cflags(selection),
            )
        if failure is None:
            return NativeKernel(ctypes.CDLL(str(so_path)))
    except Exception as exc:
        # A missing source, a dlopen error, a declared symbol the object
        # lacks.
        failure = f"{type(exc).__name__}: {exc}"
    raise NativeKernelUnavailable(
        f"the native kernel ({_SOURCE_PATH.name}) could not be compiled "
        f"or loaded; tried the C compilers {', '.join(_compilers())} "
        f"(set CC to name another). Every search route needs it.\n{failure}"
    )
