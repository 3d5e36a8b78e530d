"""On-demand compiled native tier of the fused expansion kernel.

The paper's CPU engine is native code; a NumPy reproduction pays an
interpreter-dispatch and memory-traffic tax on every whole-array pass.
This module closes most of that gap without adding a build step or a
dependency: ``_kernel.c`` (the same byte-lane algorithm as the NumPy
kernel, one C loop instead of ~15 array passes) is compiled once per
source hash with whatever system C compiler is available and loaded
through :mod:`ctypes`.

Everything is best-effort: no compiler, a failed compile, or
``REPRO_NATIVE_KERNEL=0`` simply yield ``None`` from
:func:`load_kernel`, and the pure-NumPy kernel — semantically identical
— runs alone. Nothing outside this package directory is written; the
shared object lands in ``_build/`` next to the source and is reused
across processes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from ..obs.config import ENV_SANITIZE, native_kernel_enabled, sanitize_value

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


def _compilers() -> "list[str]":
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    seen: "list[str]" = []
    for name in candidates:
        if name and name not in seen:
            seen.append(name)
    return seen


def _compile(
    source: Path, target: Path, extra_flags: "tuple[str, ...]" = ()
) -> bool:
    """Try every (compiler, flags) pair until one produces ``target``."""
    target.parent.mkdir(parents=True, exist_ok=True)
    for compiler in _compilers():
        for flags in _FLAG_SETS:
            handle = tempfile.NamedTemporaryFile(
                dir=str(target.parent), suffix=".so", delete=False
            )
            handle.close()
            tmp = Path(handle.name)
            cmd = [
                compiler,
                *flags,
                *extra_flags,
                "-shared",
                "-fPIC",
                str(source),
                "-o",
                str(tmp),
            ]
            try:
                result = subprocess.run(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    timeout=120,
                    check=False,
                )
            except (OSError, subprocess.SubprocessError):
                tmp.unlink(missing_ok=True)
                continue
            if result.returncode == 0 and tmp.stat().st_size > 0:
                # Atomic publish: concurrent builders race harmlessly.
                os.replace(tmp, target)
                return True
            tmp.unlink(missing_ok=True)
    return False


def _address_type(argtype: type) -> type:
    """``c_void_p`` for an ``ndpointer`` argtype, the argtype otherwise.

    ``ndpointer`` classes derive from ``c_void_p``; the derived type takes
    an address as a plain integer and checks nothing.
    """
    return ctypes.c_void_p if issubclass(argtype, ctypes.c_void_p) else argtype


class BoundWholeLevel:
    """``whole_level_step`` with one query's arrays bound once.

    Built by :meth:`NativeKernel.bind_whole_level`. A call takes only the
    per-level scalars and returns the frontier size. The instance holds
    the bound arrays, so their addresses stay valid for as long as it
    lives. It belongs to one query (``SearchState.whole_level``), never
    to a backend: a backend is shared by every request thread, and the
    call runs with the GIL released.
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

    @property
    def outputs(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(frontier_out, central_out, stats_out)``, which a call fills."""
        return self.arrays[-3:]

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


class NativeKernel:
    """ctypes wrapper around the compiled kernel symbols.

    Exposes the per-chunk ``fused_expand`` and the per-level
    ``whole_level_step`` (Algorithm 1's enqueue + identify + expansion
    fused into one call, bound once per query by
    :meth:`bind_whole_level`), plus stage two's ``extract_graphs`` (every
    Central Node of a query in one call).
    Every call releases the GIL, so concurrent chunk expansions
    (``ThreadPoolBackend``) overlap on real cores.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        pointer = np.ctypeslib.ndpointer
        i64 = pointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
        i32 = pointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
        i16 = pointer(np.int16, ndim=1, flags="C_CONTIGUOUS")
        u64 = pointer(np.uint64, ndim=1, flags="C_CONTIGUOUS")
        u8 = pointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
        f64 = pointer(np.float64, ndim=1, flags="C_CONTIGUOUS")

        fn = library.fused_expand
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64,  # n
            ctypes.c_int64,  # n_chunk
            i64,  # chunk
            u64,  # se_words
            i64,  # indptr
            i32,  # indices
            u8,  # matrix
            ctypes.c_int64,  # q
            ctypes.c_void_p,  # blocked (nullable)
            u8,  # fid
            ctypes.c_uint8,  # next_level
            i64,  # out_keys
            i64,  # n_dups
            i64,  # live_out
        ]
        self._fn = fn

        step = library.whole_level_step
        step.restype = ctypes.c_int64
        step.argtypes = [
            ctypes.c_int64,  # n
            i64,  # indptr
            i32,  # indices
            u8,  # matrix
            ctypes.c_int64,  # q
            u8,  # fid
            u8,  # cid
            u8,  # keyword_node
            i32,  # activation
            i16,  # central_level
            i32,  # finite_count
            ctypes.c_uint8,  # level
            ctypes.c_int64,  # central_have
            ctypes.c_int64,  # k
            ctypes.c_int64,  # may_expand
            ctypes.c_int64,  # may_block
            i64,  # frontier_out
            i64,  # central_out
            i64,  # stats_out
        ]
        self._step = step
        # The same symbol through a second function object whose array
        # arguments are plain addresses, derived from the one declaration
        # above: bind_whole_level runs the ndpointer checks once per
        # query, and a level's call then marshals only integers.
        bound_step = library["whole_level_step"]
        bound_step.restype = step.restype
        bound_step.argtypes = [_address_type(t) for t in step.argtypes]
        self._bound_step = bound_step

        extract = library.extract_graphs
        extract.restype = ctypes.c_int64
        extract.argtypes = [
            ctypes.c_int64,  # n
            i64,  # indptr
            i32,  # indices
            u8,  # matrix
            ctypes.c_int64,  # q
            i32,  # activation
            u8,  # keyword_node
            i16,  # central_level
            f64,  # weights
            ctypes.c_int64,  # n_centrals
            i64,  # centrals
            ctypes.c_int64,  # apply_level_cover
            i32,  # marks
            i64,  # stack
            i64,  # members
            i64,  # pairs
            ctypes.c_int64,  # pair_capacity
            i64,  # out_nodes
            ctypes.c_int64,  # node_capacity
            i64,  # out_edges
            ctypes.c_int64,  # edge_capacity
            i64,  # node_counts
            i64,  # edge_counts
            i64,  # raw_counts
            f64,  # mass
            i64,  # needed
        ]
        self._extract = extract

    def expand(
        self,
        chunk: np.ndarray,
        se_words: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        matrix_flat: np.ndarray,
        q: int,
        blocked: Optional[np.ndarray],
        f_identifier: np.ndarray,
        next_level: int,
        out_keys: np.ndarray,
    ) -> "tuple[int, int, int]":
        """Run one chunk expansion.

        The node count the kernel's tail guard needs is
        ``len(f_identifier)``. Returns ``(n_keys, n_duplicates,
        live_lanes)``: the unique-key count written to ``out_keys``, the
        scatter duplicates elided by the live matrix read (the NumPy
        tier's ``scattered - unique`` count) and the lanes the chunk
        wrote or a retrying source kept open (bit i = lane i).
        """
        blocked_ptr = blocked.ctypes.data if blocked is not None else None
        outs = np.zeros(2, dtype=np.int64)
        count = int(
            self._fn(
                len(f_identifier),
                len(chunk),
                chunk,
                se_words,
                indptr,
                indices,
                matrix_flat,
                q,
                blocked_ptr,
                f_identifier,
                next_level,
                out_keys,
                outs[:1],
                outs[1:],
            )
        )
        n_dups, live_lanes = outs.tolist()
        return count, n_dups, live_lanes

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
        """One query's ``whole_level_step``, its 12 arrays bound once.

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
        declared = self._step.argtypes

        def address(position: int, array: np.ndarray) -> int:
            # from_param raises on a mismatch, else returns array.ctypes.
            return declared[position].from_param(array).data

        head = (
            len(f_identifier),
            address(1, indptr),
            address(2, indices),
            address(3, matrix_flat),
            q,
            address(5, f_identifier),
            address(6, c_identifier),
            address(7, keyword_node_u8),
            address(8, activation),
            address(9, central_level),
            address(10, finite_count),
        )
        tail = (
            address(16, frontier_out),
            address(17, central_out),
            address(18, stats_out),
        )
        arrays = (
            indptr, indices, matrix_flat, f_identifier, c_identifier,
            keyword_node_u8, activation, central_level, finite_count,
            frontier_out, central_out, stats_out,
        )
        return BoundWholeLevel(self._bound_step, head, tail, arrays)

    def extract_graphs(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        matrix_flat: np.ndarray,
        q: int,
        activation: np.ndarray,
        keyword_node_u8: np.ndarray,
        central_level: np.ndarray,
        weights: np.ndarray,
        centrals: np.ndarray,
        apply_level_cover: bool,
        marks: np.ndarray,
        stack: np.ndarray,
        members: np.ndarray,
        pairs: np.ndarray,
        out_nodes: np.ndarray,
        out_edges: np.ndarray,
        node_counts: np.ndarray,
        edge_counts: np.ndarray,
        raw_counts: np.ndarray,
        mass: np.ndarray,
        needed: np.ndarray,
    ) -> bool:
        """Stage two for every Central Node in ``centrals``, in one call.

        Per Central Node: the Theorem V.4 backward walk off the graph
        CSR, cross-column edge dedup, level-cover (when
        ``apply_level_cover``) and Eq. 6's weight mass. The graphs'
        kept nodes (ascending within a graph) are concatenated in
        ``out_nodes``, ``node_counts[i]`` of them for graph ``i``; their
        edges (keys ``pred * n + target``, ascending) likewise in
        ``out_edges`` by ``edge_counts``;
        ``raw_counts[i]`` is a graph's node count before level-cover and
        ``mass[i]`` the left-to-right sum of ``weights`` over the kept
        nodes. ``q`` must be at most 64.

        The capacities are ``len(pairs)`` (one graph's edges before
        dedup), ``len(out_nodes)`` and ``len(out_edges)``. Returns
        ``True`` when everything fitted. Otherwise nothing was written
        past a capacity, the outputs are unusable, and ``needed`` holds
        ``[nodes, edges, pairs]`` capacities with which one more call
        fits (after a call that fitted: what it used). ``marks`` must arrive zeroed and is zero on return either
        way; ``marks``, ``stack`` and ``members`` have one cell per node.
        """
        status = self._extract(
            len(marks),
            indptr,
            indices,
            matrix_flat,
            q,
            activation,
            keyword_node_u8,
            central_level,
            weights,
            len(centrals),
            centrals,
            1 if apply_level_cover else 0,
            marks,
            stack,
            members,
            pairs,
            len(pairs),
            out_nodes,
            len(out_nodes),
            out_edges,
            len(out_edges),
            node_counts,
            edge_counts,
            raw_counts,
            mass,
            needed,
        )
        return status == 0


def load_kernel() -> Optional[NativeKernel]:
    """Compile (once) and load the native kernel, or ``None``.

    Never raises: any failure — missing source, no compiler, dlopen
    error — degrades to the NumPy kernel.
    """
    if not native_kernel_enabled():
        return None
    try:
        selection = sanitize_selection()
    except ValueError:
        # A typo'd REPRO_SANITIZE must not silently load an unsanitized
        # kernel; fall back to the NumPy tier instead.
        return None
    try:
        source = _SOURCE_PATH.read_bytes()
        digest = hashlib.sha256(source).hexdigest()[:16]
        tag = ("-" + "-".join(selection)) if selection else ""
        so_path = _BUILD_DIR / f"fused_expand-{digest}{tag}.so"
        if not so_path.exists() and not _compile(
            _SOURCE_PATH, so_path, sanitize_cflags(selection)
        ):
            return None
        return NativeKernel(ctypes.CDLL(str(so_path)))
    except Exception:
        return None
