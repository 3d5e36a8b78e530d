"""Memory-mapped on-disk CSR storage (the out-of-core graph tier).

A ``CSRStore`` file holds every array of a :class:`~repro.graph.csr.KnowledgeGraph`
in raw little-endian form so the graph can be reopened with ``np.memmap`` in
read-only mode — queries then run straight off the page cache without ever
materializing the CSR in anonymous RAM. This is what lets the engine operate
at wiki2018-like scale (the paper's real dataset is 30.6M nodes / 271M edges).

File layout (all offsets absolute, all values little-endian)::

    [0:8)    magic  b"REPROCSR"
    [8:12)   uint32 format version (FORMAT_VERSION)
    [12:16)  uint32 length of the header JSON that follows
    [16:...] header JSON: {"n_nodes", "n_edges", "sections": {name: ...}}
    [HEADER_BLOCK:...) section payloads, each 64-byte aligned

The header JSON block is padded to a fixed ``HEADER_BLOCK`` bytes so section
offsets never move. Large variable-size metadata (predicate vocabulary,
provenance) lives in its own ``meta`` section rather than the header, so a
real-Wikidata predicate vocabulary cannot overflow the fixed block.

Sections::

    out_indptr   int64 (n+1)   out_indices   int32 (E)   out_labels int32 (E)
    inc_indptr   int64 (n+1)   inc_indices   int32 (E)   inc_labels int32 (E)
    adj_indptr   int64 (n+1)   adj_indices   int32 (2E)  adj_labels int32 (2E)
    adj_degree   int64 (n)     adj_indices64 int64 (2E)
    text_offsets int64 (n+1)   text_data     uint8       meta       uint8 (JSON)

``adj_degree`` and ``adj_indices64`` persist the two cached views the hot
path needs (:attr:`CSRAdjacency.degree_array`, :attr:`CSRAdjacency.indices64`)
so opening a store never pays an O(V) or O(E) derivation — the memmaps are
injected directly into the ``cached_property`` slots.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import mmap as _mmap_module
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from .csr import CSRAdjacency, KnowledgeGraph
from .labels import Vocabulary

MAGIC = b"REPROCSR"
FORMAT_VERSION = 1
HEADER_BLOCK = 8192
SECTION_ALIGN = 64
STORE_SUFFIX = ".csrstore"

#: Section name -> dtype string. Order here is the on-disk order.
SECTION_DTYPES = (
    ("out_indptr", "<i8"),
    ("out_indices", "<i4"),
    ("out_labels", "<i4"),
    ("inc_indptr", "<i8"),
    ("inc_indices", "<i4"),
    ("inc_labels", "<i4"),
    ("adj_indptr", "<i8"),
    ("adj_indices", "<i4"),
    ("adj_labels", "<i4"),
    ("adj_degree", "<i8"),
    ("adj_indices64", "<i8"),
    ("text_offsets", "<i8"),
    ("text_data", "|u1"),
    ("meta", "|u1"),
)


class CSRStoreError(ValueError):
    """Raised when a store file is missing, corrupt, truncated, or from an
    unsupported format version."""


@dataclass(frozen=True)
class StoreSection:
    """Placement of one array inside the store file."""

    offset: int
    dtype: str
    length: int

    @property
    def nbytes(self) -> int:
        return self.length * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class StoreInfo:
    """Decoded header of a store file."""

    path: str
    version: int
    n_nodes: int
    n_edges: int
    sections: Dict[str, StoreSection]
    file_bytes: int

    @property
    def array_bytes(self) -> int:
        """Total bytes of the numeric CSR sections (excludes text + meta)."""
        return sum(
            sec.nbytes
            for name, sec in self.sections.items()
            if name not in ("text_data", "text_offsets", "meta")
        )

    @property
    def store_bytes(self) -> int:
        """Total file size in bytes."""
        return self.file_bytes


@dataclass(frozen=True)
class StoreHandle:
    """Attached to ``KnowledgeGraph.store`` when a graph came from a store."""

    path: str
    info: StoreInfo
    mmap: bool


def _section_plan(
    n_nodes: int, n_edges: int, text_bytes: int, meta_bytes: int
) -> Tuple[Dict[str, StoreSection], int]:
    """Compute aligned offsets for every section and the total file size."""
    lengths = {
        "out_indptr": n_nodes + 1,
        "out_indices": n_edges,
        "out_labels": n_edges,
        "inc_indptr": n_nodes + 1,
        "inc_indices": n_edges,
        "inc_labels": n_edges,
        "adj_indptr": n_nodes + 1,
        "adj_indices": 2 * n_edges,
        "adj_labels": 2 * n_edges,
        "adj_degree": n_nodes,
        "adj_indices64": 2 * n_edges,
        "text_offsets": n_nodes + 1,
        "text_data": text_bytes,
        "meta": meta_bytes,
    }
    sections: Dict[str, StoreSection] = {}
    cursor = HEADER_BLOCK
    for name, dtype in SECTION_DTYPES:
        cursor = (cursor + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN
        sections[name] = StoreSection(offset=cursor, dtype=dtype, length=lengths[name])
        cursor += sections[name].nbytes
    return sections, cursor


def _encode_header(n_nodes: int, n_edges: int, sections: Dict[str, StoreSection]) -> bytes:
    payload = {
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "sections": {
            name: {"offset": sec.offset, "dtype": sec.dtype, "length": sec.length}
            for name, sec in sections.items()
        },
    }
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = MAGIC + np.uint32(FORMAT_VERSION).tobytes() + np.uint32(len(body)).tobytes() + body
    if len(header) > HEADER_BLOCK:
        raise CSRStoreError(
            f"store header would need {len(header)} bytes; limit is {HEADER_BLOCK}"
        )
    return header + b"\0" * (HEADER_BLOCK - len(header))


class StoreWriter:
    """Low-level sequential writer for a store file.

    Sections may be written in any order; each keeps its own element cursor
    so callers can append blocks incrementally (the streaming builder writes
    ``adj_indices`` window by window). :meth:`close` verifies every section
    was filled exactly.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        n_nodes: int,
        n_edges: int,
        text_bytes: int,
        meta_payload: dict,
    ) -> None:
        self.path = os.fspath(path)
        self._meta_blob = json.dumps(meta_payload, sort_keys=True).encode("utf-8")
        self.sections, self.total_bytes = _section_plan(
            n_nodes, n_edges, text_bytes, len(self._meta_blob)
        )
        self.n_nodes = int(n_nodes)
        self.n_edges = int(n_edges)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(self.path, "wb")
        self._file.write(_encode_header(self.n_nodes, self.n_edges, self.sections))
        self._file.truncate(self.total_bytes)
        self._cursors: Dict[str, int] = {name: 0 for name in self.sections}
        self.append_bytes("meta", self._meta_blob)

    def append(self, name: str, values: np.ndarray) -> None:
        """Append ``values`` (converted to the section dtype) to section ``name``."""
        section = self.sections[name]
        block = np.ascontiguousarray(values, dtype=section.dtype)
        if block.ndim != 1:
            raise ValueError(f"section {name} expects 1-D blocks")
        cursor = self._cursors[name]
        if cursor + len(block) > section.length:
            raise CSRStoreError(
                f"section {name} overflow: {cursor + len(block)} > {section.length}"
            )
        self._file.seek(section.offset + cursor * block.itemsize)
        self._file.write(block.tobytes())
        self._cursors[name] = cursor + len(block)

    def append_bytes(self, name: str, data: bytes) -> None:
        """Append raw bytes to a ``uint8`` section (text_data / meta)."""
        self.append(name, np.frombuffer(data, dtype=np.uint8))

    def flush(self) -> None:
        """Flush buffered writes so already-written sections can be re-read."""
        self._file.flush()

    def close(self) -> StoreInfo:
        """Flush, verify every section is exactly full, and return the info."""
        for name, section in self.sections.items():
            if self._cursors[name] != section.length:
                self._file.close()
                raise CSRStoreError(
                    f"section {name} incomplete: wrote {self._cursors[name]} of "
                    f"{section.length} elements"
                )
        self._file.flush()
        self._file.close()
        return StoreInfo(
            path=os.path.abspath(self.path),
            version=FORMAT_VERSION,
            n_nodes=self.n_nodes,
            n_edges=self.n_edges,
            sections=dict(self.sections),
            file_bytes=self.total_bytes,
        )

    def abort(self) -> None:
        """Close the file handle without verification (error cleanup)."""
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def save_store(
    graph: KnowledgeGraph,
    path: Union[str, os.PathLike],
    name: str = "unnamed",
    seed: Optional[int] = None,
    notes: Optional[dict] = None,
) -> StoreInfo:
    """Write an in-RAM :class:`KnowledgeGraph` to a store file.

    This is the small-graph path (tests, ``repro generate`` output conversion);
    multi-million-node graphs should be produced directly on disk by
    :class:`~repro.graph.builder.StreamingGraphBuilder` instead.
    """
    meta = {
        "predicates": graph.predicates.to_list(),
        "name": name,
        "seed": seed,
        "notes": notes or {},
    }
    encoded = [text.encode("utf-8") for text in graph.node_text]
    offsets = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(blob) for blob in encoded], out=offsets[1:])
    writer = StoreWriter(
        path, graph.n_nodes, graph.n_edges, int(offsets[-1]), meta
    )
    try:
        writer.append("out_indptr", graph.out.indptr)
        writer.append("out_indices", graph.out.indices)
        writer.append("out_labels", graph.out.labels)
        writer.append("inc_indptr", graph.inc.indptr)
        writer.append("inc_indices", graph.inc.indices)
        writer.append("inc_labels", graph.inc.labels)
        writer.append("adj_indptr", graph.adj.indptr)
        writer.append("adj_indices", graph.adj.indices)
        writer.append("adj_labels", graph.adj.labels)
        writer.append("adj_degree", graph.adj.degree_array)
        writer.append("adj_indices64", graph.adj.indices64)
        writer.append("text_offsets", offsets)
        writer.append_bytes("text_data", b"".join(encoded))
    except Exception:
        writer.abort()
        raise
    return writer.close()


def read_info(path: Union[str, os.PathLike]) -> StoreInfo:
    """Decode and validate a store file's header.

    Raises:
        CSRStoreError: on bad magic, unsupported version, undecodable
            header, or a file too short to hold its declared sections.
    """
    path = os.fspath(path)
    try:
        file_bytes = os.path.getsize(path)
        with open(path, "rb") as handle:
            head = handle.read(HEADER_BLOCK)
    except OSError as exc:
        raise CSRStoreError(f"cannot read store file {path}: {exc}") from exc
    if len(head) < 16 or head[:8] != MAGIC:
        raise CSRStoreError(f"{path} is not a CSRStore file (bad magic)")
    version = int(np.frombuffer(head[8:12], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise CSRStoreError(
            f"{path} uses CSRStore format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    body_len = int(np.frombuffer(head[12:16], dtype="<u4")[0])
    if body_len > HEADER_BLOCK - 16 or len(head) < 16 + body_len:
        raise CSRStoreError(f"{path} header is truncated")
    try:
        payload = json.loads(head[16 : 16 + body_len].decode("utf-8"))
        n_nodes = int(payload["n_nodes"])
        n_edges = int(payload["n_edges"])
        sections = {
            name: StoreSection(
                offset=int(sec["offset"]),
                dtype=str(sec["dtype"]),
                length=int(sec["length"]),
            )
            for name, sec in payload["sections"].items()
        }
    except (ValueError, KeyError, TypeError) as exc:
        raise CSRStoreError(f"{path} header is corrupt: {exc}") from exc
    expected = {name for name, _ in SECTION_DTYPES}
    if set(sections) != expected:
        raise CSRStoreError(
            f"{path} header lists sections {sorted(sections)}; expected {sorted(expected)}"
        )
    for name, sec in sections.items():
        if sec.offset < HEADER_BLOCK or sec.offset + sec.nbytes > file_bytes:
            raise CSRStoreError(
                f"{path} is truncated: section {name} needs bytes "
                f"[{sec.offset}, {sec.offset + sec.nbytes}) but the file has {file_bytes}"
            )
    return StoreInfo(
        path=os.path.abspath(path),
        version=version,
        n_nodes=n_nodes,
        n_edges=n_edges,
        sections=sections,
        file_bytes=file_bytes,
    )


#: Entries decoded per block when a :class:`TextBlob` is iterated.
_TEXT_ITER_BLOCK = 8192


class TextBlob(Sequence[str]):
    """Lazy ``Sequence[str]`` over the text sections of an open store.

    Decoding happens per access, so a 2M-node store does not materialize
    2M Python strings at open time. Slices return real lists.
    """

    __slots__ = ("_offsets", "_data")

    def __init__(self, offsets: np.ndarray, data: np.ndarray) -> None:
        self._offsets = offsets
        self._data = data

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> List[str]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("node text index out of range")
        start, stop = int(self._offsets[i]), int(self._offsets[i + 1])
        return bytes(self._data[start:stop]).decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        # One offsets slice and one bytes copy per block instead of bounds
        # checks, int() conversions and a memmap slice per entry; the
        # block keeps a full scan of a multi-million-node store from
        # materializing the whole text section.
        offsets, data = self._offsets, self._data
        for first in range(0, len(self), _TEXT_ITER_BLOCK):
            bounds = offsets[first:first + _TEXT_ITER_BLOCK + 1].tolist()
            base = bounds[0]
            block = data[base:bounds[-1]].tobytes()
            for start, stop in zip(bounds, bounds[1:]):
                yield block[start - base:stop - base].decode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextBlob({len(self)} entries)"


def _open_section(info: StoreInfo, name: str, mmap: bool) -> np.ndarray:
    section = info.sections[name]
    mapped = np.memmap(
        info.path,
        dtype=np.dtype(section.dtype),
        mode="r",
        offset=section.offset,
        shape=(section.length,),
    )
    if mmap:
        return mapped
    materialized = np.array(mapped)
    materialized.setflags(write=False)
    del mapped
    return materialized


def open_store(path: Union[str, os.PathLike], mmap: bool = True) -> KnowledgeGraph:
    """Open a store file as a :class:`KnowledgeGraph`.

    With ``mmap=True`` (the default) every array is a read-only ``np.memmap``
    over the file — the kernel pages data in on demand and evicts it under
    memory pressure, and concurrent processes mapping the same file share one
    physical copy. With ``mmap=False`` the same bytes are materialized into
    anonymous RAM (the classic in-RAM tier; used for bitwise parity checks).

    The cached ``degree_array`` / ``indices64`` views come straight from their
    on-disk sections, so no O(V)/O(E) derivation runs at open time.
    """
    info = read_info(path)

    def arr(name: str) -> np.ndarray:
        return _open_section(info, name, mmap)

    out = CSRAdjacency(arr("out_indptr"), arr("out_indices"), arr("out_labels"))
    inc = CSRAdjacency(arr("inc_indptr"), arr("inc_indices"), arr("inc_labels"))
    adj = CSRAdjacency(arr("adj_indptr"), arr("adj_indices"), arr("adj_labels"))
    # cached_property stores through the instance __dict__, which bypasses the
    # frozen-dataclass __setattr__ — inject the persisted views directly.
    adj.__dict__["degree_array"] = arr("adj_degree")
    adj.__dict__["indices64"] = arr("adj_indices64")
    meta = json.loads(bytes(_open_section(info, "meta", mmap=False)).decode("utf-8"))
    node_text = TextBlob(arr("text_offsets"), arr("text_data"))
    graph = KnowledgeGraph(
        out=out,
        inc=inc,
        adj=adj,
        node_text=node_text,
        predicates=Vocabulary.from_list(meta["predicates"]),
    )
    graph.store = StoreHandle(path=info.path, info=info, mmap=bool(mmap))
    return graph


# ----------------------------------------------------------------------
# Residency estimation (satellite: /statz + SearchState.nbytes)
# ----------------------------------------------------------------------
_PAGE_SIZE = _mmap_module.PAGESIZE
_LIBC: Optional[ctypes.CDLL] = None
_LIBC_FAILED = False


def _libc() -> Optional[ctypes.CDLL]:
    global _LIBC, _LIBC_FAILED
    if _LIBC is None and not _LIBC_FAILED:
        try:
            _LIBC = ctypes.CDLL(None, use_errno=True)
            _LIBC.mincore.restype = ctypes.c_int
            _LIBC.mincore.argtypes = [
                ctypes.c_void_p,
                ctypes.c_size_t,
                ctypes.POINTER(ctypes.c_ubyte),
            ]
        except (OSError, AttributeError):
            _LIBC_FAILED = True
            _LIBC = None
    return _LIBC


def memmap_base(array: np.ndarray) -> Optional[np.memmap]:
    """Walk the ``.base`` chain and return the backing ``np.memmap``, if any."""
    base: object = array
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return base
        base = base.base
    return None


def resident_nbytes(array: np.ndarray) -> Optional[int]:
    """Estimate how many bytes of a memmap-backed array are page-cache resident.

    Returns ``None`` for arrays that are not memmap-backed (callers should
    fall back to ``array.nbytes`` — the array really is heap memory) and for
    platforms without a working ``mincore``. The estimate counts whole pages
    overlapping the array, clamped to ``array.nbytes``.
    """
    if not isinstance(array, np.ndarray) or memmap_base(array) is None:
        return None
    libc = _libc()
    if libc is None:
        return None
    try:
        address = int(array.__array_interface__["data"][0])
        length = int(array.nbytes)
        if length == 0:
            return 0
        start = address - (address % _PAGE_SIZE)
        span = address + length - start
        n_pages = (span + _PAGE_SIZE - 1) // _PAGE_SIZE
        vector = (ctypes.c_ubyte * n_pages)()
        if libc.mincore(ctypes.c_void_p(start), ctypes.c_size_t(span), vector) != 0:
            return None
        resident_pages = sum(1 for flag in vector if flag & 1)
        return min(resident_pages * _PAGE_SIZE, length)
    except (OSError, ValueError, AttributeError, KeyError):
        return None


def allocated_nbytes(array: np.ndarray) -> int:
    """``array.nbytes`` for heap arrays, resident estimate for memmap arrays.

    This is what memory accounting (``SearchState.nbytes``, ``/statz``) should
    charge: file-backed pages are reclaimable page cache, not process heap, so
    counting the full on-disk size as "memory used" would be wildly wrong for
    an out-of-core graph.
    """
    resident = resident_nbytes(array)
    return int(array.nbytes) if resident is None else int(resident)
