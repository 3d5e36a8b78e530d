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

CSR sections (every version)::

    out_indptr   int64 (n+1)   out_indices   int32 (E)   out_labels int32 (E)
    inc_indptr   int64 (n+1)   inc_indices   int32 (E)   inc_labels int32 (E)
    adj_indptr   int64 (n+1)   adj_indices   int32 (2E)  adj_labels int32 (2E)
    adj_degree   int64 (n)     adj_indices64 int64 (2E)
    text_offsets int64 (n+1)   text_data     uint8       meta       uint8 (JSON)

``adj_degree`` persists :attr:`CSRAdjacency.degree_array`, injected into
its ``cached_property`` slot at open, so opening never pays an O(V)
derivation. ``adj_indices64`` (``adj_indices`` as int64) is written and
never read; it leaves with the next format revision.

Derived sections (version 2; :func:`write_derived_sections`)::

    index_meta     uint8 (JSON: terms, tokenizer, n_nodes)
    index_lengths  int64 (terms)     index_postings int64 (total postings)
    node_weights   float64 (n)       distance       uint8 (JSON: n_pairs, seed, A)

They hold the engine's offline results — the inverted index, the Eq. 2
weights and Table II's sampled A — so a restart reads them instead of
recomputing them; the header records the :data:`DERIVED_REVISION` they
were computed under. A version-1 file holds the CSR sections only; it
still opens, and the engine computes the three in memory as before.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import mmap as _mmap_module
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from .csr import CSRAdjacency, KnowledgeGraph
from .labels import Vocabulary

MAGIC = b"REPROCSR"
#: Version written by this build: CSR plus derived sections.
FORMAT_VERSION = 2
#: The CSR-only layout. :class:`StoreWriter` writes it, and a file stays a
#: valid version-1 store until :func:`write_derived_sections` commits.
CSR_ONLY_VERSION = 1
HEADER_BLOCK = 8192
SECTION_ALIGN = 64
STORE_SUFFIX = ".csrstore"

#: CSR section name -> dtype string. Order here is the on-disk order.
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

#: CSR sections no reader maps: ``meta`` is decoded once, and
#: ``adj_indices64`` is never read (module docstring).
UNMAPPED_SECTIONS = ("meta", "adj_indices64")

#: Derived section name -> dtype string, on disk after the CSR sections of a
#: version-2 store, in this order.
DERIVED_SECTION_DTYPES = (
    ("index_meta", "|u1"),
    ("index_lengths", "<i8"),
    ("index_postings", "<i8"),
    ("node_weights", "<f8"),
    ("distance", "|u1"),
)

_SECTIONS_OF_VERSION = {
    CSR_ONLY_VERSION: [name for name, _ in SECTION_DTYPES],
    FORMAT_VERSION: [name for name, _ in SECTION_DTYPES + DERIVED_SECTION_DTYPES],
}

#: Revision of the code the derived sections come from, recorded in a
#: version-2 header. Bump it whenever the tokenizer, Eq. 2 or the distance
#: sampler changes what it computes: a store derived under another
#: revision opens without its derived sections, so the engine computes
#: them in memory instead of reading stale ones.
DERIVED_REVISION = 1


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
    #: :data:`DERIVED_REVISION` the derived sections were written under;
    #: ``None`` in a version-1 store.
    derived_revision: Optional[int] = None
    #: Milliseconds :func:`write_derived_sections` took to compute and
    #: commit the derived sections, on the info it returns; 0 on an
    #: info read from a header.
    derived_ms: float = field(default=0.0, compare=False)

    @property
    def array_bytes(self) -> int:
        """Total bytes of the numeric CSR sections a reader maps (excludes
        text, :data:`UNMAPPED_SECTIONS` and the derived sections): the
        heap a materialized graph would need."""
        return sum(
            self.sections[name].nbytes
            for name, _ in SECTION_DTYPES
            if name not in ("text_data", "text_offsets") + UNMAPPED_SECTIONS
        )

    @property
    def store_bytes(self) -> int:
        """Total file size in bytes."""
        return self.file_bytes


@dataclass(frozen=True)
class StoreHandle:
    """Attached to ``KnowledgeGraph.store`` when a graph came from a store.

    ``arrays`` holds the sections :func:`open_store` opened, all at once,
    so every one comes from the same file even if another file is later
    renamed over ``path``. A memory map is lazy: a section nobody reads
    costs no memory.
    """

    path: str
    info: StoreInfo
    mmap: bool
    arrays: Dict[str, np.ndarray]

    def release_pages(self) -> None:
        """:func:`release_pages` for every section."""
        for array in self.arrays.values():
            release_pages(array)


def stored_section(graph: KnowledgeGraph, name: str) -> Optional[np.ndarray]:
    """Section ``name`` of the store behind ``graph``; ``None`` for a graph
    in RAM or a store without that section (a derived one in a version-1
    file, or in one derived under another :data:`DERIVED_REVISION`)."""
    handle = graph.store
    if not isinstance(handle, StoreHandle):
        return None
    return handle.arrays.get(name)


def stored_json(graph: KnowledgeGraph, name: str) -> Optional[dict]:
    """:func:`stored_section` for a JSON ``uint8`` section, decoded."""
    blob = stored_section(graph, name)
    return None if blob is None else json.loads(blob.tobytes().decode("utf-8"))


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
        cursor = _align(cursor)
        sections[name] = StoreSection(offset=cursor, dtype=dtype, length=lengths[name])
        cursor += sections[name].nbytes
    return sections, cursor


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN


def _encode_header(info: StoreInfo) -> bytes:
    payload = {
        "n_nodes": info.n_nodes,
        "n_edges": info.n_edges,
        "sections": {
            name: {"offset": sec.offset, "dtype": sec.dtype, "length": sec.length}
            for name, sec in info.sections.items()
        },
    }
    if info.version != CSR_ONLY_VERSION:
        payload["derived_revision"] = info.derived_revision
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = (
        MAGIC + np.uint32(info.version).tobytes() + np.uint32(len(body)).tobytes() + body
    )
    if len(header) > HEADER_BLOCK:
        raise CSRStoreError(
            f"store header would need {len(header)} bytes; limit is {HEADER_BLOCK}"
        )
    return header + b"\0" * (HEADER_BLOCK - len(header))


class StoreWriter:
    """Low-level sequential writer for the CSR sections of a store file.

    Sections may be written in any order; each keeps its own element cursor
    so callers can append blocks incrementally (the streaming builder writes
    ``adj_indices`` window by window). :meth:`close` verifies every section
    was filled exactly and leaves a version-1 (CSR-only) file, which
    :func:`write_derived_sections` completes.
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
        self._file.write(_encode_header(self._info()))
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
        return self._info()

    def _info(self) -> StoreInfo:
        return StoreInfo(
            path=os.path.abspath(self.path),
            version=CSR_ONLY_VERSION,
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
        # Widened by the section dtype; kept only for format 2.
        writer.append("adj_indices64", graph.adj.indices)
        writer.append("text_offsets", offsets)
        writer.append_bytes("text_data", b"".join(encoded))
    except Exception:
        writer.abort()
        raise
    return write_derived_sections(writer.close())


def _json_blob(payload: object) -> np.ndarray:
    return np.frombuffer(json.dumps(payload, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def write_derived_sections(info: StoreInfo) -> StoreInfo:
    """Compute the derived sections of the CSR-only store ``info`` and
    commit them, making it a version-2 store.

    The graph is opened read-only (memmap) from the file just written, and
    each result comes from the function the engine calls for it:
    :meth:`~repro.text.inverted_index.InvertedIndex.from_graph` with the
    default tokenizer, :func:`~repro.core.weights.node_weights`, and
    :func:`~repro.graph.sampling.estimate_average_distance` at
    :class:`~repro.core.engine.EngineConfig`'s ``(distance_sample_pairs,
    seed)``. They run one at a time, each written and dropped before the
    next, and each scans the graph in windows that release the file pages
    behind them (:meth:`~repro.graph.csr.KnowledgeGraph.release_pages`),
    so the pass holds node-sized arrays and one window, never an
    edge-sized temporary or the whole mapped file.

    Sections are appended at aligned offsets after the CSR and made
    durable (``fsync``) before the fixed header block is rewritten and
    synced in turn, so until the new header is on disk the file is a
    valid version-1 store. The returned info carries the pass's time
    as ``derived_ms`` (``repro build-graph --json`` reports it).
    """
    # Imported here: these packages import this one.
    from ..core.engine import EngineConfig
    from ..core.weights import node_weights
    from ..text.index_io import encode_index
    from ..text.inverted_index import InvertedIndex
    from .sampling import estimate_average_distance

    if info.version != CSR_ONLY_VERSION:
        raise CSRStoreError(f"{info.path} already has derived sections")

    config = EngineConfig()
    dtypes = dict(DERIVED_SECTION_DTYPES)
    sections = dict(info.sections)
    cursor = info.file_bytes
    graph = _open_graph(info, mmap=True)
    # Opening validated every indptr; none of the steps needs them all.
    graph.release_pages()
    started = time.perf_counter()
    with open(info.path, "r+b") as handle:

        def append(name: str, blocks: Sequence[np.ndarray]) -> None:
            nonlocal cursor
            offset = _align(cursor)
            handle.seek(offset)
            length = 0
            for block in blocks:
                data = np.ascontiguousarray(block, dtype=dtypes[name])
                handle.write(data.tobytes())
                length += len(data)
            sections[name] = StoreSection(offset=offset, dtype=dtypes[name], length=length)
            cursor = offset + sections[name].nbytes

        lengths, postings, meta = encode_index(InvertedIndex.from_graph(graph))
        append("index_meta", [_json_blob(meta)])
        append("index_lengths", [lengths])
        append("index_postings", postings)
        del postings
        append("node_weights", [node_weights(graph)])
        # The sampler, and so the engine, needs two nodes.
        estimate: Optional[dict] = None
        if info.n_nodes >= 2:
            estimate = asdict(
                estimate_average_distance(
                    graph, n_pairs=config.distance_sample_pairs, seed=config.seed
                )
            )
        record = {
            "n_pairs": config.distance_sample_pairs,
            "seed": config.seed,
            "estimate": estimate,
        }
        append("distance", [_json_blob(record)])
        handle.truncate(cursor)
        handle.flush()
        os.fsync(handle.fileno())
        derived = StoreInfo(
            path=info.path,
            version=FORMAT_VERSION,
            n_nodes=info.n_nodes,
            n_edges=info.n_edges,
            sections=sections,
            file_bytes=cursor,
            derived_revision=DERIVED_REVISION,
        )
        handle.seek(0)
        handle.write(_encode_header(derived))
        handle.flush()
        os.fsync(handle.fileno())
    return replace(derived, derived_ms=(time.perf_counter() - started) * 1e3)


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
    if version not in _SECTIONS_OF_VERSION:
        raise CSRStoreError(
            f"{path} uses CSRStore format version {version}; "
            f"this build reads versions {CSR_ONLY_VERSION} and {FORMAT_VERSION}"
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
        derived_revision = (
            None if version == CSR_ONLY_VERSION else int(payload["derived_revision"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise CSRStoreError(f"{path} header is corrupt: {exc}") from exc
    expected = set(_SECTIONS_OF_VERSION[version])
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
        derived_revision=derived_revision,
    )


#: Entries decoded per block when a :class:`TextBlob` is iterated.
_TEXT_ITER_BLOCK = 8192


class TextBlob(Sequence[str]):
    """Lazy ``Sequence[str]`` over the text sections of an open store.

    Decoding happens per access, so a 2M-node store does not materialize
    2M Python strings at open time. Slices return real lists.

    An item is read through memoryviews of the two sections, made once:
    an offset is a Python int and the text's bytes a buffer slice that
    decodes in place, so a read makes no NumPy call (a served answer
    reads one text per node).
    """

    __slots__ = ("_offsets", "_data", "_bounds", "_bytes")

    def __init__(self, offsets: np.ndarray, data: np.ndarray) -> None:
        self._offsets = offsets
        self._data = data
        self._bounds = memoryview(offsets)
        self._bytes = memoryview(data)

    def __len__(self) -> int:
        return len(self._bounds) - 1

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> List[str]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        bounds = self._bounds
        n = len(bounds) - 1
        i = index if index >= 0 else index + n
        if not 0 <= i < n:
            raise IndexError("node text index out of range")
        # ``tobytes().decode`` halves ``str(memoryview, ...)``'s cost.
        return self._bytes[bounds[i]:bounds[i + 1]].tobytes().decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        # One offsets slice and one bytes copy per block instead of bounds
        # checks, int() conversions and a memmap slice per entry; the
        # block, and releasing the pages it was copied from, keep a full
        # scan of a multi-million-node store from making the whole text
        # section resident.
        offsets, data = self._offsets, self._data
        for first in range(0, len(self), _TEXT_ITER_BLOCK):
            bounds = offsets[first:first + _TEXT_ITER_BLOCK + 1].tolist()
            base = bounds[0]
            block = data[base:bounds[-1]].tobytes()
            release_pages(offsets)
            release_pages(data)
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

    The cached ``degree_array`` view comes straight from its on-disk
    section, so no O(V) derivation runs at open time. The
    derived sections are mapped with the CSR ones and read when the engine
    asks for them. A version-1 store (which has none), or one whose derived
    sections come from another :data:`DERIVED_REVISION` (which are then
    not used), opens with one warning per process. Opening never writes to
    the file.
    """
    info = read_info(path)
    if info.version == CSR_ONLY_VERSION:
        _warn_rebuild(
            f"{info.path} is a version-1 .csrstore without the inverted-index, "
            "weight and distance sections"
        )
    elif info.derived_revision != DERIVED_REVISION:
        _warn_rebuild(
            f"{info.path} holds inverted-index, weight and distance sections "
            f"derived under revision {info.derived_revision}, not "
            f"{DERIVED_REVISION}"
        )
    return _open_graph(info, mmap)


_warned_rebuild = False


def _warn_rebuild(problem: str) -> None:
    global _warned_rebuild
    if _warned_rebuild:
        return
    _warned_rebuild = True
    warnings.warn(
        f"{problem}, so every start recomputes them in memory; rebuild it "
        "(save_store or `python -m repro build-graph`) to store them",
        stacklevel=3,
    )


def _open_graph(info: StoreInfo, mmap: bool) -> KnowledgeGraph:
    names = [
        name for name, _ in SECTION_DTYPES if name not in UNMAPPED_SECTIONS
    ]
    if info.derived_revision == DERIVED_REVISION:
        names += [name for name, _ in DERIVED_SECTION_DTYPES]
    arrays = {name: _open_section(info, name, mmap) for name in names}
    out = CSRAdjacency(arrays["out_indptr"], arrays["out_indices"], arrays["out_labels"])
    inc = CSRAdjacency(arrays["inc_indptr"], arrays["inc_indices"], arrays["inc_labels"])
    adj = CSRAdjacency(arrays["adj_indptr"], arrays["adj_indices"], arrays["adj_labels"])
    # cached_property stores through the instance __dict__, which bypasses the
    # frozen-dataclass __setattr__ — inject the persisted view directly.
    adj.__dict__["degree_array"] = arrays["adj_degree"]
    meta = json.loads(bytes(_open_section(info, "meta", mmap=False)).decode("utf-8"))
    node_text = TextBlob(arrays["text_offsets"], arrays["text_data"])
    graph = KnowledgeGraph(
        out=out,
        inc=inc,
        adj=adj,
        node_text=node_text,
        predicates=Vocabulary.from_list(meta["predicates"]),
    )
    graph.store = StoreHandle(path=info.path, info=info, mmap=bool(mmap), arrays=arrays)
    return graph


_MADV_DONTNEED = getattr(_mmap_module, "MADV_DONTNEED", None)


def release_pages(array: np.ndarray) -> None:
    """Unmap the file pages behind a memory-mapped ``array`` from this
    process: they leave its resident set but stay in the page cache, and
    the next read faults them back in from there. A no-op for an array on
    the heap, or where ``madvise`` is unavailable."""
    mapping = getattr(memmap_base(array), "_mmap", None)
    if mapping is not None and _MADV_DONTNEED is not None:
        mapping.madvise(_MADV_DONTNEED)


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
