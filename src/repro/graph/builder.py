"""Incremental construction of :class:`~repro.graph.csr.KnowledgeGraph`.

The builder accepts nodes (with their entity text) and labeled directed
edges in any order, then freezes everything into the three coordinated CSR
adjacencies. It is the single entry point for loaders, generators, and
hand-built test graphs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .csr import CSRAdjacency, KnowledgeGraph, row_windows
from .labels import Vocabulary
from .store import StoreInfo, StoreSection, StoreWriter, write_derived_sections

PredicateRef = Union[int, str]


class GraphBuilder:
    """Accumulates nodes and edges, then builds an immutable graph.

    >>> b = GraphBuilder()
    >>> sql = b.add_node("SQL")
    >>> ql = b.add_node("Query language")
    >>> _ = b.add_edge(sql, ql, "instance of")
    >>> g = b.build()
    >>> g.n_nodes, g.n_edges
    (2, 1)
    """

    def __init__(self) -> None:
        self._node_text: List[str] = []
        self._node_key_to_id: Dict[str, int] = {}
        self._sources: List[int] = []
        self._targets: List[int] = []
        self._labels: List[int] = []
        self._predicates = Vocabulary()

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph) -> "GraphBuilder":
        """Seed a builder with an existing graph's contents.

        The incremental-update path: load a graph, seed a builder from
        it, add new entities/edges, and build again. Node ids are
        preserved (new nodes get ids ≥ the old ``n_nodes``), so existing
        inverted-index postings stay valid and can be extended in place
        via :meth:`repro.text.inverted_index.InvertedIndex.extend`.
        """
        builder = cls()
        builder._node_text = list(graph.node_text)
        for name in graph.predicates:
            builder._predicates.add(name)
        for source, target, label in graph.edge_list():
            builder._sources.append(source)
            builder._targets.append(target)
            builder._labels.append(label)
        return builder

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, text: str = "", key: Optional[str] = None) -> int:
        """Add a node carrying entity ``text`` and return its id.

        Args:
            text: the human-readable label attached to the node; keyword
                matching tokenizes this text.
            key: optional stable identifier (e.g. a Wikidata Q-id). Adding
                the same key twice returns the existing node instead of
                creating a duplicate.
        """
        if key is not None:
            existing = self._node_key_to_id.get(key)
            if existing is not None:
                return existing
        node_id = len(self._node_text)
        self._node_text.append(text)
        if key is not None:
            self._node_key_to_id[key] = node_id
        return node_id

    def node_id_for_key(self, key: str) -> int:
        """Look up the node previously registered under ``key``.

        Raises:
            KeyError: if no node carries that key.
        """
        return self._node_key_to_id[key]

    @property
    def n_nodes(self) -> int:
        return len(self._node_text)

    @property
    def n_edges(self) -> int:
        return len(self._sources)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, source: int, target: int, predicate: PredicateRef) -> int:
        """Add a directed edge ``source --predicate--> target``.

        Args:
            predicate: either an already-interned predicate id or the
                predicate name (interned on first use).

        Returns:
            The position of the edge in insertion order.

        Raises:
            ValueError: if either endpoint does not exist or is a self-loop.
        """
        n = self.n_nodes
        if not (0 <= source < n) or not (0 <= target < n):
            raise ValueError(f"edge endpoint out of range: ({source}, {target})")
        if source == target:
            raise ValueError(f"self-loops are not allowed (node {source})")
        if isinstance(predicate, str):
            predicate_id = self._predicates.add(predicate)
        else:
            predicate_id = int(predicate)
            if not (0 <= predicate_id < len(self._predicates)):
                raise ValueError(f"unknown predicate id {predicate_id}")
        self._sources.append(source)
        self._targets.append(target)
        self._labels.append(predicate_id)
        return len(self._sources) - 1

    def add_predicate(self, name: str) -> int:
        """Pre-intern a predicate name and return its id."""
        return self._predicates.add(name)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, deduplicate: bool = True) -> KnowledgeGraph:
        """Freeze the accumulated data into a :class:`KnowledgeGraph`.

        Args:
            deduplicate: drop exact duplicate ``(source, target, predicate)``
                triples, which real RDF dumps routinely contain.
        """
        n = self.n_nodes
        sources = np.asarray(self._sources, dtype=np.int64)
        targets = np.asarray(self._targets, dtype=np.int64)
        labels = np.asarray(self._labels, dtype=np.int64)
        if deduplicate and len(sources):
            triples = np.stack([sources, targets, labels], axis=1)
            triples = np.unique(triples, axis=0)
            sources, targets, labels = triples[:, 0], triples[:, 1], triples[:, 2]
        out = CSRAdjacency.from_edge_arrays(n, sources, targets, labels)
        inc = CSRAdjacency.from_edge_arrays(n, targets, sources, labels)
        adj = CSRAdjacency.from_edge_arrays(
            n,
            np.concatenate([sources, targets]),
            np.concatenate([targets, sources]),
            np.concatenate([labels, labels]),
        )
        return KnowledgeGraph(
            out=out,
            inc=inc,
            adj=adj,
            node_text=self._node_text,
            predicates=self._predicates,
        )


# ----------------------------------------------------------------------
# Streaming (out-of-core) construction
# ----------------------------------------------------------------------
#: On-disk dtype of spill-run rows. Every value is a node or predicate id,
#: which the final store holds as int32 anyway — spilling int64 doubles run
#: I/O and, worse, doubles every merge window in RAM.
_RUN_DTYPE = "<i4"
_RUN_ITEMSIZE = 4


def _write_run(path: str, sources: np.ndarray, targets: np.ndarray, labels: np.ndarray) -> None:
    """Persist one sorted spill run: int64 row count, then the three int32
    rows (primary key, secondary key, label), each sorted by (key, secondary,
    label) so merge passes can search the key row.

    Rows are permuted and written in bounded slices: a whole-row fancy
    index plus its ``tobytes`` copy would transiently double the spill
    buffer, and those spikes — not the steady state — set the builder's
    peak RSS.
    """
    order = np.lexsort((labels, targets, sources))
    slice_rows = 1 << 16
    with open(path, "wb") as handle:
        handle.write(np.int64(len(sources)).tobytes())
        for row in (sources, targets, labels):
            for start in range(0, len(order), slice_rows):
                piece = order[start : start + slice_rows]
                handle.write(
                    np.ascontiguousarray(row[piece], dtype=_RUN_DTYPE).tobytes()
                )


class _SortedRunReader:
    """Reads window slices of a spill run without mapping the whole file.

    Everything — the key row included — is fetched with plain seek+read
    into transient heap buffers. Mapping the key row and binary searching
    it looks cheaper on paper (O(log k) page touches), but each fault
    pulls in a whole readahead cluster, and across the windows of a merge
    pass that makes every run's key row resident simultaneously: the
    total key bytes scale with |E|, which defeats the bounded-RSS build.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            self.k = int(np.frombuffer(handle.read(8), dtype="<i8")[0])
        self._handle = open(path, "rb")

    def cut_points(self, bounds: np.ndarray) -> np.ndarray:
        """Row positions of each node-id bound (parallel to ``bounds``).

        The key row is globally sorted, so each streamed chunk is sorted
        too and the cut point for a bound is the sum of the per-chunk
        ``searchsorted`` positions.
        """
        needles = bounds.astype(np.int32, copy=False)
        cuts = np.zeros(len(bounds), dtype=np.int64)
        for block in self.key_blocks():
            cuts += np.searchsorted(block, needles, side="left")
        return cuts

    def key_blocks(self, block_rows: int = 1 << 18) -> Iterator[np.ndarray]:
        """Stream the key row in bounded chunks (for pre-count passes)."""
        for start in range(0, self.k, block_rows):
            rows = min(block_rows, self.k - start)
            self._handle.seek(8 + start * _RUN_ITEMSIZE)
            yield np.frombuffer(
                self._handle.read(rows * _RUN_ITEMSIZE), dtype=_RUN_DTYPE
            )

    def read_rows_into(self, start: int, stop: int, block: np.ndarray, off: int) -> None:
        """Read rows ``[start, stop)`` into ``block[:, off:off + m]`` in place.

        ``block`` must be a C-contiguous ``(3, width)`` int32 array — each
        destination row slice is then contiguous and ``readinto`` lands the
        bytes without an intermediate copy.
        """
        rows = stop - start
        for r in range(3):
            self._handle.seek(8 + (r * self.k + start) * _RUN_ITEMSIZE)
            self._handle.readinto(block[r, off : off + rows])

    def close(self) -> None:
        self._handle.close()


class _RunSpiller:
    """Buffers (key, secondary, label) blocks and spills sorted runs."""

    def __init__(self, tmpdir: str, tag: str, chunk_rows: int) -> None:
        self._tmpdir = tmpdir
        self._tag = tag
        self._chunk_rows = max(1, int(chunk_rows))
        self._blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = 0
        self.paths: List[str] = []

    def add(self, keys: np.ndarray, secondary: np.ndarray, labels: np.ndarray) -> None:
        if not len(keys):
            return
        # Copy: the inputs are views into a merge window's block, which must
        # not be kept alive until the next spill.
        self._blocks.append((keys.copy(), secondary.copy(), labels.copy()))
        self._rows += len(keys)
        if self._rows >= self._chunk_rows:
            self.flush()

    def flush(self) -> None:
        if not self._rows:
            return
        keys = np.concatenate([b[0] for b in self._blocks])
        secondary = np.concatenate([b[1] for b in self._blocks])
        labels = np.concatenate([b[2] for b in self._blocks])
        self._blocks = []
        self._rows = 0
        path = os.path.join(self._tmpdir, f"{self._tag}-{len(self.paths):05d}.run")
        _write_run(path, keys, secondary, labels)
        self.paths.append(path)


def _window_bounds(counts: np.ndarray, window_rows: int) -> np.ndarray:
    """Partition ``range(len(counts))`` into windows of ~``window_rows`` rows.

    Every window holds at least one node, so a hub whose row count exceeds
    the target gets a window of its own (bounded by max degree, not by the
    target).
    """
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    bounds = [0] + [hi for _, hi in row_windows(indptr, window_rows)]
    return np.asarray(bounds, dtype=np.int64)


def _merge_runs(
    readers: Sequence[_SortedRunReader],
    bounds: np.ndarray,
    deduplicate: bool,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """K-way merge of sorted runs, one key window at a time.

    Yields ``(lo, hi, block)`` with ``block`` a ``(3, m)`` int64 array sorted
    by (key, secondary, label); exact duplicate rows are dropped when
    ``deduplicate``. Windowing keeps peak memory at O(window), not O(E).
    """
    cuts = [reader.cut_points(bounds) for reader in readers]
    for w in range(len(bounds) - 1):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        spans = [
            (reader, int(cut[w]), int(cut[w + 1]))
            for reader, cut in zip(readers, cuts)
        ]
        m = sum(stop - start for _, start, stop in spans)
        if not m:
            yield lo, hi, np.zeros((3, 0), dtype=np.int32)
            continue
        # A hub whose degree exceeds the window target gets a window of its
        # own, so a block can reach O(max_degree) rows. Everything below is
        # careful to stay near ONE such block: runs are read straight into
        # the preallocated block (no per-run parts + concatenate doubling)
        # and the sort permutation is applied row by row in place (one
        # row-sized temporary instead of a second whole block).
        block = np.empty((3, m), dtype=np.int32)
        off = 0
        for reader, start, stop in spans:
            if stop > start:
                reader.read_rows_into(start, stop, block, off)
                off += stop - start
        order = np.lexsort((block[2], block[1], block[0]))
        for r in range(3):
            block[r] = block[r][order]
        del order
        if deduplicate and block.shape[1] > 1:
            keep = np.empty(block.shape[1], dtype=bool)
            keep[0] = True
            np.any(block[:, 1:] != block[:, :-1], axis=0, out=keep[1:])
            block = block[:, keep]
        yield lo, hi, block


class _SectionFileReader:
    """Seek+read access to sections of a store file being written.

    Used by the adj pass to re-read the already-written out/inc sections
    without mapping them (mapped reads would count against resident memory,
    defeating the bounded-RSS build).
    """

    def __init__(self, path: str, sections: Dict[str, StoreSection]) -> None:
        self._handle = open(path, "rb")
        self._sections = sections

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        section = self._sections[name]
        itemsize = np.dtype(section.dtype).itemsize
        self._handle.seek(section.offset + start * itemsize)
        return np.frombuffer(self._handle.read((stop - start) * itemsize), dtype=section.dtype)

    def close(self) -> None:
        self._handle.close()


class StreamingGraphBuilder:
    """Builds a version-2 ``.csrstore`` file in bounded memory.

    Same ``add_node`` / ``add_edge`` protocol as :class:`GraphBuilder`, but
    nothing accumulates in RAM beyond a spill buffer: node text streams to a
    spool file, edges spill to sorted runs every ``chunk_edges`` additions,
    and :meth:`finalize` external-merges the runs into the on-disk CSR in
    three sequential passes (out, inc, adj), each windowed to
    ``window_rows`` rows. The resulting store opens to a graph bitwise
    identical to ``GraphBuilder.build()`` on the same input (same dedup, same
    (source, target, label) sort, same cross-direction duplicate handling in
    ``adj``).

    Node and predicate ids are carried as int32 end to end (edge buffers,
    spill runs, merge windows) — the store's index sections are int32
    anyway, so nothing representable is lost, and every merge window costs
    half the RAM it would at int64.

    >>> b = StreamingGraphBuilder(chunk_edges=4)
    >>> nodes = [b.add_node(f"node {i}") for i in range(3)]
    >>> for i in range(3):
    ...     _ = b.add_edge(nodes[i], nodes[(i + 1) % 3], "linked to")
    >>> import tempfile, os
    >>> with tempfile.TemporaryDirectory() as d:
    ...     info = b.finalize(os.path.join(d, "g.csrstore"))
    ...     (info.n_nodes, info.n_edges)
    (3, 3)
    """

    DEFAULT_CHUNK_EDGES = 1 << 18
    DEFAULT_WINDOW_ROWS = 1 << 18

    def __init__(
        self,
        spill_dir: Optional[str] = None,
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
        window_rows: int = DEFAULT_WINDOW_ROWS,
    ) -> None:
        self._tmpdir = tempfile.mkdtemp(prefix="repro-csrbuild-", dir=spill_dir)
        self._text_spool = open(os.path.join(self._tmpdir, "text.bin"), "wb")
        self._text_offsets = array("q", [0])
        self._node_key_to_id: Dict[str, int] = {}
        self._predicates = Vocabulary()
        self._chunk_edges = max(1, int(chunk_edges))
        self._window_rows = max(1, int(window_rows))
        self._sources = array("i")
        self._targets = array("i")
        self._labels = array("i")
        self._runs: List[str] = []
        self._edges_added = 0
        self._finalized = False

    # -- node/edge protocol (mirrors GraphBuilder) ---------------------
    def add_node(self, text: str = "", key: Optional[str] = None) -> int:
        if self._finalized:
            raise RuntimeError("builder already finalized")
        if key is not None:
            existing = self._node_key_to_id.get(key)
            if existing is not None:
                return existing
        node_id = len(self._text_offsets) - 1
        blob = text.encode("utf-8")
        self._text_spool.write(blob)
        self._text_offsets.append(self._text_offsets[-1] + len(blob))
        if key is not None:
            self._node_key_to_id[key] = node_id
        return node_id

    def node_id_for_key(self, key: str) -> int:
        return self._node_key_to_id[key]

    @property
    def n_nodes(self) -> int:
        return len(self._text_offsets) - 1

    @property
    def n_edges(self) -> int:
        """Edges added so far (before dedup)."""
        return self._edges_added

    def add_edge(self, source: int, target: int, predicate: PredicateRef) -> int:
        if self._finalized:
            raise RuntimeError("builder already finalized")
        n = self.n_nodes
        if not (0 <= source < n) or not (0 <= target < n):
            raise ValueError(f"edge endpoint out of range: ({source}, {target})")
        if source == target:
            raise ValueError(f"self-loops are not allowed (node {source})")
        if isinstance(predicate, str):
            predicate_id = self._predicates.add(predicate)
        else:
            predicate_id = int(predicate)
            if not (0 <= predicate_id < len(self._predicates)):
                raise ValueError(f"unknown predicate id {predicate_id}")
        self._sources.append(source)
        self._targets.append(target)
        self._labels.append(predicate_id)
        self._edges_added += 1
        if len(self._sources) >= self._chunk_edges:
            self._spill()
        return self._edges_added - 1

    def add_predicate(self, name: str) -> int:
        return self._predicates.add(name)

    def close(self) -> None:
        """Discard spill state without finalizing (error-path cleanup)."""
        self._finalized = True
        if not self._text_spool.closed:
            self._text_spool.close()
        shutil.rmtree(self._tmpdir, ignore_errors=True)

    def _spill(self) -> None:
        if not len(self._sources):
            return
        sources = np.frombuffer(self._sources, dtype=np.intc)
        targets = np.frombuffer(self._targets, dtype=np.intc)
        labels = np.frombuffer(self._labels, dtype=np.intc)
        path = os.path.join(self._tmpdir, f"fwd-{len(self._runs):05d}.run")
        _write_run(path, sources, targets, labels)
        self._runs.append(path)
        self._sources = array("i")
        self._targets = array("i")
        self._labels = array("i")

    # -- finalize ------------------------------------------------------
    def finalize(
        self,
        path: Union[str, os.PathLike],
        name: str = "unnamed",
        seed: Optional[int] = None,
        deduplicate: bool = True,
        notes: Optional[dict] = None,
    ) -> StoreInfo:
        """Merge the spill runs into a store file at ``path``.

        Three passes, each streaming windows of ~``window_rows`` rows:

        1. merge forward runs (dedup here) → ``out_*`` sections, per-node
           out/in counts, and reverse-keyed spill runs;
        2. merge reverse runs → ``inc_*`` sections;
        3. re-read the written out/inc sections per window, union them into
           the bi-directed ``adj_*`` sections (cross-direction duplicates
           kept, exactly like ``GraphBuilder.build``).

        Then :func:`~repro.graph.store.write_derived_sections` computes the
        index, weight and distance sections over the finished CSR.
        """
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True
        self._spill()
        self._text_spool.flush()
        self._text_spool.close()
        try:
            info = self._finalize_inner(os.fspath(path), name, seed, deduplicate, notes)
        finally:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
        return write_derived_sections(info)

    def _finalize_inner(
        self,
        path: str,
        name: str,
        seed: Optional[int],
        deduplicate: bool,
        notes: Optional[dict],
    ) -> StoreInfo:
        n = self.n_nodes
        window = self._window_rows
        readers = [_SortedRunReader(run) for run in self._runs]

        # Window bounds for the forward pass need pre-dedup per-source counts.
        pre_counts = np.zeros(n, dtype=np.int64)
        for reader in readers:
            for keys in reader.key_blocks():
                pre_counts += np.bincount(keys, minlength=n)
        fwd_bounds = _window_bounds(pre_counts, window)
        del pre_counts

        # Pass 1: forward merge → temp out arrays + counts + reverse runs.
        counts_out = np.zeros(n, dtype=np.int32)
        counts_in = np.zeros(n, dtype=np.int32)
        out_idx_path = os.path.join(self._tmpdir, "out_idx.bin")
        out_lab_path = os.path.join(self._tmpdir, "out_lab.bin")
        reverse = _RunSpiller(self._tmpdir, "rev", self._chunk_edges)
        with open(out_idx_path, "wb") as out_idx, open(out_lab_path, "wb") as out_lab:
            for lo, hi, block in _merge_runs(readers, fwd_bounds, deduplicate):
                if not block.shape[1]:
                    continue
                sources, targets, labels = block[0], block[1], block[2]
                counts_out[lo:hi] += np.bincount(sources - lo, minlength=hi - lo)
                counts_in += np.bincount(targets, minlength=n)
                out_idx.write(np.ascontiguousarray(targets, dtype=np.int32).tobytes())
                out_lab.write(np.ascontiguousarray(labels, dtype=np.int32).tobytes())
                reverse.add(targets, sources, labels)
        reverse.flush()
        for reader in readers:
            reader.close()
            os.unlink(reader.path)
        n_edges = int(counts_out.sum(dtype=np.int64))

        meta = {
            "predicates": self._predicates.to_list(),
            "name": name,
            "seed": seed,
            "notes": notes or {},
        }
        writer = StoreWriter(path, n, n_edges, int(self._text_offsets[-1]), meta)
        try:
            self._write_indptr(writer, "out_indptr", counts_out)
            self._copy_into_section(writer, "out_indices", out_idx_path)
            self._copy_into_section(writer, "out_labels", out_lab_path)
            writer.append("text_offsets", np.frombuffer(self._text_offsets, dtype=np.int64))
            self._copy_into_section(
                writer, "text_data", os.path.join(self._tmpdir, "text.bin")
            )
            self._text_offsets = array("q", [0])

            # Pass 2: reverse merge → inc sections. No dedup needed: the
            # forward pass already removed duplicate triples.
            self._write_indptr(writer, "inc_indptr", counts_in)
            rev_readers = [_SortedRunReader(run) for run in reverse.paths]
            inc_bounds = _window_bounds(counts_in, window)
            for _, _, block in _merge_runs(rev_readers, inc_bounds, deduplicate=False):
                writer.append("inc_indices", block[1])
                writer.append("inc_labels", block[2])
            for reader in rev_readers:
                reader.close()
                os.unlink(reader.path)

            # Pass 3: bi-directed union from the sections just written.
            counts_adj = counts_out + counts_in
            self._write_indptr(writer, "adj_indptr", counts_adj)
            writer.flush()
            section_reader = _SectionFileReader(path, writer.sections)
            adj_bounds = _window_bounds(counts_adj, window)
            out_pos = 0
            inc_pos = 0
            for w in range(len(adj_bounds) - 1):
                lo, hi = int(adj_bounds[w]), int(adj_bounds[w + 1])
                deg_out = counts_out[lo:hi].astype(np.int64)
                deg_in = counts_in[lo:hi].astype(np.int64)
                m_out = int(deg_out.sum())
                m_in = int(deg_in.sum())
                node_range = np.arange(lo, hi, dtype=np.int32)
                merged_s = np.concatenate(
                    [np.repeat(node_range, deg_out), np.repeat(node_range, deg_in)]
                )
                merged_t = np.concatenate(
                    [
                        section_reader.read("out_indices", out_pos, out_pos + m_out),
                        section_reader.read("inc_indices", inc_pos, inc_pos + m_in),
                    ]
                )
                merged_l = np.concatenate(
                    [
                        section_reader.read("out_labels", out_pos, out_pos + m_out),
                        section_reader.read("inc_labels", inc_pos, inc_pos + m_in),
                    ]
                )
                order = np.lexsort((merged_l, merged_t, merged_s))
                del merged_s
                sorted_t = merged_t[order]
                del merged_t
                writer.append("adj_indices", sorted_t)
                writer.append("adj_indices64", sorted_t)
                del sorted_t
                writer.append("adj_labels", merged_l[order])
                writer.append("adj_degree", counts_adj[lo:hi])
                out_pos += m_out
                inc_pos += m_in
            section_reader.close()
        except Exception:
            writer.abort()
            raise
        return writer.close()

    @staticmethod
    def _write_indptr(writer: StoreWriter, section: str, counts: np.ndarray) -> None:
        """Write ``[0, cumsum(counts)]`` blockwise (never the full indptr in RAM)."""
        writer.append(section, np.zeros(1, dtype=np.int64))
        running = 0
        block = 1 << 20
        for start in range(0, len(counts), block):
            segment = np.cumsum(counts[start : start + block], dtype=np.int64) + running
            writer.append(section, segment)
            running = int(segment[-1])

    @staticmethod
    def _copy_into_section(writer: StoreWriter, section: str, source_path: str) -> None:
        dtype = np.dtype(writer.sections[section].dtype)
        with open(source_path, "rb") as handle:
            while True:
                chunk = handle.read(1 << 22)
                if not chunk:
                    break
                writer.append(section, np.frombuffer(chunk, dtype=dtype))


def graph_from_triples(
    triples: "list[tuple[str, str, str]]",
    node_text: Optional[Dict[str, str]] = None,
) -> KnowledgeGraph:
    """Build a graph from ``(subject_key, predicate, object_key)`` triples.

    Args:
        triples: string triples; subjects/objects become nodes keyed by the
            string, predicates are interned by name.
        node_text: optional mapping from node key to display text; nodes not
            present fall back to their key as text.

    This is the convenience path for tests and tiny hand-written fixtures.
    """
    node_text = node_text or {}
    builder = GraphBuilder()
    for subject, predicate, obj in triples:
        s = builder.add_node(node_text.get(subject, subject), key=subject)
        o = builder.add_node(node_text.get(obj, obj), key=obj)
        builder.add_edge(s, o, predicate)
    return builder.build()
