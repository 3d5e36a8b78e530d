"""Compressed Sparse Row (CSR) graph storage.

The paper stores the knowledge graph in CSR format and models it as a
bi-directed, node-weighted, edge-labeled graph (Section III). We keep three
coordinated CSR adjacencies:

* ``out`` — the directed edges as loaded (subject → object),
* ``inc`` — the reverse direction (used by the degree-of-summary weights,
  Eq. 2, which are defined over *in*-edges and their labels),
* ``adj`` — the bi-directed union used by every traversal, since the paper
  "model[s] Wikidata KB as a bi-directed ... graph" to enhance connectivity.

All arrays use dense integer dtypes so the search state (node-keyword
matrix, frontier flags) can be manipulated with vectorized NumPy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

import numpy as np

from .labels import Vocabulary

if TYPE_CHECKING:
    from .store import StoreHandle


@dataclass(frozen=True)
class CSRAdjacency:
    """One CSR adjacency: ``indices[indptr[v]:indptr[v+1]]`` are v's neighbors.

    ``labels`` is parallel to ``indices`` and holds the predicate id of each
    edge. Neighbor lists are sorted by (neighbor id, label id) after build,
    which makes equality checks and binary searches deterministic.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1 or self.labels.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if len(self.indices) != len(self.labels):
            raise ValueError("indices and labels must be parallel arrays")
        if len(self.indptr) == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        # The adjacency is shared by every backend (including fork-based
        # worker pools) and all cached views alias it, so the base arrays
        # are frozen: an accidental in-place edit after construction
        # would silently desynchronize out/inc/adj and the cached views.
        for array in (self.indptr, self.indices, self.labels):
            array.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_entries(self) -> int:
        return int(self.indptr[-1])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node`` (a view, do not mutate)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def neighbor_labels(self, node: int) -> np.ndarray:
        """Predicate ids parallel to :meth:`neighbors`."""
        return self.labels[self.indptr[node]:self.indptr[node + 1]]

    def edges_of(self, node: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(neighbor, predicate_id)`` pairs for ``node``."""
        start, stop = int(self.indptr[node]), int(self.indptr[node + 1])
        for pos in range(start, stop):
            yield int(self.indices[pos]), int(self.labels[pos])

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array."""
        return self.degree_array

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Precomputed per-node degrees (read-only; built once per graph).

        The expansion hot path indexes this every BFS level; computing
        ``np.diff(indptr)`` per level would rebuild an |V|-sized array each
        time.
        """
        degrees = np.diff(self.indptr)
        degrees.setflags(write=False)
        return degrees

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.labels.nbytes)

    @classmethod
    def from_edge_arrays(
        cls,
        n_nodes: int,
        sources: np.ndarray,
        targets: np.ndarray,
        labels: np.ndarray,
    ) -> "CSRAdjacency":
        """Build a CSR adjacency from parallel COO-style edge arrays.

        Edges are grouped by source and each neighbor list is sorted by
        (target, label) so that builds are deterministic regardless of input
        order.
        """
        if not (len(sources) == len(targets) == len(labels)):
            raise ValueError("edge arrays must have equal length")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int32)
        labels = np.asarray(labels, dtype=np.int32)
        if len(sources) and (sources.min() < 0 or sources.max() >= n_nodes):
            raise ValueError("edge source out of range")
        if len(targets) and (targets.min() < 0 or targets.max() >= n_nodes):
            raise ValueError("edge target out of range")
        order = np.lexsort((labels, targets, sources))
        sources = sources[order]
        targets = targets[order]
        labels = labels[order]
        counts = np.bincount(sources, minlength=n_nodes)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=targets, labels=labels)


def row_windows(indptr: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Split the rows of ``indptr`` into consecutive ``[lo, hi)`` windows
    of at most ``budget`` entries (``indptr[hi] - indptr[lo]``).

    A row longer than ``budget`` gets a window of its own, so a window is
    bounded by ``max(budget, largest row)``. Each step is one binary
    search: nothing the size of ``indptr`` is allocated, so a memory-mapped
    ``indptr`` stays paged out.
    """
    n_rows = len(indptr) - 1
    lo = 0
    while lo < n_rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), n_rows)
        yield lo, hi
        lo = hi


class KnowledgeGraph:
    """A bi-directed, edge-labeled knowledge graph in CSR form.

    This is the substrate every search component operates on. Instances are
    immutable after construction; use :class:`repro.graph.builder.GraphBuilder`
    to create one.

    Attributes:
        out: directed adjacency (subject → object).
        inc: reverse adjacency (object → subject); Eq. 2 weights read this.
        adj: bi-directed union adjacency used by all traversals.
        node_text: entity label text per node (may be empty strings).
        predicates: interned predicate vocabulary.
    """

    def __init__(
        self,
        out: CSRAdjacency,
        inc: CSRAdjacency,
        adj: CSRAdjacency,
        node_text: Sequence[str],
        predicates: Vocabulary,
    ) -> None:
        if not (out.n_nodes == inc.n_nodes == adj.n_nodes == len(node_text)):
            raise ValueError("adjacency / node_text sizes disagree")
        if out.n_entries != inc.n_entries:
            raise ValueError("out and in adjacencies must hold the same edges")
        self.out = out
        self.inc = inc
        self.adj = adj
        # Lists are defensively copied; lazy sequences (e.g. the mmap-backed
        # TextBlob of an on-disk store) are kept as-is so opening a
        # multi-million-node store does not materialize every label string.
        self.node_text: Sequence[str] = (
            list(node_text) if isinstance(node_text, list) else node_text
        )
        self.predicates = predicates
        # Set by repro.graph.store.open_store when this graph is backed by an
        # on-disk CSRStore (a StoreHandle); None for in-RAM graphs.
        self.store: Optional["StoreHandle"] = None

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.out.n_nodes

    @property
    def n_edges(self) -> int:
        """Number of *directed* edges as loaded (the paper's edge count)."""
        return self.out.n_entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KnowledgeGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def release_pages(self) -> None:
        """Let the file pages a store-backed graph has touched leave this
        process's resident set; they stay in the page cache and fault
        back in on the next read. A no-op for a graph in RAM.

        A scan over the whole graph calls it between windows, so what it
        keeps resident is one window of the file, not all of it.
        """
        if self.store is not None:
            self.store.release_pages()

    # ------------------------------------------------------------------
    # Navigation helpers
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Bi-directed neighbors of ``node`` (what the BFS expands over)."""
        return self.adj.neighbors(node)

    def predicate_name(self, predicate_id: int) -> str:
        return self.predicates[predicate_id]

    def degree(self, node: int) -> int:
        """Bi-directed degree (counting parallel edges)."""
        return self.adj.degree(node)

    def in_degree(self, node: int) -> int:
        return self.inc.degree(node)

    def out_degree(self, node: int) -> int:
        return self.out.degree(node)

    # ------------------------------------------------------------------
    # Statistics used by the paper
    # ------------------------------------------------------------------
    def in_label_counts(self, node: int) -> "dict[int, int]":
        """Count in-edges of ``node`` per predicate label.

        This is the r-per-label statistic of Eq. 2 (degree of summary):
        ``human`` style summary nodes have one label with a huge count.
        """
        labels = self.inc.neighbor_labels(node)
        uniques, counts = np.unique(labels, return_counts=True)
        return {int(label): int(count) for label, count in zip(uniques, counts)}

    def degree_statistics(self) -> "dict[str, float]":
        """Summary statistics handy for dataset tables and sanity checks."""
        degrees = self.adj.degrees()
        if len(degrees) == 0:
            return {"max": 0.0, "mean": 0.0, "median": 0.0}
        return {
            "max": float(degrees.max()),
            "mean": float(degrees.mean()),
            "median": float(np.median(degrees)),
        }

    # ------------------------------------------------------------------
    # Storage accounting (Table IV)
    # ------------------------------------------------------------------
    def storage_nbytes(self) -> int:
        """Bytes of the traversal-critical arrays (the paper's "pre-storage").

        The paper's pre-storage covers the CSR adjacency and the node weight
        array; node weights live outside this class, so callers add them.
        Text content is excluded, exactly as the paper excludes "texture and
        content information ... which can be stored in external memory".
        """
        return self.adj.nbytes

    def memory_report(self) -> "dict[str, object]":
        """Memory accounting that understands the mmap tier.

        For in-RAM graphs ``resident_nbytes`` equals ``csr_nbytes`` (the
        arrays really are heap). For store-backed graphs the resident figure
        is a ``mincore``-based page-cache estimate — the on-disk size is
        *not* process heap and must not be reported as such.
        """
        from .store import StoreHandle, memmap_base, resident_nbytes

        arrays = []
        for adjacency in (self.out, self.inc, self.adj):
            arrays.extend([adjacency.indptr, adjacency.indices, adjacency.labels])
        arrays.append(self.adj.degree_array)
        logical = sum(int(a.nbytes) for a in arrays)
        resident = 0
        mmap_backed = False
        for array in arrays:
            if memmap_base(array) is None:
                resident += int(array.nbytes)
                continue
            mmap_backed = True
            estimate = resident_nbytes(array)
            resident += int(array.nbytes) if estimate is None else estimate
        report: "dict[str, object]" = {
            "mmap": mmap_backed,
            "csr_nbytes": logical,
            "resident_nbytes": resident,
            "store_path": None,
            "store_bytes": None,
        }
        if isinstance(self.store, StoreHandle):
            report["store_path"] = str(self.store.path)
            report["store_bytes"] = self.store.info.store_bytes
        return report

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def edge_list(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every directed edge as ``(source, target, predicate_id)``."""
        for source in range(self.n_nodes):
            for target, label in self.out.edges_of(source):
                yield source, target, label

    def validate(self) -> None:
        """Cross-check the three adjacencies against each other.

        Raises:
            ValueError: if ``inc`` is not the exact reverse of ``out`` or
                ``adj`` is not their union.
        """
        forward = sorted(
            (s, t, lab) for s in range(self.n_nodes) for t, lab in self.out.edges_of(s)
        )
        backward = sorted(
            (s, t, lab) for t in range(self.n_nodes) for s, lab in self.inc.edges_of(t)
        )
        if forward != backward:
            raise ValueError("inc adjacency is not the reverse of out adjacency")
        union = sorted(
            [(s, t, lab) for (s, t, lab) in forward]
            + [(t, s, lab) for (s, t, lab) in forward]
        )
        both = sorted(
            (s, t, lab) for s in range(self.n_nodes) for t, lab in self.adj.edges_of(s)
        )
        if union != both:
            raise ValueError("adj adjacency is not the bi-directed union")


@dataclass
class GraphMetadata:
    """Optional provenance riding along with generated datasets."""

    name: str = "unnamed"
    seed: Optional[int] = None
    notes: dict = field(default_factory=dict)
