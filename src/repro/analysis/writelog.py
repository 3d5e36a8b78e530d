"""Per-thread shadow log of scatter-stores into ``M`` / ``FIdentifier``.

The lock-free argument of the paper (Theorem V.2) rests on one write
discipline: during the expansion of level ``l`` every racing store into
the node-keyword matrix carries the constant ``l + 1`` into a
previously-infinite cell, and every frontier-flag store carries the
constant ``1``. The :class:`WriteLog` is the shadow memory that makes
that discipline *observable*: every backend's kernels report every
scatter batch they perform — target cells, stored value, BFS level —
and the log tags each batch with the OS thread that issued it.

Recording is lock-free in the same sense as the kernels themselves:
each thread appends to its own list (acquiring the registry lock only
once, on a thread's first batch), so the checker does not serialize the
races it is trying to observe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Batch kinds: matrix (``M``) and frontier (``FIdentifier``) stores.
KIND_MATRIX = "M"
KIND_FRONTIER = "F"


@dataclass(frozen=True)
class WriteBatch:
    """One scatter-store batch as issued by a kernel.

    Attributes:
        kind: :data:`KIND_MATRIX` for ``M`` stores (``cells`` are flat
            ``node * q + column`` keys), :data:`KIND_FRONTIER` for
            ``FIdentifier`` stores (``cells`` are node ids).
        cells: int64 array of store targets, duplicates preserved —
            duplicate targets are exactly the benign races the checker
            wants to see.
        value: the single value stored into every target of the batch
            (the kernels only ever scatter constants).
        level: the BFS level being expanded when the batch was issued.
        thread_id: OS thread ident of the storing thread.
    """

    kind: str
    cells: np.ndarray
    value: int
    level: int
    thread_id: int


class WriteLog:
    """Append-only, thread-partitioned record of kernel scatter-stores."""

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        self._by_thread: Dict[int, List[WriteBatch]] = {}
        self._local = threading.local()

    def _thread_batches(self) -> List[WriteBatch]:
        batches = getattr(self._local, "batches", None)
        if batches is None:
            batches = []
            self._local.batches = batches
            with self._registry_lock:
                self._by_thread[threading.get_ident()] = batches
        return batches

    def _record(self, kind: str, cells: np.ndarray, value: int, level: int) -> None:
        self._thread_batches().append(
            WriteBatch(
                kind=kind,
                cells=np.array(cells, dtype=np.int64, copy=True),
                value=int(value),
                level=int(level),
                thread_id=threading.get_ident(),
            )
        )

    def record_matrix(self, cells: np.ndarray, value: int, level: int) -> None:
        """Record stores of ``value`` into flat M cells ``cells``."""
        self._record(KIND_MATRIX, cells, value, level)

    def record_frontier(self, nodes: np.ndarray, value: int, level: int) -> None:
        """Record stores of ``value`` into ``FIdentifier[nodes]``."""
        self._record(KIND_FRONTIER, nodes, value, level)

    # ------------------------------------------------------------------
    # Read side (checker)
    # ------------------------------------------------------------------
    def batches(self, kind: str) -> Iterator[WriteBatch]:
        """All recorded batches of ``kind``, across every thread."""
        with self._registry_lock:
            per_thread = list(self._by_thread.values())
        for batch_list in per_thread:
            for batch in batch_list:
                if batch.kind == kind:
                    yield batch

    def n_batches(self) -> int:
        """Total number of recorded batches across every thread."""
        with self._registry_lock:
            return sum(len(batches) for batches in self._by_thread.values())

    def n_threads(self) -> int:
        """Number of distinct threads that issued at least one batch."""
        with self._registry_lock:
            return len(self._by_thread)

    def matrix_writes(self) -> Tuple[np.ndarray, np.ndarray]:
        """All M stores flattened to parallel ``(cells, values)`` arrays.

        Duplicates are preserved: a cell claimed by three racing chunks
        appears three times, carrying each chunk's stored value.
        """
        cells: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for batch in self.batches(KIND_MATRIX):
            cells.append(batch.cells)
            values.append(np.full(len(batch.cells), batch.value, dtype=np.int64))
        if not cells:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(cells), np.concatenate(values)

    def frontier_writes(self) -> Tuple[np.ndarray, np.ndarray]:
        """All FIdentifier stores as parallel ``(nodes, values)`` arrays."""
        nodes: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for batch in self.batches(KIND_FRONTIER):
            nodes.append(batch.cells)
            values.append(np.full(len(batch.cells), batch.value, dtype=np.int64))
        if not nodes:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(nodes), np.concatenate(values)
