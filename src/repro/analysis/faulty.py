"""Deliberately broken backends for validating the invariant checker.

A checker nobody has ever seen fail is just more prose. These backends
perform a correct expansion and then inject exactly one class of
violation, so tests (and ``repro check --inject race``) can assert the
:class:`~repro.analysis.checked.CheckedBackend` detects each one:

* ``non-idempotent`` — one racing write stores ``level + 2`` instead of
  the idempotent ``level + 1`` (the write Theorem V.2 forbids);
* ``overwrite`` — re-stores into a cell already finite from an earlier
  level (breaks write-once);
* ``count-drift`` — silently bumps ``finite_count`` without a matching
  matrix write (breaks the deduplicated-write-set accounting);
* ``unreported`` — performs a matrix write but hides it from the write
  log (breaks the shadow-memory contract).

Never use these outside tests and checker self-validation.
"""

from __future__ import annotations

import numpy as np

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from ..parallel.backend import ExpansionBackend
from ..parallel.sequential import expand_frontier_chunk

#: The violation classes :class:`FaultyBackend` can inject.
FAULT_MODES = ("non-idempotent", "overwrite", "count-drift", "unreported")


class FaultyBackend(ExpansionBackend):
    """Sequential expansion plus one injected invariant violation.

    Args:
        mode: one of :data:`FAULT_MODES`.
        fault_level: earliest BFS level at which to inject. The fault
            lands at the first level ``>= fault_level`` where a suitable
            target cell exists (a level may legitimately write nothing),
            and is injected exactly once per search.
    """

    name = "faulty"

    def __init__(self, mode: str = "non-idempotent", fault_level: int = 0) -> None:
        if mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
        self.mode = mode
        self.fault_level = fault_level
        self.faults_injected = 0

    def expand(self, graph: KnowledgeGraph, state: SearchState, level: int) -> None:
        """Expand correctly, then corrupt state/log once per ``self.mode``."""
        expand_frontier_chunk(graph, state, level, state.frontier)
        if self.faults_injected or level < self.fault_level:
            return
        matrix = state.matrix
        log = state.write_log
        q = state.n_keywords
        if self.mode == "non-idempotent":
            # Restamp one cell written this level with level + 2: a racing
            # writer that did not write the same constant.
            cells = np.flatnonzero(matrix.ravel() == level + 1)
            if len(cells):
                matrix.ravel()[cells[0]] = level + 2
                if log is not None:
                    log.record_matrix(cells[:1], level + 2, level)
                self.faults_injected += 1
        elif self.mode == "overwrite":
            # Re-store into a cell finite since an earlier level.
            cells = np.flatnonzero(
                (matrix.ravel() != INFINITE_LEVEL)
                & (matrix.ravel() < level + 1)
            )
            if len(cells):
                matrix.ravel()[cells[0]] = level + 1
                if log is not None:
                    log.record_matrix(cells[:1], level + 1, level)
                self.faults_injected += 1
        elif self.mode == "count-drift":
            if state.n_nodes:
                node = int(np.argmin(state.finite_count))
                if state.finite_count[node] < q:
                    state.finite_count[node] += 1
                    self.faults_injected += 1
        elif self.mode == "unreported":
            # A write the log never sees (e.g. a code path missing its
            # checker hook).
            cells = np.flatnonzero(matrix.ravel() == INFINITE_LEVEL)
            if len(cells):
                matrix.ravel()[cells[0]] = level + 1
                node = int(cells[0]) // q
                state.finite_count[node] += 1
                self.faults_injected += 1
