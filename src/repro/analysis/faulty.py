"""Deliberately broken backends for validating the invariant checker.

A checker nobody has ever seen fail is just more prose. These backends
perform a correct expansion and inject exactly one class of violation,
so tests (and ``repro check --inject race``) can assert the
:class:`~repro.analysis.checked.CheckedBackend` detects each one:

* ``non-idempotent`` — one racing write stores ``level + 2`` instead of
  the idempotent ``level + 1`` (the write Theorem V.2 forbids);
* ``overwrite`` — re-stores into a cell already finite from an earlier
  level (breaks write-once);
* ``count-drift`` — silently bumps ``finite_count`` without a matching
  matrix write (breaks the deduplicated-write-set accounting);
* ``missed-central`` — one level's identification skips a node whose
  row is fully finite, which then expands like any other frontier (an
  identification fault on a route that inherits the composed level;
  the skipped node is left out of ``new_central`` as well).

Never use these outside tests and checker self-validation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from ..parallel.backend import ComposedBackend
from ..parallel.sequential import expand_frontier_chunk

#: The violation classes :class:`FaultyBackend` can inject.
FAULT_MODES = ("non-idempotent", "overwrite", "count-drift", "missed-central")


class FaultyBackend(ComposedBackend):
    """Sequential expansion plus one injected invariant violation.

    It inherits the composed level (enqueue, identify, :meth:`expand`).

    Args:
        mode: one of :data:`FAULT_MODES`.
        fault_level: earliest BFS level at which to inject. The fault
            lands at the first level ``>= fault_level`` where a suitable
            target exists (a level may legitimately write nothing), and
            is injected exactly once per search.
    """

    name = "faulty"

    def __init__(self, mode: str = "non-idempotent", fault_level: int = 0) -> None:
        if mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
        self.mode = mode
        self.fault_level = fault_level
        self.faults_injected = 0

    def expand(self, graph: KnowledgeGraph, state: SearchState, level: int) -> None:
        """Expand correctly, corrupting the state once per ``self.mode``."""
        state.live_lanes = expand_frontier_chunk(
            graph, state, level, state.frontier
        )
        if self.faults_injected or level < self.fault_level:
            return
        matrix = state.matrix.ravel()
        if self.mode == "non-idempotent":
            # Restamp one cell written this level with level + 2: a racing
            # writer that did not write the same constant.
            cells = np.flatnonzero(matrix == level + 1)
            if len(cells):
                matrix[cells[0]] = level + 2
                self.faults_injected += 1
        elif self.mode == "overwrite":
            # Re-store into a cell finite since an earlier level.
            cells = np.flatnonzero(
                (matrix != INFINITE_LEVEL) & (matrix < level + 1)
            )
            if len(cells):
                matrix[cells[0]] = level + 1
                self.faults_injected += 1
        elif self.mode == "count-drift":
            if state.n_nodes:
                node = int(np.argmin(state.finite_count))
                if state.finite_count[node] < state.n_keywords:
                    state.finite_count[node] += 1
                    self.faults_injected += 1
        elif self.mode == "missed-central":
            if "identify_central_nodes" not in vars(state):
                state.identify_central_nodes = self._skipping_one(state)

    def _skipping_one(self, state: SearchState) -> "Callable[[int], list]":
        """``state``'s identification step, missing the last node of the
        first later level that finds any (as if its ``finite_count == q``
        compare had skipped it)."""
        identify = state.identify_central_nodes

        def identify_all_but_one(level: int) -> list:
            found = identify(level)
            if found and not self.faults_injected:
                node, _ = state.central_nodes.pop()
                state.c_identifier[node] = 0
                self.faults_injected += 1
                return found[:-1]
            return found

        return identify_all_but_one
