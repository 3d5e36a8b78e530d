"""Expansion backend interface for the bottom-up stage.

The two-stage algorithm (Algorithm 1) forks worker threads/warps for the
expansion procedure and joins between steps. In this reproduction a
*backend* runs one bottom-up level per :meth:`ExpansionBackend.run_level`
call — enqueue frontiers, identify Central Nodes, expansion — and the
loop in :class:`~repro.core.bottom_up.BottomUpSearch` only decides when
to stop. ``run_level`` is the whole protocol: the production route runs
a level in one native call. A :class:`ComposedBackend` instead supplies
:meth:`ComposedBackend.expand` (Algorithm 2 over the current frontier of
the shared :class:`~repro.core.state.SearchState`) and inherits a level
composed from it.

Backends must preserve the lock-free write discipline: only ever write
``1`` into FIdentifier and ``level + 1`` into M, so concurrent writers
race benignly (Theorem V.2).

Backends additionally keep ``state.finite_count`` exact by counting
deduplicated hits (sequential inline, fused kernel via returned cell
keys, the native whole level in place), because Central Node
identification is a 1-D compare on it.

Everything a level reports travels on its :class:`LevelOutcome` and
nowhere else: the loop decides termination from it and keeps it as the
query's per-level record (``SearchResult.level_profile``), so nothing
about a query is kept on the backend that concurrent queries share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import TracebackType
from typing import List, Optional, Tuple, Type

from ..core.state import ALL_LANES, SearchState
from ..graph.csr import KnowledgeGraph
from ..instrumentation import (
    PHASE_ENQUEUE,
    PHASE_EXPANSION,
    PHASE_IDENTIFY,
    KernelCounters,
    PhaseTimer,
)


@dataclass
class LevelOutcome:
    """One bottom-up level, as :meth:`ExpansionBackend.run_level` reports it.

    The only per-level record of a query: the loop decides termination
    from it and keeps it in ``level_profile``; the Chrome trace's
    ``level`` events, the flight recorder's ``levels`` rows and the
    Fig. 4 text
    (:func:`~repro.core.bottom_up.describe_levels`) are views of it.

    Attributes:
        level: the global BFS level.
        frontier_size: nodes enqueued into the joint frontier (0 means
            the search is over — ``TERMINATED_FRONTIER_EMPTY``).
        new_central: the (node, depth) pairs identified this level, in
            ascending node order (already appended to
            ``state.central_nodes``).
        expanded: whether Algorithm 2 ran (False when the top-k target
            was met at identification or the level cap was reached).
        new_hits: unique (node, keyword) cells that became finite.
        edges_scanned: CSR entries touched by expansion — the exact
            gathered count when the backend reports kernel counters, else
            the degree sum of the enqueued frontier (an upper bound for
            the per-node kernel).
        counters: kernel work counters for the expansion, when it ran on
            a backend that counts.
        live_lanes: after an expansion, the lanes it left open as a bit
            mask (bit i: BFS instance i wrote a cell, or a source hit in
            it is still waiting for activation or retrying a blocked
            neighbour). A lane outside it is never written again; the
            loop stops on that (:mod:`repro.core.bottom_up`).
            :data:`~repro.core.state.ALL_LANES` when the level did not
            expand or its backend does not track lanes.
        started: the ``time.perf_counter()`` reading just before
            ``run_level`` was called, set by
            :meth:`~repro.core.bottom_up.BottomUpSearch.run`.
        seconds: the level's wall time, ``run_level`` end to end, set
            there too. Both are measurements, so two outcomes equal in
            everything else compare equal.
    """

    level: int
    frontier_size: int
    new_central: List[Tuple[int, int]] = field(default_factory=list)
    expanded: bool = False
    new_hits: int = 0
    edges_scanned: int = 0
    counters: Optional[KernelCounters] = None
    live_lanes: int = ALL_LANES
    started: float = field(default=0.0, compare=False)
    seconds: float = field(default=0.0, compare=False)

    def account(self) -> "dict[str, int]":
        """The level's accounting as a flat mapping: the flight
        recorder's ``levels`` row and the Chrome trace ``level`` event's
        ``args``."""
        return {
            "frontier_size": self.frontier_size,
            "edges_scanned": self.edges_scanned,
            "new_hits": self.new_hits,
            "new_central": len(self.new_central),
        }


class ExpansionBackend(abc.ABC):
    """One stage-one route (sequential, threaded, vectorized, ...)."""

    #: Human-readable name used in benchmark tables.
    name: str = "abstract"

    #: The ``tier`` label of the ``repro_kernel_*`` metrics: a
    #: :class:`~repro.service.SearchService` sums a served query's
    #: ``LevelOutcome.counters`` and records them once under it. ``None`` for a backend that counts
    #: nothing.
    counter_tier: Optional[str] = None

    @abc.abstractmethod
    def run_level(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
        timer: PhaseTimer,
    ) -> LevelOutcome:
        """Execute one bottom-up level of Algorithm 1 and report it.

        Enqueue frontiers, identify Central Nodes, then — unless the
        frontier drained, ``state.n_central_nodes`` reached ``k`` or
        ``may_expand`` is False (the level cap) — expand, leaving in
        ``state.live_lanes`` the lanes the level left open (see
        :attr:`LevelOutcome.live_lanes`).
        """

    def close(self) -> None:
        """Release pooled resources (thread pools); default is a no-op."""

    def __enter__(self) -> "ExpansionBackend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ComposedBackend(ExpansionBackend):
    """A route whose level is composed from :meth:`expand`: the
    per-node reference, the threaded chunks, the fault injector."""

    @abc.abstractmethod
    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> Optional[KernelCounters]:
        """Run Algorithm 2 for the current frontier at BFS level ``level``.

        Implementations mutate ``state.matrix`` (hitting levels of newly hit
        nodes) and ``state.f_identifier`` (nodes to enqueue next level),
        set ``state.live_lanes`` to the lanes the level left open (see
        :attr:`LevelOutcome.live_lanes`; one that leaves it at
        ``ALL_LANES`` never lets a lane close, which is always safe),
        and must not touch anything else.

        Returns:
            The level's kernel work counters, or ``None`` from a backend
            that does not count.
        """

    def run_level(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
        timer: PhaseTimer,
    ) -> LevelOutcome:
        """Enqueue, identify and :meth:`expand`, each step's time in its
        own phase of ``timer`` (the Fig. 6-7 columns)."""
        with timer.phase(PHASE_ENQUEUE):
            frontier_size = state.enqueue_frontiers()
        if frontier_size == 0:
            return LevelOutcome(level, 0)
        with timer.phase(PHASE_IDENTIFY):
            found = state.identify_central_nodes(level)
        if not may_expand or state.n_central_nodes >= k:
            return LevelOutcome(level, frontier_size, found)
        finite_before = state.total_finite_cells()
        state.live_lanes = ALL_LANES
        with timer.phase(PHASE_EXPANSION):
            counters = self.expand(graph, state, level)
        if counters is not None:
            new_hits = counters.pairs_hit
            edges_scanned = counters.edges_gathered
        else:
            new_hits = state.total_finite_cells() - finite_before
            edges_scanned = int(graph.adj.degree_array[state.frontier].sum())
        return LevelOutcome(
            level,
            frontier_size,
            found,
            expanded=True,
            new_hits=new_hits,
            edges_scanned=edges_scanned,
            counters=counters,
            live_lanes=state.live_lanes,
        )
