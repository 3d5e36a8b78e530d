"""Expansion backend interface for the bottom-up stage.

The two-stage algorithm (Algorithm 1) forks worker threads/warps for the
expansion procedure and joins between steps. In this reproduction a
*backend* runs one bottom-up level per :meth:`ExpansionBackend.run_level`
call — enqueue frontiers, identify Central Nodes, expansion — and the
loop in :class:`~repro.core.bottom_up.BottomUpSearch` only decides when
to stop. A backend supplies :meth:`ExpansionBackend.expand` (Algorithm 2
over the current frontier of the shared
:class:`~repro.core.state.SearchState`) and inherits a level composed
from it; one that can do the whole level in a single pass overrides
``run_level``.

Backends must preserve the lock-free write discipline: only ever write
``1`` into FIdentifier and ``level + 1`` into M, so concurrent writers
race benignly (Theorem V.2).

Backends additionally keep ``state.finite_count`` exact — either by
counting deduplicated hits (sequential inline, fused kernel via returned
cell keys), by resynchronizing touched rows
(:meth:`~repro.core.state.SearchState.refresh_finite_count`), or by
opting out with
:meth:`~repro.core.state.SearchState.invalidate_finite_count`, which
makes Central Node identification fall back to the full row scan.

Backends built on the fused kernel return the level's
:class:`~repro.instrumentation.KernelCounters` from ``expand``; they
reach the loop, the tracer and any attached
:class:`~repro.core.trace.SearchTrace` on the level's
:class:`LevelOutcome` and nowhere else, and expansion spans go to the
query's own tracer (``SearchState.tracer``), so nothing about a query
is kept on the backend that concurrent queries share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import TracebackType
from typing import List, Optional, Tuple, Type

from ..core.state import SearchState
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
    """Result of one bottom-up level (:meth:`ExpansionBackend.run_level`).

    The only channel from a level to the bottom-up loop: termination,
    tracing and the per-level profile are all decided from it.

    Attributes:
        n_frontier: nodes enqueued into the joint frontier (0 means the
            search is over — ``TERMINATED_FRONTIER_EMPTY``).
        new_central: the (node, depth) pairs identified this level, in
            ascending node order (already appended to
            ``state.central_nodes``).
        expanded: whether Algorithm 2 ran (False when the top-k target
            was met at identification or the level cap was reached).
        new_hits: unique (node, keyword) cells that became finite.
        counters: kernel work counters for the expansion, when it ran on
            a backend that counts.
    """

    n_frontier: int
    new_central: List[Tuple[int, int]] = field(default_factory=list)
    expanded: bool = False
    new_hits: int = 0
    counters: Optional[KernelCounters] = None


class ExpansionBackend(abc.ABC):
    """One expansion strategy (sequential, threaded, vectorized, ...)."""

    #: Human-readable name used in benchmark tables.
    name: str = "abstract"

    #: Whether this backend's kernels report their scatter-stores into an
    #: attached :class:`repro.analysis.writelog.WriteLog`
    #: (``SearchState.write_log``). Backends whose workers cannot share a
    #: log (separate processes) leave this ``False``; the invariant
    #: checker then verifies them from state snapshots alone.
    supports_write_log: bool = False

    @abc.abstractmethod
    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> Optional[KernelCounters]:
        """Run Algorithm 2 for the current frontier at BFS level ``level``.

        Implementations mutate ``state.matrix`` (hitting levels of newly hit
        nodes) and ``state.f_identifier`` (nodes to enqueue next level),
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
        """Execute one bottom-up level of Algorithm 1 and report it.

        Enqueue frontiers, identify Central Nodes, then — unless the
        frontier drained, ``state.n_central_nodes`` reached ``k`` or
        ``may_expand`` is False (the level cap) — :meth:`expand`. Each
        step's time goes to its own phase of ``timer`` (the Fig. 6-7
        columns).
        """
        with timer.phase(PHASE_ENQUEUE):
            n_frontier = state.enqueue_frontiers()
        if n_frontier == 0:
            return LevelOutcome(n_frontier=0)
        with timer.phase(PHASE_IDENTIFY):
            found = state.identify_central_nodes(level)
        if not may_expand or state.n_central_nodes >= k:
            return LevelOutcome(n_frontier=n_frontier, new_central=found)
        finite_before = state.total_finite_cells()
        with timer.phase(PHASE_EXPANSION):
            counters = self.expand(graph, state, level)
        return LevelOutcome(
            n_frontier=n_frontier,
            new_central=found,
            expanded=True,
            new_hits=(
                counters.pairs_hit
                if counters is not None
                else state.total_finite_cells() - finite_before
            ),
            counters=counters,
        )

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
