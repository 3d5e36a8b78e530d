"""Timing and storage instrumentation for the experiment harness.

Fig. 6/7/9/10 report *per-phase* times (Initialization, Enqueuing
frontiers, Identifying Central Nodes, Expansion, Top-down processing,
Total); Table IV reports pre-storage vs. maximum running storage. Both
needs are served here so the search engines stay free of bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Type,
    TypeVar,
)

from .obs.tracing import NULL_TRACER, Tracer

_F = TypeVar("_F", bound=Callable)


def hot_path(fn: _F) -> _F:
    """Mark ``fn`` as kernel hot-path code.

    The marker itself is a no-op at runtime. Functions carrying it are
    held to the kernel discipline that the repo-specific lint pass
    (:mod:`repro.analysis.lint`) machine-checks: no locks, no Python
    per-edge loops, no per-call dtype conversions on fancy-index
    operands (use the cached int64 CSR views instead).
    """
    fn.__hot_path__ = True  # type: ignore[attr-defined]
    return fn

# Canonical phase names, in the order the paper's figures present them.
PHASE_INITIALIZATION = "initialization"
PHASE_ENQUEUE = "enqueuing_frontiers"
PHASE_IDENTIFY = "identifying_central_nodes"
PHASE_EXPANSION = "expansion"
PHASE_TOP_DOWN = "top_down_processing"
PHASE_TOTAL = "total"

ALL_PHASES = (
    PHASE_INITIALIZATION,
    PHASE_ENQUEUE,
    PHASE_IDENTIFY,
    PHASE_EXPANSION,
    PHASE_TOP_DOWN,
    PHASE_TOTAL,
)


class _Phase:
    """One ``PhaseTimer.phase(name)`` entry: the timed window, inside a
    ``phase:<name>`` span when the timer's tracer is enabled."""

    __slots__ = ("_timer", "_name", "_span", "_start")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._timer.tracer
        if tracer.enabled:
            self._span = tracer.span("phase:" + self._name)
            self._span.__enter__()
        else:
            self._span = None
        self._start = time.perf_counter()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        elapsed = time.perf_counter() - self._start
        seconds = self._timer.seconds
        seconds[self._name] = seconds.get(self._name, 0.0) + elapsed
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


@dataclass
class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Phases may be entered repeatedly (the bottom-up loop re-enters
    enqueue/identify/expand once per BFS level); durations accumulate.

    Attributes:
        seconds: accumulated wall-clock seconds per phase name.
        tracer: the query's span tracer. When it is enabled every phase
            entry also opens one ``phase:<name>`` span around the timed
            window — a per-level slice in the Chrome trace while
            ``seconds`` keeps the figure totals; the window itself is
            the same with or without it (a fake-clock test pins this).
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    def phase(self, name: str) -> ContextManager[None]:
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def milliseconds(self) -> Dict[str, float]:
        """All phases in milliseconds (the paper reports ms)."""
        return {name: value * 1e3 for name, value in self.seconds.items()}


def average_timers(timers: List[PhaseTimer]) -> Dict[str, float]:
    """Mean milliseconds per phase across queries (the figures' y-values).

    Every phase is divided by ``len(timers)``. A completed
    ``engine.search`` timer carries all six :data:`ALL_PHASES` (the
    bottom-up loop seeds its three loop phases; initialization,
    top-down and total are always entered), so over search timers no
    phase is absent from some and present in others.
    """
    if not timers:
        return {}
    totals: Dict[str, float] = {}
    for timer in timers:
        for name, value in timer.milliseconds().items():
            totals[name] = totals.get(name, 0.0) + value
    return {name: value / len(timers) for name, value in totals.items()}


@dataclass
class KernelCounters:
    """Work counters of one (or several merged) fused-kernel invocations.

    The fused expansion kernel reports how much flat-array work each BFS
    level actually did — the quantities a GPU profiler would report as
    threads launched vs. useful lanes:

    Attributes:
        sources_pruned: frontier nodes dropped by the eligibility
            prefilter (no column hit at ≤ level) before adjacency gather.
        edges_gathered: (frontier, neighbor) pairs materialized from CSR.
        pairs_hit: unique (node, keyword) cells written this level.
        duplicates_elided: scatter targets dropped by per-column
            deduplication — parallel in-edges and shared hub neighbors
            that the per-column implementation wrote once per edge.
        live_lanes: not a count but a lane mask, merged by OR: bit i is
            set iff the invocation wrote lane i or a waiting or retrying
            source kept it open (see :mod:`repro.core.bottom_up`). Not
            exported by :meth:`as_dict`.
    """

    sources_pruned: int = 0
    edges_gathered: int = 0
    pairs_hit: int = 0
    duplicates_elided: int = 0
    live_lanes: int = 0

    def add(self, other: "KernelCounters") -> None:
        """Accumulate ``other`` in place (used to merge per-chunk counters)."""
        self.sources_pruned += other.sources_pruned
        self.edges_gathered += other.edges_gathered
        self.pairs_hit += other.pairs_hit
        self.duplicates_elided += other.duplicates_elided
        self.live_lanes |= other.live_lanes

    def as_dict(self) -> "dict[str, int]":
        return {
            "sources_pruned": self.sources_pruned,
            "edges_gathered": self.edges_gathered,
            "pairs_hit": self.pairs_hit,
            "duplicates_elided": self.duplicates_elided,
        }


@dataclass
class StorageReport:
    """Table IV's two columns, in bytes.

    Attributes:
        pre_storage: CSR adjacency + node-weight array — resident before
            any query runs.
        max_running_storage: pre-storage plus the peak per-query dynamic
            state (node-keyword matrix, identifier arrays, frontier).
    """

    pre_storage: int
    max_running_storage: int

    @property
    def overhead_ratio(self) -> float:
        """Running / pre ratio; the paper's is ≈ 1.2× at Knum=8, Topk=50."""
        if self.pre_storage == 0:
            return float("inf")
        return self.max_running_storage / self.pre_storage

    def as_megabytes(self) -> "dict[str, float]":
        scale = 1.0 / (1024.0 * 1024.0)
        return {
            "pre_storage_mb": self.pre_storage * scale,
            "max_running_storage_mb": self.max_running_storage * scale,
        }
