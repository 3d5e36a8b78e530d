"""The query flight recorder: the last N served queries, always on.

A query's Chrome trace (``repro profile --trace``) answers "where did
*this* run spend its time", but only for a query run from the command
line. In a serving process a slow or failed query would leave no
artifact — by the time an operator looks, the evidence is gone. The
flight recorder fixes that: a lock-protected
ring buffer of the last N :class:`QueryRecord`\\ s (query text,
normalized keywords, phase times, per-level accounting with each level's
wall time, backend tier, outcome/error), plus a slow-query log of those
at or over the ``REPRO_SLOW_MS`` threshold.

A record is a view of one query's
:class:`~repro.core.results.SearchResult`, or of the exception its
search raised; nothing is measured for it that the result does not
already hold, so a recorded query costs one dict build and one ring
append.

Wiring: :class:`~repro.service.SearchService` builds one recorder per
service from the env knobs (``REPRO_FLIGHT_N`` capacity,
``REPRO_SLOW_MS`` threshold) and is its only writer — ``/search`` calls
:meth:`FlightRecorder.record` after the engine answers and
:meth:`FlightRecorder.record_error` when it raises. ``GET
/debug/queries`` serves the ring and ``GET /debug/queries/<id>`` one
record. The engine knows no recorder. ``REPRO_FLIGHT_N=0`` turns
recording off.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from .config import flight_recorder_size, slow_query_threshold_ms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import SearchResult

#: Slow-query log capacity (independent of the ring: a burst of fast
#: queries must not evict the evidence of the last slow one).
SLOW_LOG_CAPACITY = 32


@dataclass
class QueryRecord:
    """One completed (or failed) query, as kept by the flight recorder.

    Attributes:
        query_id: recorder-unique id, counting commits from 1 (the
            ``/debug/queries/<id>`` key).
        query: the raw query text.
        keywords: normalized terms that ran (column order); empty for a
            failed query.
        dropped_terms: normalized terms with empty source sets.
        backend: the expansion backend tier (``vectorized``,
            ``threads[4]``, ...).
        outcome: ``"ok"`` or ``"error"``.
        error: the error message (empty on success).
        error_phase: which phase failed (empty on success).
        started_unix: wall-clock begin time (for operators; never used
            for durations).
        duration_ms: total query wall time (the ``total`` phase, or the
            service's own measurement for a failed query).
        phases: ``PhaseTimer`` milliseconds per phase.
        counters: the ``levels`` accounting summed over the query, and
            beside it the kernel work counters (``KernelCounters``'
            four fields) summed likewise: what the serving service
            added to ``repro_kernel_*`` for this query.
        levels: per-BFS-level expansion accounting, one dict per level,
            its wall time under ``ms``.
        depth / n_central_nodes / n_answers / terminated: stage-one and
            ranking outcomes.
        stage_two_nbytes: bytes of stage two's native buffers
            (``SearchResult.stage_two.nbytes``).
        slow: whether ``duration_ms`` met the slow-query threshold.
    """

    query_id: int
    query: str
    keywords: Tuple[str, ...] = ()
    dropped_terms: Tuple[str, ...] = ()
    backend: str = ""
    outcome: str = "ok"
    error: str = ""
    error_phase: str = ""
    started_unix: float = 0.0
    duration_ms: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    levels: List[Dict[str, float]] = field(default_factory=list)
    depth: int = 0
    n_central_nodes: int = 0
    n_answers: int = 0
    terminated: str = ""
    stage_two_nbytes: int = 0
    slow: bool = False

    def summary(self) -> Dict[str, object]:
        """The ``/debug/queries`` listing row."""
        return {
            "query_id": self.query_id,
            "query": self.query,
            "keywords": list(self.keywords),
            "backend": self.backend,
            "outcome": self.outcome,
            "error": self.error,
            "duration_ms": self.duration_ms,
            "depth": self.depth,
            "n_answers": self.n_answers,
            "slow": self.slow,
            "started_unix": self.started_unix,
        }

    def as_dict(self) -> Dict[str, object]:
        """The full ``/debug/queries/<id>`` payload."""
        return dict(
            self.summary(),
            dropped_terms=list(self.dropped_terms),
            error_phase=self.error_phase,
            phases=dict(self.phases),
            counters=dict(self.counters),
            levels=[dict(level) for level in self.levels],
            n_central_nodes=self.n_central_nodes,
            terminated=self.terminated,
            stage_two_nbytes=self.stage_two_nbytes,
        )


class FlightRecorder:
    """Lock-protected ring buffer of recent queries plus a slow log.

    Args:
        max_records: ring capacity; ``None`` reads ``REPRO_FLIGHT_N``
            (default 128). ``0`` disables recording.
        slow_ms: slow-query threshold in milliseconds; ``None`` reads
            ``REPRO_SLOW_MS`` (default 500). ``0`` disables the slow
            log.
    """

    def __init__(
        self,
        max_records: Optional[int] = None,
        slow_ms: Optional[float] = None,
    ) -> None:
        self.max_records = (
            flight_recorder_size() if max_records is None else int(max_records)
        )
        self.slow_ms = (
            slow_query_threshold_ms() if slow_ms is None else float(slow_ms)
        )
        self._lock = threading.Lock()
        self._ring: Deque[QueryRecord] = deque(maxlen=max(self.max_records, 1))
        self._slow: Deque[QueryRecord] = deque(maxlen=SLOW_LOG_CAPACITY)
        self._completed = 0

    @property
    def enabled(self) -> bool:
        """Whether the recorder keeps anything (a capacity of 0 does not)."""
        return self.max_records > 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        query: str,
        result: "SearchResult",
        backend: str,
        levels: List[Dict[str, float]],
        counters: Dict[str, int],
    ) -> Optional[QueryRecord]:
        """Record one answered query from its
        :class:`~repro.core.results.SearchResult` and the ``levels``
        rows and ``counters`` its service summed from the result's
        ``level_profile`` (:class:`QueryRecord`); returns the committed
        record, or ``None`` when the recorder is off."""
        if not self.enabled:
            return None
        phases = result.timer.milliseconds()
        duration_ms = phases.get("total", 0.0)
        return self._commit(
            QueryRecord(
                query_id=0,
                query=query,
                keywords=tuple(result.keywords),
                dropped_terms=tuple(result.dropped_terms),
                backend=backend,
                started_unix=_started_unix(duration_ms),
                duration_ms=duration_ms,
                phases=phases,
                counters=counters,
                levels=levels,
                depth=int(result.depth),
                n_central_nodes=int(result.n_central_nodes),
                n_answers=len(result.answers),
                terminated=str(result.terminated),
                stage_two_nbytes=int(result.stage_two.nbytes),
            )
        )

    def record_error(
        self,
        query: str,
        error: BaseException,
        phase: str,
        duration_ms: float,
        backend: str = "",
    ) -> Optional[QueryRecord]:
        """Record one query whose search raised ``error`` in ``phase``
        after ``duration_ms``; returns the committed record, or ``None``
        when the recorder is off. An error that carries
        ``dropped_terms`` (:class:`~repro.core.results.EmptyQueryError`)
        keeps them."""
        if not self.enabled:
            return None
        return self._commit(
            QueryRecord(
                query_id=0,
                query=query,
                dropped_terms=tuple(getattr(error, "dropped_terms", ())),
                backend=backend,
                outcome="error",
                error=str(error),
                error_phase=phase,
                started_unix=_started_unix(duration_ms),
                duration_ms=duration_ms,
            )
        )

    def _commit(self, record: QueryRecord) -> QueryRecord:
        """Number ``record`` and append it; ids follow commit order."""
        record.slow = record.duration_ms >= self.slow_ms > 0.0
        with self._lock:
            self._completed += 1
            record.query_id = self._completed
            self._ring.append(record)
            if record.slow:
                self._slow.append(record)
        return record

    # ------------------------------------------------------------------
    # Introspection (the /debug/queries payloads)
    # ------------------------------------------------------------------
    def recent(self, limit: Optional[int] = None) -> List[QueryRecord]:
        """Most recent completed queries, newest first."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        return records[:limit] if limit is not None else records

    def slow_queries(self) -> List[QueryRecord]:
        """The slow-query log, newest first."""
        with self._lock:
            return list(reversed(self._slow))

    def get(self, query_id: int) -> Optional[QueryRecord]:
        """Look up one record still held by the ring or slow log."""
        with self._lock:
            for record in self._ring:
                if record.query_id == query_id:
                    return record
            for record in self._slow:
                if record.query_id == query_id:
                    return record
        return None

    @property
    def completed(self) -> int:
        """Total queries committed since construction (ring evictions
        included) — the concurrency hammer asserts exact counts here."""
        with self._lock:
            return self._completed

    def debug_payload(self, limit: int = 50) -> Dict[str, object]:
        """The ``GET /debug/queries`` body."""
        return {
            "capacity": self.max_records,
            "completed": self.completed,
            "slow_ms": self.slow_ms,
            "recent": [record.summary() for record in self.recent(limit)],
            "slow": [record.summary() for record in self.slow_queries()],
        }


def _started_unix(duration_ms: float) -> float:
    """The wall-clock time a query that just ended began."""
    return time.time() - duration_ms / 1e3  # noqa: RPR008 - operator-facing timestamp, never a duration
