"""The query flight recorder: the last N completed queries, always on.

Spans answer "where did *this traced run* spend its time", but only if
someone attached a tracer before the query ran. In a serving process a
slow or failed query leaves no artifact — by the time an operator looks,
the evidence is gone. The flight recorder fixes that: a lock-protected
ring buffer of the last N completed :class:`QueryRecord`\\ s (query
text, normalized keywords, the per-phase span tree, kernel counters,
level profiles, backend tier, outcome/error), recorded for *every*
query at near-zero cost, plus a slow-query log that persists the full
Chrome trace of any query at or over the ``REPRO_SLOW_MS`` threshold.

Wiring:

* :class:`~repro.service.SearchService` builds a recorder from the env
  knobs (``REPRO_FLIGHT_N`` capacity, ``REPRO_SLOW_MS`` threshold) and
  hands it to its engine; ``GET /debug/queries`` serves the ring and
  ``GET /debug/queries/<id>`` one record's full trace.
* :class:`~repro.core.engine.KeywordSearchEngine` calls
  :meth:`FlightRecorder.begin` per query. When the engine's tracer is
  disabled (the common serving configuration), the recording brings its
  *own* per-query enabled tracer, so the record still carries a span
  tree.
* ``REPRO_FLIGHT_N=0`` turns recording off: the engine path is then the
  untraced one (one attribute load and one branch per query).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from .config import flight_recorder_size, slow_query_threshold_ms
from .tracing import Span, Tracer, chrome_trace_of

#: Slow-query log capacity (independent of the ring: a burst of fast
#: queries must not evict the evidence of the last slow one).
SLOW_LOG_CAPACITY = 32


def query_spans(tracer: Tracer, query_span: Span) -> List[Span]:
    """The finished spans belonging to one query.

    A service engine may share one tracer across concurrent queries, so
    membership is decided by ancestry, not by arrival order: the result
    is ``query_span`` plus every finished span whose parent chain
    reaches it.
    """
    spans = tracer.finished_spans()
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    selected: List[Span] = []
    frontier = [query_span.span_id]
    seen = {query_span.span_id}
    for span in spans:
        if span.span_id == query_span.span_id:
            selected.append(span)
    while frontier:
        span_id = frontier.pop()
        for child in children.get(span_id, ()):
            if child.span_id in seen:
                continue
            seen.add(child.span_id)
            selected.append(child)
            frontier.append(child.span_id)
    selected.sort(key=lambda s: (s.start_ns, s.span_id))
    return selected


@dataclass
class QueryRecord:
    """One completed (or failed) query, as kept by the flight recorder.

    Attributes:
        query_id: recorder-unique, monotonically increasing id (the
            ``/debug/queries/<id>`` key).
        query: the raw query text.
        keywords: normalized terms that ran (column order).
        dropped_terms: normalized terms with empty source sets.
        backend: the expansion backend tier (``vectorized``,
            ``threads[4]``, ...).
        outcome: ``"ok"`` or ``"error"``.
        error: the error message (empty on success).
        error_phase: which phase failed (empty on success).
        started_unix: wall-clock begin time (for operators; never used
            for durations).
        duration_ms: total query wall time from the span/perf-counter
            window.
        phases: ``PhaseTimer`` milliseconds per phase.
        counters: summed kernel work counters over the query's levels.
        levels: per-BFS-level expansion accounting (one dict per level).
        depth / n_central_nodes / n_answers / terminated: stage-one and
            ranking outcomes.
        stage_two_nbytes: bytes of stage two's native buffers
            (``SearchResult.stage_two_nbytes``).
        slow: whether ``duration_ms`` met the slow-query threshold.
        spans: the per-query span tree; serialized only on demand
            (:meth:`as_dict`, :meth:`chrome_trace`, the slow-trace file).
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
    levels: List[Dict[str, int]] = field(default_factory=list)
    depth: int = 0
    n_central_nodes: int = 0
    n_answers: int = 0
    terminated: str = ""
    stage_two_nbytes: int = 0
    slow: bool = False
    spans: List[Span] = field(default_factory=list)

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

    def as_dict(self, include_trace: bool = True) -> Dict[str, object]:
        """The full ``/debug/queries/<id>`` payload."""
        payload: Dict[str, object] = dict(
            self.summary(),
            dropped_terms=list(self.dropped_terms),
            error_phase=self.error_phase,
            phases=dict(self.phases),
            counters=dict(self.counters),
            levels=[dict(level) for level in self.levels],
            n_central_nodes=self.n_central_nodes,
            terminated=self.terminated,
            stage_two_nbytes=self.stage_two_nbytes,
            spans=[
                {
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "tid": span.tid,
                    "thread_name": span.thread_name,
                    "start_ns": span.start_ns,
                    "duration_ns": span.duration_ns,
                    "attrs": dict(span.attrs),
                }
                for span in self.spans
            ],
        )
        if include_trace:
            payload["trace"] = self.chrome_trace()
        return payload

    def chrome_trace(self) -> Dict[str, object]:
        """This query's Chrome trace, built from its span slice."""
        return chrome_trace_of(self.spans)


class QueryRecording:
    """An in-flight query being recorded; created by
    :meth:`FlightRecorder.begin`, closed by :meth:`complete` or
    :meth:`fail`.

    When the engine's own tracer is disabled the recording owns a fresh
    enabled :class:`~repro.obs.tracing.Tracer` (:attr:`tracer`) so the
    record still captures a span tree; when the engine tracer is
    already enabled, the engine keeps it and :meth:`complete` slices
    this query's spans out of it.
    """

    def __init__(self, recorder: "FlightRecorder", record: QueryRecord) -> None:
        self._recorder = recorder
        self.record = record
        self.tracer = Tracer(enabled=True)
        self._start_ns = time.perf_counter_ns()

    @property
    def query_id(self) -> int:
        return self.record.query_id

    def _elapsed_ms(self) -> float:
        return (time.perf_counter_ns() - self._start_ns) / 1e6

    def complete(
        self, result: Any, query_span: Optional[Span] = None
    ) -> QueryRecord:
        """Close the recording with a successful
        :class:`~repro.core.results.SearchResult` (whose timer carries
        the tracer the query ran under)."""
        record = self.record
        record.outcome = "ok"
        record.depth = int(result.depth)
        record.n_central_nodes = int(result.n_central_nodes)
        record.n_answers = len(result.answers)
        record.terminated = str(result.terminated)
        record.stage_two_nbytes = int(result.stage_two_nbytes)
        record.phases = result.timer.milliseconds()
        record.duration_ms = record.phases.get("total", self._elapsed_ms())
        counters: Dict[str, int] = {}
        for outcome in result.level_profile:
            attrs = outcome.as_span_attributes()
            level_row = {"level": int(outcome.level)}
            level_row.update({k: int(v) for k, v in attrs.items()})
            record.levels.append(level_row)
            for key, value in attrs.items():
                counters[key] = counters.get(key, 0) + int(value)
        record.counters = counters
        self._capture_spans(query_span, result.timer.tracer)
        self._recorder._commit(record)
        return record

    def fail(
        self,
        error: BaseException,
        phase: str = "",
        query_span: Optional[Span] = None,
        tracer: Optional[Tracer] = None,
    ) -> QueryRecord:
        """Close the recording with an error outcome."""
        record = self.record
        record.outcome = "error"
        record.error = str(error)
        record.error_phase = phase
        record.duration_ms = self._elapsed_ms()
        self._capture_spans(query_span, tracer)
        self._recorder._commit(record)
        return record

    def _capture_spans(
        self, query_span: Optional[Span], tracer: Optional[Tracer]
    ) -> None:
        tracer = tracer if tracer is not None else self.tracer
        if not tracer.enabled:
            return
        if tracer is self.tracer:
            # The recording's own tracer holds this query's spans only.
            spans = tracer.finished_spans()
            spans.sort(key=lambda s: (s.start_ns, s.span_id))
            self.record.spans = spans
        elif query_span is not None:
            self.record.spans = query_spans(tracer, query_span)
        # else: shared tracer but no anchor — no safe per-query slice


class FlightRecorder:
    """Lock-protected ring buffer of recent queries plus a slow log.

    Args:
        max_records: ring capacity; ``None`` reads ``REPRO_FLIGHT_N``
            (default 128). ``0`` disables recording.
        slow_ms: slow-query threshold in milliseconds; ``None`` reads
            ``REPRO_SLOW_MS`` (default 500). ``0`` disables the slow
            log.
        slow_trace_dir: when set, every slow query's Chrome trace is
            also written there as ``slow_query_<id>.trace.json``.
    """

    def __init__(
        self,
        max_records: Optional[int] = None,
        slow_ms: Optional[float] = None,
        slow_trace_dir: Optional[str] = None,
    ) -> None:
        self.max_records = (
            flight_recorder_size() if max_records is None else int(max_records)
        )
        self.slow_ms = (
            slow_query_threshold_ms() if slow_ms is None else float(slow_ms)
        )
        self.slow_trace_dir = slow_trace_dir
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ring: Deque[QueryRecord] = deque(maxlen=max(self.max_records, 1))
        self._slow: Deque[QueryRecord] = deque(maxlen=SLOW_LOG_CAPACITY)
        self._completed = 0

    @classmethod
    def from_env(cls, slow_trace_dir: Optional[str] = None) -> "FlightRecorder":
        """A recorder configured by ``REPRO_FLIGHT_N``/``REPRO_SLOW_MS``."""
        return cls(slow_trace_dir=slow_trace_dir)

    @property
    def enabled(self) -> bool:
        """Whether the recorder keeps anything (a capacity of 0 does not)."""
        return self.max_records > 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        query: str,
        keywords: Tuple[str, ...] = (),
        dropped_terms: Tuple[str, ...] = (),
        backend: str = "",
    ) -> QueryRecording:
        """Open a recording for one query (allocates its id)."""
        record = QueryRecord(
            query_id=next(self._ids),
            query=query,
            keywords=tuple(keywords),
            dropped_terms=tuple(dropped_terms),
            backend=backend,
            started_unix=time.time(),  # noqa: RPR008 - operator-facing timestamp, never a duration
        )
        return QueryRecording(self, record)

    def _commit(self, record: QueryRecord) -> None:
        if record.duration_ms >= self.slow_ms > 0.0:
            record.slow = True
        with self._lock:
            self._ring.append(record)
            if record.slow:
                self._slow.append(record)
            self._completed += 1
        if record.slow and self.slow_trace_dir:
            self._write_slow_trace(record)

    def _write_slow_trace(self, record: QueryRecord) -> None:
        import json

        path = os.path.join(
            self.slow_trace_dir or ".",
            f"slow_query_{record.query_id}.trace.json",
        )
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record.chrome_trace(), handle, indent=1)
                handle.write("\n")
        except OSError:  # pragma: no cover - unwritable trace dir
            pass

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

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow.clear()

    def debug_payload(self, limit: int = 50) -> Dict[str, object]:
        """The ``GET /debug/queries`` body."""
        return {
            "capacity": self.max_records,
            "completed": self.completed,
            "slow_ms": self.slow_ms,
            "recent": [record.summary() for record in self.recent(limit)],
            "slow": [record.summary() for record in self.slow_queries()],
        }
