"""The query flight recorder (``repro.obs.flight``) and its wiring.

Covers the ring-buffer/slow-log mechanics and the engine integration
(every query recorded, errors linked by query id and phase).
"""

import json

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.results import EmptyQueryError
from repro.obs import FlightRecorder
from repro.obs.flight import query_spans
from repro.obs.tracing import (
    NULL_TRACER,
    Tracer,
    chrome_trace_of,
    validate_chrome_trace,
)


@pytest.fixture()
def engine(tiny_kb):
    graph, _ = tiny_kb
    return KeywordSearchEngine(graph)


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------
def test_engine_records_every_query(engine):
    flight = FlightRecorder(max_records=8, slow_ms=0)
    engine.flight = flight
    result = engine.search("machine learning", k=3)
    assert flight.completed == 1
    record = flight.get(result.query_id)
    assert record is not None
    assert record.outcome == "ok"
    assert record.query == "machine learning"
    assert record.keywords == ("machin", "learn")
    assert record.backend == "vectorized"
    assert record.n_answers == len(result.answers)
    assert record.depth == result.depth
    assert record.duration_ms > 0
    assert "total" in record.phases
    # Every record carries a span tree even without an engine tracer.
    names = {span.name for span in record.spans}
    assert "query" in names
    assert any(name.startswith("phase:") for name in names)
    validate_chrome_trace(record.chrome_trace())
    engine.flight = None


def test_record_payload_is_a_view_of_the_result(engine):
    """``as_dict()`` keeps the ``/debug/queries/<id>`` shape: the key
    set, one ``levels`` row per ``level_profile`` entry with the span
    attribute keys, serialized span dicts; and the record's Chrome trace
    is the tracer's own export of the same spans."""
    flight = FlightRecorder(max_records=4, slow_ms=0)
    tracer = Tracer(enabled=True)
    engine.flight, engine.tracer = flight, tracer
    try:
        result = engine.search("machine learning", k=3)
    finally:
        engine.flight = engine.tracer = None
    record = flight.get(result.query_id)
    payload = record.as_dict()
    assert set(payload) == {
        "query_id", "query", "keywords", "backend", "outcome", "error",
        "duration_ms", "depth", "n_answers", "slow", "started_unix",
        "dropped_terms", "error_phase", "phases", "counters", "levels",
        "n_central_nodes", "terminated", "stage_two_nbytes", "spans", "trace",
    }
    assert payload["phases"] == result.timer.milliseconds()
    assert payload["stage_two_nbytes"] == result.stage_two_nbytes
    assert payload["levels"] == [
        {"level": o.level, **o.as_span_attributes()}
        for o in result.level_profile
    ]
    assert list(payload["levels"][0]) == [
        "level", "frontier_size", "edges_scanned", "new_hits", "new_central",
    ]
    assert payload["counters"] == {
        key: sum(row[key] for row in payload["levels"])
        for key in ("frontier_size", "edges_scanned", "new_hits", "new_central")
    }
    for span in payload["spans"]:
        assert list(span) == [
            "name", "span_id", "parent_id", "tid", "thread_name",
            "start_ns", "duration_ns", "attrs",
        ]
    json.dumps(payload)
    # One query on this tracer, so its export is the record's slice.
    assert len(record.spans) == len(tracer.finished_spans())
    def by_span_id(event):
        return event["args"].get("span_id", 0)

    assert sorted(
        record.chrome_trace()["traceEvents"], key=by_span_id
    ) == sorted(tracer.to_chrome_trace()["traceEvents"], key=by_span_id)
    validate_chrome_trace(record.chrome_trace())


def test_ring_evicts_but_count_is_exact(engine):
    flight = FlightRecorder(max_records=3, slow_ms=0)
    engine.flight = flight
    for _ in range(5):
        engine.search("machine learning", k=1)
    assert flight.completed == 5
    recent = flight.recent()
    assert len(recent) == 3
    # Newest first, ids monotone.
    ids = [record.query_id for record in recent]
    assert ids == sorted(ids, reverse=True)
    engine.flight = None


def test_slow_log_persists_trace(engine, tmp_path):
    flight = FlightRecorder(
        max_records=4, slow_ms=1e-6, slow_trace_dir=str(tmp_path)
    )
    engine.flight = flight
    result = engine.search("machine learning", k=1)
    record = flight.get(result.query_id)
    assert record.slow
    validate_chrome_trace(record.chrome_trace())
    assert flight.slow_queries()[0].query_id == result.query_id
    trace_file = tmp_path / f"slow_query_{result.query_id}.trace.json"
    assert trace_file.exists()
    payload = json.loads(trace_file.read_text(encoding="utf-8"))
    validate_chrome_trace(payload)
    engine.flight = None


def test_failed_query_recorded_with_phase_and_id(engine):
    flight = FlightRecorder(max_records=4, slow_ms=0)
    engine.flight = flight
    with pytest.raises(EmptyQueryError) as excinfo:
        engine.search("zzzzqqq")
    error = excinfo.value
    assert error.query_id is not None
    assert error.phase == "initialization"
    record = flight.get(error.query_id)
    assert record.outcome == "error"
    assert record.error_phase == "initialization"
    assert record.dropped_terms == ("zzzzqqq",)
    assert "no query term matches" in record.error
    engine.flight = None


def test_debug_payload_shape(engine):
    flight = FlightRecorder(max_records=4, slow_ms=0)
    engine.flight = flight
    engine.search("machine learning", k=1)
    payload = flight.debug_payload()
    assert payload["capacity"] == 4
    assert payload["completed"] == 1
    assert payload["recent"][0]["outcome"] == "ok"
    assert payload["slow"] == []
    engine.flight = None


def test_disabled_recorder_capacity_zero(engine):
    flight = FlightRecorder(max_records=0, slow_ms=0)
    engine.flight = flight
    assert not flight.enabled
    result = engine.search("machine learning", k=1)
    # No tracer on the timer, no query id, no record: the untraced path.
    assert result.timer.tracer is NULL_TRACER
    assert result.query_id is None
    assert flight.completed == 0
    engine.flight = None


# ---------------------------------------------------------------------------
# Per-query span slicing on a shared tracer
# ---------------------------------------------------------------------------
def test_query_spans_slices_by_ancestry():
    tracer = Tracer(enabled=True)
    with tracer.span("query") as first:
        with tracer.span("phase:expansion"):
            pass
    with tracer.span("query") as second:
        with tracer.span("phase:top_down"):
            pass
    first_slice = query_spans(tracer, first)
    assert {span.name for span in first_slice} == {"query", "phase:expansion"}
    second_slice = query_spans(tracer, second)
    assert {span.name for span in second_slice} == {"query", "phase:top_down"}
    validate_chrome_trace(chrome_trace_of(first_slice))
