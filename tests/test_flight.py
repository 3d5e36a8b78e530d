"""The query flight recorder (``repro.obs.flight``) and its wiring.

Covers the ring-buffer/slow-log mechanics and the service integration:
every query the service runs leaves one record, a view of its
``SearchResult`` (or of the exception), errors linked by query id and
phase; the engine knows no recorder.
"""

import ast
import json

import pytest

from repro.analysis.lint import package_root
from repro.core.engine import KeywordSearchEngine
from repro.obs import FlightRecorder
from repro.instrumentation import KernelCounters
from repro.service import SearchService

LEVEL_KEYS = ["level", "frontier_size", "edges_scanned", "new_hits", "new_central"]


@pytest.fixture()
def engine(tiny_kb):
    graph, _ = tiny_kb
    return KeywordSearchEngine(graph)


def _service(engine, **recorder):
    recorder.setdefault("slow_ms", 0)
    return SearchService(engine, flight=FlightRecorder(**recorder))


def _search(service, query, k=3):
    """One ``/search`` through the service: ``(status, payload)``."""
    status, _, body = service.handle_path(
        f"/search?q={query.replace(' ', '+')}&k={k}"
    )
    return status, json.loads(body)


def _served_results(service, monkeypatch):
    """Every ``SearchResult`` the service's engine returns from now on."""
    results = []
    search = service.engine.search

    def spy(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(service.engine, "search", spy)
    return results


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------
def test_service_records_every_query(engine, monkeypatch):
    service = _service(engine, max_records=8)
    results = _served_results(service, monkeypatch)
    status, payload = _search(service, "machine learning")
    assert status == 200
    (result,) = results
    flight = service.flight
    assert flight.completed == 1
    record = flight.get(payload["query_id"])
    assert record is not None
    assert record.outcome == "ok"
    assert record.query == "machine learning"
    assert record.keywords == ("machin", "learn")
    assert record.backend == "vectorized"
    assert record.n_answers == len(result.answers)
    assert record.depth == result.depth
    assert record.duration_ms == result.timer.milliseconds()["total"] > 0
    assert "total" in record.phases


def test_the_engine_knows_no_recorder(engine):
    assert not hasattr(engine, "flight")
    assert not hasattr(engine.search("machine learning", k=1), "query_id")
    core = package_root() / "core"
    for path in sorted(core.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                assert not any("flight" in name for name in names), path.name


def test_record_payload_is_a_view_of_the_result(engine, monkeypatch):
    """``as_dict()`` keeps the ``/debug/queries/<id>`` shape: the key
    set, and one ``levels`` row per ``level_profile`` entry with the
    level's account keys and its wall time."""
    service = _service(engine, max_records=4)
    results = _served_results(service, monkeypatch)
    _, served = _search(service, "machine learning")
    (result,) = results
    record = service.flight.get(served["query_id"])
    payload = record.as_dict()
    assert set(payload) == {
        "query_id", "query", "keywords", "backend", "outcome", "error",
        "duration_ms", "depth", "n_answers", "slow", "started_unix",
        "dropped_terms", "error_phase", "phases", "counters", "levels",
        "n_central_nodes", "terminated", "stage_two_nbytes",
    }
    assert payload["phases"] == result.timer.milliseconds()
    assert payload["stage_two_nbytes"] == result.stage_two.nbytes
    assert payload["levels"] == [
        {"level": o.level, **o.account(), "ms": o.seconds * 1e3}
        for o in result.level_profile
    ]
    assert list(payload["levels"][0]) == LEVEL_KEYS + ["ms"]
    assert all(row["ms"] > 0 for row in payload["levels"])
    assert sum(row["ms"] for row in payload["levels"]) <= payload["duration_ms"]
    kernel = KernelCounters()
    for outcome in result.level_profile:
        if outcome.counters is not None:
            kernel.add(outcome.counters)
    assert payload["counters"] == {
        **{
            key: sum(row[key] for row in payload["levels"])
            for key in LEVEL_KEYS[1:]
        },
        **kernel.as_dict(),
    }
    json.dumps(payload)


def test_metrics_kernel_counters_equal_the_records_sums(engine):
    """After N served queries the ``repro_kernel_*`` counters of
    ``/metrics`` equal the sums of the ``/debug/queries/<id>`` records'
    counters: the service sums each query's levels once and feeds both
    from that sum."""
    service = _service(engine, max_records=16)
    queries = [
        "machine learning", "graph database query", "knowledge base sparql",
        "xml rdf sql", "machine learning translation",
    ]
    for query in queries:
        assert _search(service, query, k=60)[0] == 200
    listing = json.loads(service.handle_path("/debug/queries")[2])
    assert len(listing["recent"]) == len(queries)
    totals = dict.fromkeys(KernelCounters().as_dict(), 0)
    for row in listing["recent"]:
        record = json.loads(
            service.handle_path(f"/debug/queries/{row['query_id']}")[2]
        )
        for field in totals:
            totals[field] += record["counters"][field]
    assert totals["edges_gathered"] and totals["pairs_hit"]
    text = service.handle_path("/metrics")[2]
    tier = engine.backend.counter_tier
    for field, value in totals.items():
        line = f'repro_kernel_{field}_total{{tier="{tier}"}} {value}'
        assert (line in text) == bool(value), field


def test_ring_evicts_but_count_is_exact(engine):
    service = _service(engine, max_records=3)
    for _ in range(5):
        _search(service, "machine learning", k=1)
    flight = service.flight
    assert flight.completed == 5
    recent = flight.recent()
    assert len(recent) == 3
    # Newest first, ids numbered from 1 in commit order.
    assert [record.query_id for record in recent] == [5, 4, 3]


def test_slow_log_keeps_the_slow_query(engine):
    service = _service(engine, max_records=1, slow_ms=1e-6)
    _, first = _search(service, "machine learning", k=1)
    _, second = _search(service, "machine learning", k=2)
    flight = service.flight
    assert [r.query_id for r in flight.recent()] == [second["query_id"]]
    # Evicted from the ring, still served from the slow log.
    record = flight.get(first["query_id"])
    assert record is not None and record.slow
    assert [r.query_id for r in flight.slow_queries()] == [
        second["query_id"], first["query_id"],
    ]


def test_failed_query_recorded_with_phase_and_id(engine):
    service = _service(engine, max_records=4)
    status, payload = _search(service, "zzzzqqq")
    assert status == 404
    assert payload["query_id"] is not None
    assert payload["phase"] == "initialization"
    record = service.flight.get(payload["query_id"])
    assert record.outcome == "error"
    assert record.error_phase == "initialization"
    assert record.keywords == ()
    assert record.dropped_terms == ("zzzzqqq",)
    assert "no query term matches" in record.error
    assert record.error == payload["error"]


def test_a_failure_in_the_search_is_recorded_in_phase_total(engine, monkeypatch):
    """An exception out of the search leaves an ``error`` record in
    phase ``total`` and still reaches the caller."""
    service = _service(engine, max_records=4)

    def broken(*args, **kwargs):
        raise RuntimeError("kernel on fire")

    monkeypatch.setattr(engine, "search", broken)
    with pytest.raises(RuntimeError):
        service.handle_search("machine learning")
    (record,) = service.flight.recent()
    assert (record.outcome, record.error_phase, record.error) == (
        "error", "total", "kernel on fire",
    )


def test_debug_payload_shape(engine):
    service = _service(engine, max_records=4)
    _search(service, "machine learning", k=1)
    payload = service.flight.debug_payload()
    assert payload["capacity"] == 4
    assert payload["completed"] == 1
    assert payload["recent"][0]["outcome"] == "ok"
    assert payload["slow"] == []


def test_disabled_recorder_capacity_zero(engine):
    service = _service(engine, max_records=0)
    flight = service.flight
    assert not flight.enabled
    status, payload = _search(service, "machine learning", k=1)
    assert status == 200
    # No record, so no id to link to.
    assert payload["query_id"] is None
    assert flight.completed == 0
    status, payload = _search(service, "zzzzqqq")
    assert status == 404
    assert payload["query_id"] is None and payload["phase"] is None
    assert flight.completed == 0
