"""The repro.obs observability layer: the Chrome trace rendered from a
query's result, metrics, config, phase windows."""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.instrumentation import (
    PHASE_TOTAL,
    KernelCounters,
    PhaseTimer,
)
from repro.obs import (
    ENV_FLIGHT_N,
    FlightRecorder,
    MetricsRegistry,
    record_kernel_counters,
)
from repro.obs.tracing import render_chrome_trace, validate_chrome_trace


# ---------------------------------------------------------------------------
# Chrome trace: a rendering of the query's SearchResult
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_search(request):
    from repro.core.engine import KeywordSearchEngine

    graph, _ = request.getfixturevalue("tiny_kb")
    engine = KeywordSearchEngine(graph)
    result = engine.search("machine learning", k=3)
    return result, render_chrome_trace(result, k=3)


def _complete(payload, name):
    return [e for e in payload["traceEvents"] if e["ph"] == "X" and e["name"] == name]


def test_chrome_trace_export_and_validation(tmp_path, traced_search):
    result, payload = traced_search
    validate_chrome_trace(payload)
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {"query", "phase:total", "level"} <= {e["name"] for e in complete}
    assert meta and meta[0]["name"] == "thread_name"
    (query,) = _complete(payload, "query")
    assert query["args"]["k"] == 3
    assert query["args"]["n_answers"] == len(result.answers)
    assert query["args"]["depth"] == result.depth
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    validate_chrome_trace(json.loads(path.read_text()))


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"no": "events"})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 1,
                 "ts": -5.0, "dur": 1.0, "args": {}},
            ]}
        )
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": 1.0,
                 "args": {"span_id": 1, "parent_id": 99}},
            ]}
        )


def test_engine_emits_nested_query_phase_level_spans(traced_search):
    """``query`` spans ``phase:total``; every ``level`` event lies
    inside it and carries the level's account (kernel counters too,
    on an expanded level)."""
    result, payload = traced_search
    (query,) = _complete(payload, "query")
    (total,) = _complete(payload, "phase:" + PHASE_TOTAL)
    assert (query["ts"], query["dur"]) == (total["ts"], total["dur"])
    levels = _complete(payload, "level")
    assert [e["args"]["level"] for e in levels] == [
        o.level for o in result.level_profile
    ]
    for event in levels:
        assert total["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= total["ts"] + total["dur"]
        for key in ("frontier_size", "edges_scanned", "new_hits", "new_central"):
            assert key in event["args"]
    expanded = [e for e in levels if "edges_gathered" in e["args"]]
    assert len(levels) - len(expanded) <= 1
    if result.depth > 0:
        assert expanded
        assert all(e["args"]["pairs_hit"] >= 0 for e in expanded)


def test_rendered_phases_sum_to_the_timer(traced_search):
    """One ``phase:<name>`` event per timed entry: per phase, the
    durations add up to ``timer.seconds`` (within 1 µs)."""
    result, payload = traced_search
    seconds = result.timer.seconds
    for name, value in seconds.items():
        total_us = sum(e["dur"] for e in _complete(payload, "phase:" + name))
        assert abs(total_us - value * 1e6) < 1.0, name
    assert len(
        [e for e in payload["traceEvents"] if e["name"].startswith("phase:")]
    ) == len(result.timer.windows)


def test_top_down_phase_carries_the_stage_two_counts(traced_search):
    result, payload = traced_search
    (top_down,) = _complete(payload, "phase:top_down_processing")
    assert top_down["args"] == result.stage_two.as_dict()
    assert top_down["args"]["central_graphs"] == result.n_central_nodes
    assert top_down["args"]["answers"] == len(result.answers)
    assert top_down["args"]["stage_two_nbytes"] == result.stage_two.nbytes > 0


@pytest.mark.parametrize("route", ["vectorized", "threads", "sequential"])
def test_level_events_are_placed_one_after_another(request, route):
    """On a whole-level route (one phase per level) and on the composed
    ones (enqueue / identify / expand), each level event opens at its
    first phase window and ends before the next level's."""
    from repro.core.engine import KeywordSearchEngine
    from repro.parallel import (
        SequentialBackend,
        ThreadPoolBackend,
        VectorizedBackend,
    )

    backends = {
        "vectorized": VectorizedBackend,
        "threads": lambda: ThreadPoolBackend(n_threads=2),
        "sequential": SequentialBackend,
    }
    graph, _ = request.getfixturevalue("tiny_kb")
    with backends[route]() as backend:
        engine = KeywordSearchEngine(graph, backend=backend)
        result = engine.search("graph database query", k=60)
    payload = render_chrome_trace(result)
    validate_chrome_trace(payload)
    levels = _complete(payload, "level")
    assert len(levels) == len(result.level_profile) > 1
    (total,) = _complete(payload, "phase:" + PHASE_TOTAL)
    ends = [total["ts"]] + [e["ts"] + e["dur"] for e in levels]
    for event, previous_end in zip(levels, ends):
        assert event["ts"] >= previous_end
    assert ends[-1] <= total["ts"] + total["dur"]


def test_importing_the_engine_loads_no_tracing_module():
    """The trace renderer is imported by ``repro profile`` alone: the
    engine's import closure holds no ``repro.obs.tracing`` and no more
    than 40 ``repro`` modules."""
    probe = (
        "import sys, repro.core.engine; "
        "names = [n for n in sys.modules if n.split('.')[0] == 'repro']; "
        "print(len(names), 'repro.obs.tracing' in names)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[1] == "False"
    assert int(out[0]) <= 40


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def test_counter_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "help", tier="a")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3
    with pytest.raises(ValueError):
        counter.inc(-1)
    histogram = registry.histogram("repro_test_seconds")
    for value in (0.001, 0.002, 0.004, 10.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == pytest.approx(10.007)
    assert 0 < summary["p50"] <= 0.01
    assert summary["p99"] > 1.0


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    a = registry.counter("repro_x_total", tier="t")
    b = registry.counter("repro_x_total", tier="t")
    assert a is b
    c = registry.counter("repro_x_total", tier="other")
    assert c is not a
    with pytest.raises(ValueError):
        registry.histogram("repro_x_total", tier="t")
    with pytest.raises(ValueError):
        registry.counter("bad name")
    with pytest.raises(ValueError):
        registry.counter("repro_y_total", **{"0bad": "v"})


def test_registry_fast_path_returns_the_registered_instrument(monkeypatch):
    """A repeated lookup is served from the resolved-handle map: the same
    object, without validating or sorting the labels again."""
    import repro.obs.metrics as metrics

    registry = MetricsRegistry()
    first = registry.histogram("repro_fast_seconds", "h", endpoint="/x")

    def boom(labels):
        raise AssertionError("a warm lookup validated its labels again")

    monkeypatch.setattr(metrics, "_label_items", boom)
    assert registry.histogram("repro_fast_seconds", endpoint="/x") is first
    assert registry.histogram("repro_fast_seconds", endpoint="/x") is first


def test_registry_fast_path_keeps_kind_and_name_checks():
    registry = MetricsRegistry()
    counter = registry.counter("repro_kind_total", tier="t")
    assert registry.counter("repro_kind_total", tier="t") is counter  # warm
    with pytest.raises(ValueError):
        registry.histogram("repro_kind_total", tier="t")
    # A failed lookup leaves nothing behind: it raises again.
    for _ in range(2):
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("repro_y_total", **{"0bad": "v"})
    assert [i.name for i in registry.instruments()] == ["repro_kind_total"]


def test_registry_lookup_hammer_one_instrument_per_key():
    """8 threads get-or-create the same 4 series (labels passed in either
    order) and increment them: one instrument per series, exact totals."""
    registry = MetricsRegistry()
    n_threads, n_iter = 8, 300
    barrier = threading.Barrier(n_threads)

    def hammer(i):
        barrier.wait()
        for step in range(n_iter):
            tier = "a" if step % 2 else "b"
            if i % 2:
                labels = {"tier": tier, "endpoint": "/e"}
            else:
                labels = {"endpoint": "/e", "tier": tier}
            registry.counter("repro_race_total", **labels).inc()
            registry.histogram("repro_race_seconds", **labels).observe(0.001)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(hammer, range(n_threads)))
    instruments = registry.instruments()
    assert len(instruments) == 4
    total = n_threads * n_iter
    counters = [i for i in instruments if i.name == "repro_race_total"]
    histograms = [i for i in instruments if i.name == "repro_race_seconds"]
    assert sorted(c.value for c in counters) == [total / 2, total / 2]
    assert sorted(h.count for h in histograms) == [total // 2, total // 2]


def test_registry_clear_empties_the_fast_path():
    registry = MetricsRegistry()
    old = registry.counter("repro_cleared_total")
    old.inc(5)
    registry.clear()
    new = registry.counter("repro_cleared_total")
    assert new is not old and new.value == 0
    assert registry.instruments() == [new]


def test_prometheus_rendering():
    registry = MetricsRegistry()
    registry.counter("repro_http_requests_total", "GETs", endpoint="/search").inc(2)
    registry.histogram("repro_http_request_seconds", endpoint="/search").observe(0.01)
    text = registry.render_prometheus()
    assert "# TYPE repro_http_requests_total counter" in text
    assert '# HELP repro_http_requests_total GETs' in text
    assert 'repro_http_requests_total{endpoint="/search"} 2' in text
    assert "# TYPE repro_http_request_seconds histogram" in text
    assert 'le="+Inf"} 1' in text
    assert 'repro_http_request_seconds_count{endpoint="/search"} 1' in text
    assert 'repro_http_request_seconds_sum{endpoint="/search"}' in text
    # Cumulative buckets: every bound >= 0.01 reports 1.
    assert 'le="0.0128"} 1' in text


def test_histogram_percentile_bounds():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_p_seconds")
    assert histogram.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_concurrent_counter_hammer_exact_total():
    registry = MetricsRegistry()
    counter = registry.counter("repro_hammer_total")
    histogram = registry.histogram("repro_hammer_seconds")
    n_threads, n_iter = 8, 500

    def hammer(_):
        for _ in range(n_iter):
            counter.inc()
            histogram.observe(0.001)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(hammer, range(n_threads)))
    assert counter.value == n_threads * n_iter
    assert histogram.count == n_threads * n_iter
    assert histogram.sum == pytest.approx(n_threads * n_iter * 0.001)


def test_record_kernel_counters():
    registry = MetricsRegistry()
    counters = KernelCounters(
        sources_pruned=1, edges_gathered=10, pairs_hit=5,
        duplicates_elided=0,
    )
    record_kernel_counters(counters, tier="threads", registry=registry)
    text = registry.render_prometheus()
    assert 'repro_kernel_edges_gathered_total{tier="threads"} 10' in text
    assert 'repro_kernel_pairs_hit_total{tier="threads"} 5' in text
    # Zero-valued fields are skipped entirely.
    assert "duplicates_elided" not in text


def test_the_search_core_imports_no_metrics():
    """Only a service writes metrics: no module of ``repro.core``
    imports ``repro.obs.metrics``, so no engine shares a registry."""
    import ast
    from pathlib import Path

    import repro.core

    core = Path(repro.core.__file__).parent
    importers = []
    for path in sorted(core.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("obs.metrics" in name for name in names):
                importers.append(path.name)
    assert importers == []


@pytest.mark.parametrize("route", ["whole-level", "threads"])
def test_kernel_counters_are_recorded_once_per_query(tiny_kb, monkeypatch, route):
    """A served query's expanded levels reach the service's registry in
    one update, under the route's tier, and the totals are the sums of
    its level counters. A query that raises records none."""
    from repro import service as service_module
    from repro.core.engine import KeywordSearchEngine
    from repro.parallel import ThreadPoolBackend, VectorizedBackend

    graph, _ = tiny_kb
    backend = (
        VectorizedBackend()
        if route == "whole-level"
        else ThreadPoolBackend(n_threads=2, chunks_per_thread=2)
    )
    engine = KeywordSearchEngine(graph, backend=backend)
    service = service_module.SearchService(engine)
    calls, results = [], []
    real_record = service_module.record_kernel_counters
    monkeypatch.setattr(
        service_module,
        "record_kernel_counters",
        lambda counters, tier, registry: calls.append(tier)
        or real_record(counters, tier, registry),
    )
    real_search = engine.search
    monkeypatch.setattr(
        engine,
        "search",
        lambda *args, **kwargs: results.append(real_search(*args, **kwargs))
        or results[-1],
    )
    with backend:
        for query in ("machine+learning", "graph+database+query", "zzzzqqq"):
            service.handle_path(f"/search?q={query}&k=60")
    assert calls == [route, route]
    want = KernelCounters()
    for result in results:
        levels = [o for o in result.level_profile if o.counters]
        assert len(levels) > 1  # several levels, one update
        for outcome in levels:
            want.add(outcome.counters)
    text = service.registry.render_prometheus()
    for field, value in want.as_dict().items():
        line = f'repro_kernel_{field}_total{{tier="{route}"}} {value}'
        assert (line in text) == bool(value), field
    assert want.edges_gathered and want.pairs_hit


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------
def test_env_switches(monkeypatch):
    """``REPRO_FLIGHT_N=0`` turns flight recording off."""
    monkeypatch.setenv(ENV_FLIGHT_N, "0")
    assert not FlightRecorder().enabled
    monkeypatch.setenv(ENV_FLIGHT_N, "4")
    assert FlightRecorder().enabled


def test_registered_env_switches_are_exactly_these_four():
    """Every ``REPRO_*`` switch is one more configuration to cover: a
    new one must be added here on purpose, a retired one removed."""
    import inspect

    from repro.analysis.lint import registered_env_vars
    from repro.obs import config

    assert registered_env_vars(inspect.getsource(config)) == {
        "REPRO_SANITIZE",
        "REPRO_DATASET_CACHE",
        "REPRO_SLOW_MS",
        "REPRO_FLIGHT_N",
    }


# ---------------------------------------------------------------------------
# PhaseTimer: one clock, the windows its seconds sum
# ---------------------------------------------------------------------------
def test_tracing_phase_timer_matches_phase_timer(monkeypatch):
    """Under a fake clock each phase entry keeps the two readings it
    was timed by, and ``seconds`` is their sum per phase."""
    ticks = {"now": 0.0}

    def fake_perf_counter():
        ticks["now"] += 0.5
        return ticks["now"]

    import repro.instrumentation as instrumentation

    monkeypatch.setattr(instrumentation.time, "perf_counter", fake_perf_counter)
    timer = PhaseTimer()
    with timer.phase("a"):
        pass
    with timer.phase("a"):
        pass
    with timer.phase("b"):
        pass
    assert timer.seconds == {"a": 1.0, "b": 0.5}
    assert timer.windows == [("a", 0.5, 1.0), ("a", 1.5, 2.0), ("b", 2.5, 3.0)]
    assert timer == PhaseTimer({"a": 1.0, "b": 0.5})  # windows: not a value


def test_tracing_phase_timer_emits_spans():
    """Nested entries are kept in exit order, the inner one first, and
    the outer window contains the inner."""
    timer = PhaseTimer()
    with timer.phase(PHASE_TOTAL):
        with timer.phase("expansion"):
            pass
    (inner, inner_start, inner_end), (outer, start, end) = timer.windows
    assert (inner, outer) == ("expansion", PHASE_TOTAL)
    assert start <= inner_start <= inner_end <= end
    assert timer.get(PHASE_TOTAL) == end - start > 0


# ---------------------------------------------------------------------------
# Flight-recording overhead
# ---------------------------------------------------------------------------
def test_flight_recording_within_noise_of_untraced():
    from repro.bench import measure_obs_overhead

    overhead = measure_obs_overhead(repeats=3, n_queries=2, knum=3, topk=5)
    assert overhead["plain_ms"] > 0
    # The always-on flight recorder (one record built from the result,
    # one ring commit) must stay cheap relative to the served query.
    assert overhead["flight_ratio"] < 3.0
    assert overhead["flight_ms"] > 0
