"""The repro.obs observability layer: tracing, metrics, config, phase spans."""

import json
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
    Span,
    Tracer,
    install_global_tracer,
    record_kernel_counters,
    uninstall_global_tracer,
    validate_chrome_trace,
)
from repro.obs.tracing import NULL_CONTEXT, NULL_SPAN, NULL_TRACER


# ---------------------------------------------------------------------------
# Tracer: spans, nesting, threads
# ---------------------------------------------------------------------------
def test_span_nesting_and_attrs():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", k=3) as outer:
        with tracer.span("inner") as inner:
            inner.set_attr("x", 1)
        assert tracer.current_span() is outer
    spans = tracer.finished_spans()
    assert [s.name for s in spans] == ["inner", "outer"]
    inner, outer = spans
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == 0
    assert outer.attrs["k"] == 3
    assert inner.attrs["x"] == 1
    assert inner.duration_ns >= 0
    assert outer.duration_ns >= inner.duration_ns


def test_span_records_on_exception():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert [s.name for s in tracer.finished_spans()] == ["boom"]
    assert tracer.current_span() is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    ctx = tracer.span("x")
    assert ctx is NULL_CONTEXT
    with ctx as span:
        assert span is NULL_SPAN
        span.set_attr("ignored", 1)  # no-op, no error
    assert tracer.finished_spans() == []


def test_cross_thread_parenting_via_explicit_parent():
    tracer = Tracer(enabled=True)
    with tracer.span("coordinator") as parent:
        def work():
            # The worker thread's stack is empty: without parent= this
            # span would become a root.
            with tracer.span("chunk", parent=parent):
                pass

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(), range(4)))
    spans = tracer.finished_spans()
    chunks = [s for s in spans if s.name == "chunk"]
    coordinator = next(s for s in spans if s.name == "coordinator")
    assert len(chunks) == 4
    assert all(c.parent_id == coordinator.span_id for c in chunks)
    assert any(c.tid != coordinator.tid for c in chunks)


def test_traced_decorator():
    tracer = Tracer(enabled=True)

    @tracer.traced("work")
    def work(x):
        return x + 1

    assert work(1) == 2
    assert [s.name for s in tracer.finished_spans()] == ["work"]


def test_chrome_trace_export_and_validation(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("query", k=5):
        with tracer.span("phase:total"):
            pass
    payload = tracer.to_chrome_trace()
    validate_chrome_trace(payload)
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"query", "phase:total"}
    assert meta and meta[0]["name"] == "thread_name"
    query = next(e for e in complete if e["name"] == "query")
    assert query["args"]["k"] == 5
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
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


def test_flame_summary_aggregates_siblings():
    tracer = Tracer(enabled=True)
    with tracer.span("query"):
        for level in range(3):
            with tracer.span("level", level=level):
                pass
    summary = tracer.flame_summary()
    assert "query" in summary
    # Three sibling "level" spans collapse to one row with calls=3.
    level_line = next(l for l in summary.splitlines() if "level" in l)
    assert level_line.rstrip().endswith("3")


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
    """``REPRO_FLIGHT_N=0`` turns flight recording off; no switch turns a
    tracer off: it records once attached, and only then."""
    monkeypatch.setenv(ENV_FLIGHT_N, "0")
    assert not FlightRecorder().enabled
    monkeypatch.setenv(ENV_FLIGHT_N, "4")
    assert FlightRecorder().enabled
    assert Tracer().enabled
    assert not Tracer(enabled=False).enabled


def test_registered_env_switches_are_exactly_these_five():
    """Every ``REPRO_*`` switch is one more configuration to cover: a
    new one must be added here on purpose, a retired one removed."""
    import inspect

    from repro.analysis.lint import registered_env_vars
    from repro.obs import config

    assert registered_env_vars(inspect.getsource(config)) == {
        "REPRO_TRACE",
        "REPRO_SANITIZE",
        "REPRO_DATASET_CACHE",
        "REPRO_SLOW_MS",
        "REPRO_FLIGHT_N",
    }


def test_maybe_install_env_tracer(monkeypatch, tmp_path):
    from repro.obs.config import maybe_install_env_tracer

    uninstall_global_tracer()
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert maybe_install_env_tracer() is None
    path = tmp_path / "bench.trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    tracer = maybe_install_env_tracer()
    try:
        assert tracer is not None and tracer.enabled
        # Idempotent: the second call returns the installed tracer.
        assert maybe_install_env_tracer() is tracer
        from repro.obs.tracing import get_global_tracer

        assert get_global_tracer() is tracer
    finally:
        uninstall_global_tracer()


# ---------------------------------------------------------------------------
# PhaseTimer: the same numbers with or without a tracer
# ---------------------------------------------------------------------------
def test_tracing_phase_timer_matches_phase_timer(monkeypatch):
    """Under a fake clock a tracer-carrying timer accumulates the same
    seconds as a plain one, and opens one span per phase entry."""
    ticks = {"now": 0.0}

    def fake_perf_counter():
        ticks["now"] += 0.5
        return ticks["now"]

    import repro.instrumentation as instrumentation

    monkeypatch.setattr(instrumentation.time, "perf_counter", fake_perf_counter)
    tracer = Tracer(enabled=True)
    plain = PhaseTimer()
    traced = PhaseTimer(tracer=tracer)
    for timer in (plain, traced):
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
    assert traced.seconds == plain.seconds
    assert plain.seconds == {"a": 1.0, "b": 0.5}
    assert [s.name for s in tracer.finished_spans()] == [
        "phase:a", "phase:a", "phase:b",
    ]
    assert traced == plain  # the tracer is not part of a timer's value


def test_tracing_phase_timer_emits_spans():
    tracer = Tracer(enabled=True)
    timer = PhaseTimer(tracer=tracer)
    with timer.phase(PHASE_TOTAL):
        with timer.phase("expansion"):
            pass
    names = [s.name for s in tracer.finished_spans()]
    assert names == ["phase:expansion", f"phase:{PHASE_TOTAL}"]
    assert timer.get(PHASE_TOTAL) > 0


def test_phase_timer_without_tracer_opens_no_span_context(monkeypatch):
    """The disabled path: ``phase`` must not call ``span`` at all."""

    def boom(*args, **kwargs):
        raise AssertionError("span() called on the disabled path")

    monkeypatch.setattr(NULL_TRACER, "span", boom)
    timer = PhaseTimer()
    assert timer.tracer is NULL_TRACER
    with timer.phase("a"):
        pass
    disabled = PhaseTimer(tracer=Tracer(enabled=False))
    monkeypatch.setattr(disabled.tracer, "span", boom)
    with disabled.phase("a"):
        pass
    assert set(timer.seconds) == set(disabled.seconds) == {"a"}


# ---------------------------------------------------------------------------
# Engine integration: query -> phase -> level spans
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_search(request):
    from repro.core.engine import KeywordSearchEngine

    graph, _ = request.getfixturevalue("tiny_kb")
    tracer = Tracer(enabled=True)
    engine = KeywordSearchEngine(graph, tracer=tracer)
    result = engine.search("machine learning", k=3)
    return tracer, result


def test_engine_emits_nested_query_phase_level_spans(traced_search):
    tracer, result = traced_search
    spans = tracer.finished_spans()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    query = by_name["query"][0]
    total = next(s for s in by_name["phase:total"])
    levels = by_name["level"]
    assert query.parent_id == 0
    assert total.parent_id == query.span_id
    assert all(level.parent_id == total.span_id for level in levels)
    assert query.attrs["n_answers"] == len(result.answers)
    assert query.attrs["depth"] == result.depth
    # Expanded levels carry profile + kernel-counter attributes.
    expanded = [l for l in levels if "edges_gathered" in l.attrs]
    terminal = [l for l in levels if "edges_gathered" not in l.attrs]
    for level in levels:
        assert "frontier_size" in level.attrs
    assert len(terminal) <= 1
    if result.depth > 0:
        assert expanded
        assert all(l.attrs["pairs_hit"] >= 0 for l in expanded)
    payload = tracer.to_chrome_trace()
    validate_chrome_trace(payload)


def test_engine_with_disabled_tracer_uses_plain_timer(request):
    from repro.core.engine import KeywordSearchEngine

    graph, _ = request.getfixturevalue("tiny_kb")
    engine = KeywordSearchEngine(graph)
    result = engine.search("machine learning", k=2)
    assert result.timer.tracer is NULL_TRACER
    assert result.answers


def test_engine_uses_installed_global_tracer(request):
    from repro.core.engine import KeywordSearchEngine

    graph, _ = request.getfixturevalue("tiny_kb")
    tracer = Tracer(enabled=True)
    install_global_tracer(tracer)
    try:
        engine = KeywordSearchEngine(graph)
        engine.search("machine learning", k=2)
    finally:
        uninstall_global_tracer()
    assert any(s.name == "query" for s in tracer.finished_spans())


def test_threaded_backend_attaches_chunk_spans(request):
    from repro.core.engine import KeywordSearchEngine
    from repro.parallel import ThreadPoolBackend

    graph, _ = request.getfixturevalue("tiny_kb")
    tracer = Tracer(enabled=True)
    with ThreadPoolBackend(n_threads=2) as backend:
        engine = KeywordSearchEngine(graph, backend=backend, tracer=tracer)
        engine.search("machine learning paper", k=5)
    spans = tracer.finished_spans()
    chunks = [s for s in spans if s.name == "chunk"]
    if chunks:  # small frontiers may take the single-chunk fast path
        expansions = {
            s.span_id for s in spans if s.name == "phase:expansion"
        }
        assert all(c.parent_id in expansions for c in chunks)
    validate_chrome_trace(tracer.to_chrome_trace())


# ---------------------------------------------------------------------------
# Flight-recording overhead
# ---------------------------------------------------------------------------
def test_flight_recording_within_noise_of_untraced():
    from repro.bench import measure_obs_overhead

    overhead = measure_obs_overhead(repeats=3, n_queries=2, knum=3, topk=5)
    assert overhead["plain_ms"] > 0
    # The always-on flight recorder (per-query tracer + ring commit)
    # must stay cheap relative to the query itself.
    assert overhead["flight_ratio"] < 3.0
    assert overhead["flight_ms"] > 0
