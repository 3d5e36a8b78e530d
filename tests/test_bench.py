"""Benchmark harness: instrumentation, datasets, sweeps, reporting."""

import time

import numpy as np
import pytest

from repro.bench.datasets import BenchDataset, build_dataset
from repro.bench.harness import (
    METHOD_BANKS2,
    METHOD_CPU_PAR,
    METHOD_CPU_PAR_D,
    METHOD_GPU_SIM,
    SweepRow,
    effectiveness_experiment,
    make_engine,
    run_method,
    storage_table,
    vary_alpha,
    vary_knum,
    vary_topk,
)
from repro.bench.reporting import (
    distribution_table_text,
    format_table,
    precision_table,
    sweep_table,
    total_time_table,
)
from repro.eval.precision import PrecisionRow
from repro.eval.queries import CannedQuery
from repro.graph.generators import WikiKBConfig
from repro.parallel import ThreadPoolBackend
from repro.instrumentation import (
    PHASE_TOTAL,
    PhaseTimer,
    StorageReport,
    average_timers,
)


@pytest.fixture(scope="module")
def bench_dataset():
    config = WikiKBConfig(
        name="bench-tiny",
        seed=11,
        n_papers=180,
        n_people=70,
        n_misc=70,
        n_venues=6,
        n_orgs=6,
        gold_papers_per_query=2,
        decoy_papers_per_phrase=1,
    )
    return build_dataset(config, distance_pairs=300)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------
def test_phase_timer_accumulates():
    timer = PhaseTimer()
    with timer.phase("a"):
        time.sleep(0.001)
    with timer.phase("a"):
        pass
    assert timer.get("a") > 0
    timer.add("b", 0.5)
    assert timer.milliseconds()["b"] == 500.0


def test_phase_timer_records_on_exception():
    timer = PhaseTimer()
    with pytest.raises(RuntimeError):
        with timer.phase("x"):
            raise RuntimeError("boom")
    assert timer.get("x") >= 0


def test_timer_merge_and_average():
    a = PhaseTimer({"x": 1.0})
    b = PhaseTimer({"x": 3.0, "y": 1.0})
    merged = a.merged_with(b)
    assert merged.get("x") == 4.0
    averaged = average_timers([a, b])
    assert averaged["x"] == 2000.0
    assert averaged["y"] == 500.0
    assert average_timers([]) == {}


def test_storage_report_ratio():
    report = StorageReport(pre_storage=100, max_running_storage=150)
    assert report.overhead_ratio == 1.5
    assert report.as_megabytes()["pre_storage_mb"] > 0
    assert StorageReport(0, 10).overhead_ratio == float("inf")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------
def test_build_dataset_bundles_artifacts(bench_dataset):
    assert bench_dataset.graph.n_nodes > 200
    assert bench_dataset.index.n_terms > 50
    assert len(bench_dataset.weights) == bench_dataset.graph.n_nodes
    row = bench_dataset.table2_row()
    assert row["dataset"] == "bench-tiny"
    assert row["A"] > 0


def test_dataset_cache_returns_same_object():
    from repro.bench.datasets import _cached, clear_cache

    config = WikiKBConfig(
        name="cache-test", seed=3, n_papers=40, n_people=15, n_misc=15,
        n_venues=3, n_orgs=3, gold_papers_per_query=1,
        decoy_papers_per_phrase=1,
    )
    clear_cache()
    first = _cached(config)
    second = _cached(config)
    assert first is second
    clear_cache()


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def test_make_engine_methods(bench_dataset):
    gpu = make_engine(bench_dataset, METHOD_GPU_SIM)
    assert gpu.backend.name == "vectorized"
    cpu = make_engine(bench_dataset, METHOD_CPU_PAR, tnum=2)
    assert "threads" in cpu.backend.name
    cpu.backend.close()
    with pytest.raises(ValueError):
        make_engine(bench_dataset, METHOD_BANKS2)


def test_every_tnum_of_a_series_runs_one_backend_class(bench_dataset):
    """Tnum = 1 is a one-worker pool of the series' own backend, not the
    sequential reference: a Fig. 9-10 curve compares one kernel with
    itself. CPU-Par's Tnum also threads stage two."""
    for tnum in (1, 2):
        engine = make_engine(bench_dataset, METHOD_CPU_PAR, tnum=tnum)
        with engine.backend as backend:
            assert type(backend) is ThreadPoolBackend
            assert backend.n_threads == tnum
        assert engine.config.top_down_threads == tnum
    assert make_engine(bench_dataset, METHOD_GPU_SIM).config.top_down_threads == 1


def test_run_method_all_variants(bench_dataset):
    queries = ["machine learning data", "knowledge graph query"]
    for method in (
        METHOD_GPU_SIM,
        METHOD_CPU_PAR,
        METHOD_CPU_PAR_D,
        METHOD_BANKS2,
    ):
        phase_ms = run_method(bench_dataset, method, queries, topk=5, tnum=2)
        assert phase_ms[PHASE_TOTAL] > 0
    with pytest.raises(ValueError):
        run_method(bench_dataset, "nope", queries)


def test_vary_knum_produces_rows(bench_dataset):
    rows = vary_knum(
        bench_dataset,
        knums=(2, 3),
        methods=(METHOD_GPU_SIM,),
        n_queries=2,
    )
    assert len(rows) == 2
    assert all(isinstance(row, SweepRow) for row in rows)
    assert all(row.total_ms > 0 for row in rows)


def test_vary_topk_and_alpha(bench_dataset):
    rows_k = vary_topk(
        bench_dataset, topks=(5, 10), methods=(METHOD_GPU_SIM,), n_queries=2
    )
    assert {row.value for row in rows_k} == {5, 10}
    rows_a = vary_alpha(
        bench_dataset, alphas=(0.1, 0.4), methods=(METHOD_GPU_SIM,),
        n_queries=2,
    )
    assert {row.value for row in rows_a} == {0.1, 0.4}


def test_storage_table(bench_dataset):
    report = storage_table(bench_dataset, knum=4)
    assert report.max_running_storage > report.pre_storage


def test_effectiveness_experiment_rows(bench_dataset):
    queries = [CannedQuery("Q5", ("SQL", "RDF", "knowledge base"))]
    rows = effectiveness_experiment(
        bench_dataset, alphas=(0.1,), cutoffs=(5,), queries=queries, topk=5
    )
    methods = {row.method for row in rows}
    assert methods == {"BANKS-II", "alpha-0.1"}
    for row in rows:
        assert 0.0 <= row.precision_at[5] <= 1.0


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "b"], [[1, 2.5], ["xx", 3.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")


def test_sweep_and_total_tables():
    rows = [
        SweepRow("d", "m1", "knum", 2, {PHASE_TOTAL: 1.0}),
        SweepRow("d", "m2", "knum", 2, {PHASE_TOTAL: 2.0}),
    ]
    assert "m1" in total_time_table(rows)
    assert "total_ms" in sweep_table(rows)


def test_precision_table_renders_grid():
    rows = [
        PrecisionRow("Q1", "BANKS-II", {5: 0.8}),
        PrecisionRow("Q1", "alpha-0.1", {5: 1.0}),
        PrecisionRow("Q2", "BANKS-II", {5: 0.6}),
    ]
    text = precision_table(rows, cutoff=5)
    assert "Q1" in text and "Q2" in text
    assert "BANKS-II" in text


def test_distribution_table_text():
    table = {0.1: {"0": 0.5, ">=4": 0.5}, 0.4: {"0": 0.9, ">=4": 0.1}}
    text = distribution_table_text(table)
    assert "alpha-0.1" in text and "alpha-0.4" in text
