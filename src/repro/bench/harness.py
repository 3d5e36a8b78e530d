"""Experiment harness: one entry point per paper table/figure sweep.

Each function regenerates the data series behind a Section VI artifact.
The ``benchmarks/`` scripts are thin wrappers that call these and print
the resulting rows, so the same sweeps are also available to library
users and the example scripts.

Method names follow the paper, with the reproduction's substitutions
spelled out: "GPU-Par(sim)" is the vectorized NumPy backend, "CPU-Par"
the thread-pool backend, "CPU-Par-d" the locked dynamic-memory variant,
"BANKS-II" the bidirectional-expansion baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.engine import EngineConfig, KeywordSearchEngine
from ..eval.precision import PrecisionRow, precision_rows
from ..eval.queries import CannedQuery, KeywordWorkload, canned_queries
from ..eval.relevance import PhraseCoOccurrenceJudge
from ..baselines.banks import BanksConfig, BanksII
from ..graph.generators import WikiKBConfig
from ..parallel.locked import LockedDictEngine
from ..parallel.threads import ThreadPoolBackend
from .datasets import BenchDataset, build_dataset
from ..instrumentation import (
    ALL_PHASES,
    PHASE_TOTAL,
    PhaseTimer,
    StorageReport,
    average_timers,
)

METHOD_GPU_SIM = "GPU-Par(sim)"
METHOD_CPU_PAR = "CPU-Par"
METHOD_CPU_PAR_D = "CPU-Par-d"
METHOD_BANKS2 = "BANKS-II"

#: Table III defaults.
DEFAULT_TOPK = 20
DEFAULT_KNUM = 6
DEFAULT_ALPHA = 0.1
DEFAULT_TNUM = 4  # the paper uses 30 on a 52-core box; scaled to laptops
DEFAULT_QUERIES_PER_POINT = 10  # the paper averages 50 queries per point


@dataclass
class SweepRow:
    """One data point of an efficiency figure.

    Attributes:
        dataset: dataset name.
        method: method name (see METHOD_* constants).
        parameter: the swept parameter name ("knum", "topk", "alpha", "tnum").
        value: the swept parameter's value at this point.
        phase_ms: average milliseconds per phase (keys from ALL_PHASES).
    """

    dataset: str
    method: str
    parameter: str
    value: float
    phase_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.phase_ms.get(PHASE_TOTAL, 0.0)


def make_engine(
    dataset: BenchDataset,
    method: str = METHOD_GPU_SIM,
    tnum: int = DEFAULT_TNUM,
    topk: int = DEFAULT_TOPK,
    alpha: float = DEFAULT_ALPHA,
) -> KeywordSearchEngine:
    """A Central-Graph engine on shared dataset artifacts.

    Raises:
        ValueError: for method names without a matrix-engine backend
            (CPU-Par-d and BANKS-II are separate classes).
    """
    backend = None  # GPU-Par(sim) is the engine's default backend
    top_down_threads = 1
    if method == METHOD_CPU_PAR:
        # Tnum is the whole method's thread count: the expansion pool
        # and, as in the paper, the stage-two extraction threads.
        backend = ThreadPoolBackend(n_threads=tnum)
        top_down_threads = tnum
    elif method != METHOD_GPU_SIM:
        raise ValueError(f"no matrix-engine backend for method {method!r}")
    return KeywordSearchEngine(
        dataset.graph,
        backend=backend,
        config=EngineConfig(
            topk=topk, alpha=alpha, top_down_threads=top_down_threads
        ),
        index=dataset.index,
        weights=dataset.weights,
        average_distance=dataset.distance.average,
    )


def _run_matrix_method(
    dataset: BenchDataset,
    method: str,
    queries: Sequence[str],
    topk: int,
    alpha: float,
    tnum: int,
) -> Dict[str, float]:
    engine = make_engine(dataset, method, tnum=tnum, topk=topk, alpha=alpha)
    timers: List[PhaseTimer] = []
    try:
        for query in queries:
            timers.append(engine.search(query, k=topk, alpha=alpha).timer)
    finally:
        engine.backend.close()
    return average_timers(timers)


def _run_locked_method(
    dataset: BenchDataset,
    queries: Sequence[str],
    topk: int,
    alpha: float,
    tnum: int,
) -> Dict[str, float]:
    # Activation levels come from the shared mapping so every method
    # searches under identical inputs.
    reference = make_engine(dataset, METHOD_GPU_SIM, topk=topk, alpha=alpha)
    activation = reference.activation_for(alpha)
    engine = LockedDictEngine(
        dataset.graph, dataset.weights, dataset.index, n_threads=tnum
    )
    timers = [
        engine.search(query, activation, k=topk).timer for query in queries
    ]
    return average_timers(timers)


#: Pop budget for BANKS-II inside efficiency sweeps — the analogue of the
#: paper's 500-second cap (BANKS-II routinely hits it on wiki2018).
BANKS_SWEEP_POPS = 30_000
#: BANKS-II is orders of magnitude slower, so sweeps average fewer of its
#: queries (the paper similarly reports it only in the Total panel).
BANKS_SWEEP_QUERIES = 3


def _run_banks2(
    dataset: BenchDataset,
    queries: Sequence[str],
    topk: int,
    config: Optional[BanksConfig] = None,
) -> Dict[str, float]:
    if config is None:
        config = BanksConfig(max_pops=BANKS_SWEEP_POPS)
    banks = BanksII(dataset.graph, dataset.index, config)
    totals = []
    for query in queries[:BANKS_SWEEP_QUERIES]:
        result = banks.search(query, k=topk)
        totals.append(result.elapsed_seconds * 1e3)
    return {PHASE_TOTAL: float(np.mean(totals)) if totals else 0.0}


def run_method(
    dataset: BenchDataset,
    method: str,
    queries: Sequence[str],
    topk: int = DEFAULT_TOPK,
    alpha: float = DEFAULT_ALPHA,
    tnum: int = DEFAULT_TNUM,
) -> Dict[str, float]:
    """Average per-phase milliseconds of ``method`` over ``queries``.

    Raises:
        ValueError: for unknown method names.
    """
    if method in (METHOD_GPU_SIM, METHOD_CPU_PAR):
        return _run_matrix_method(dataset, method, queries, topk, alpha, tnum)
    if method == METHOD_CPU_PAR_D:
        return _run_locked_method(dataset, queries, topk, alpha, tnum)
    if method == METHOD_BANKS2:
        return _run_banks2(dataset, queries, topk)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Exp-1: vary Knum (Fig. 6 / Fig. 7)
# ---------------------------------------------------------------------------
def vary_knum(
    dataset: BenchDataset,
    knums: Sequence[int] = (2, 4, 6, 8, 10),
    methods: Sequence[str] = (
        METHOD_GPU_SIM,
        METHOD_CPU_PAR,
        METHOD_CPU_PAR_D,
        METHOD_BANKS2,
    ),
    n_queries: int = DEFAULT_QUERIES_PER_POINT,
    seed: int = 7,
) -> List[SweepRow]:
    """Per-phase profile versus keyword count (the paper's Exp-1)."""
    workload = KeywordWorkload(dataset.index, seed=seed)
    rows: List[SweepRow] = []
    for knum in knums:
        queries = workload.sample_queries(knum, n_queries)
        for method in methods:
            phase_ms = run_method(dataset, method, queries)
            rows.append(
                SweepRow(dataset.name, method, "knum", knum, phase_ms)
            )
    return rows


# ---------------------------------------------------------------------------
# Exp-2 / Exp-3: vary Topk and alpha (Fig. 8)
# ---------------------------------------------------------------------------
def vary_topk(
    dataset: BenchDataset,
    topks: Sequence[int] = (10, 20, 30, 40, 50),
    methods: Sequence[str] = (METHOD_GPU_SIM, METHOD_CPU_PAR),
    n_queries: int = DEFAULT_QUERIES_PER_POINT,
    seed: int = 8,
) -> List[SweepRow]:
    """Runtime versus k — expected to be nearly flat (Exp-2)."""
    workload = KeywordWorkload(dataset.index, seed=seed)
    queries = workload.sample_queries(DEFAULT_KNUM, n_queries)
    rows: List[SweepRow] = []
    for topk in topks:
        for method in methods:
            phase_ms = run_method(dataset, method, queries, topk=topk)
            rows.append(SweepRow(dataset.name, method, "topk", topk, phase_ms))
    return rows


def vary_alpha(
    dataset: BenchDataset,
    alphas: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    methods: Sequence[str] = (METHOD_GPU_SIM, METHOD_CPU_PAR),
    n_queries: int = DEFAULT_QUERIES_PER_POINT,
    seed: int = 9,
) -> List[SweepRow]:
    """Runtime versus α — expected to fall as α grows (Exp-3)."""
    workload = KeywordWorkload(dataset.index, seed=seed)
    queries = workload.sample_queries(DEFAULT_KNUM, n_queries)
    rows: List[SweepRow] = []
    for alpha in alphas:
        for method in methods:
            phase_ms = run_method(dataset, method, queries, alpha=alpha)
            rows.append(SweepRow(dataset.name, method, "alpha", alpha, phase_ms))
    return rows


# ---------------------------------------------------------------------------
# Exp-4: vary Tnum (Fig. 9 / Fig. 10)
# ---------------------------------------------------------------------------
def vary_tnum(
    dataset: BenchDataset,
    tnums: Sequence[int] = (1, 2, 4, 8),
    methods: Sequence[str] = (METHOD_CPU_PAR, METHOD_CPU_PAR_D),
    n_queries: int = DEFAULT_QUERIES_PER_POINT,
    seed: int = 10,
) -> List[SweepRow]:
    """Per-phase profile versus thread count (Exp-4).

    The paper sweeps 1–50 threads on a 52-core machine; we sweep 1–8
    across the paper's two CPU variants: threads (CPU-Par; each chunk's
    kernel call releases the GIL, and Tnum threads stage two as well)
    and the locked dict (CPU-Par-d). Every point of a series runs the
    same backend class: Tnum = 1 is a one-worker pool. EXPERIMENTS.md
    documents the host's core count alongside the results.
    """
    workload = KeywordWorkload(dataset.index, seed=seed)
    queries = workload.sample_queries(DEFAULT_KNUM, n_queries)
    rows: List[SweepRow] = []
    for tnum in tnums:
        for method in methods:
            phase_ms = run_method(dataset, method, queries, tnum=tnum)
            rows.append(SweepRow(dataset.name, method, "tnum", tnum, phase_ms))
    return rows


# ---------------------------------------------------------------------------
# Table IV: running storage
# ---------------------------------------------------------------------------
def storage_table(
    dataset: BenchDataset, knum: int = 8, topk: int = 50
) -> StorageReport:
    """Table IV's row for one dataset (Knum=8, Topk=50 as in the paper)."""
    engine = make_engine(dataset, METHOD_GPU_SIM, topk=topk)
    return engine.storage_report(knum=knum)


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 12: effectiveness
# ---------------------------------------------------------------------------
def effectiveness_experiment(
    dataset: BenchDataset,
    alphas: Sequence[float] = (0.05, 0.1, 0.4),
    cutoffs: Sequence[int] = (5, 10, 20),
    queries: Optional[Sequence[CannedQuery]] = None,
    topk: int = 20,
    banks_config: Optional[BanksConfig] = None,
) -> List[PrecisionRow]:
    """Top-k precision of BANKS-II versus the engine at several α values.

    Args:
        banks_config: override BANKS-II's knobs; by default it runs with a
            generous pop budget (the analogue of the paper's 500 s cap).
    """
    queries = list(queries) if queries is not None else list(canned_queries())
    judge = PhraseCoOccurrenceJudge(dataset.graph)
    rows: List[PrecisionRow] = []

    if banks_config is None:
        banks_config = BanksConfig(max_pops=150_000)
    banks = BanksII(dataset.graph, dataset.index, banks_config)
    for query in queries:
        try:
            result = banks.search(query.text, k=topk)
            flags = judge.judge_node_sets(result.answer_node_sets(), query)
        except ValueError:
            flags = []
        rows.append(precision_rows(query.query_id, "BANKS-II", flags, cutoffs))

    for alpha in alphas:
        engine = make_engine(dataset, METHOD_GPU_SIM, topk=topk, alpha=alpha)
        method = f"alpha-{alpha}"
        for query in queries:
            result = engine.search(query.text, k=topk, alpha=alpha)
            node_sets = [answer.graph.nodes for answer in result.answers]
            flags = judge.judge_node_sets(node_sets, query)
            rows.append(precision_rows(query.query_id, method, flags, cutoffs))
    return rows


# ---------------------------------------------------------------------------
# Observability overhead (the flight-path gate)
# ---------------------------------------------------------------------------
def tiny_config(seed: int = 7) -> WikiKBConfig:
    """A miniature wiki-shaped KB (a few hundred nodes) for smoke runs."""
    return WikiKBConfig(
        name="wiki-tiny-sim",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )


def measure_obs_overhead(
    repeats: int = 5,
    n_queries: int = 3,
    knum: int = 4,
    topk: int = 10,
    seed: int = 5,
    dataset: Optional[BenchDataset] = None,
) -> Dict[str, float]:
    """Best-of timing of a served query with and without flight recording.

    ``SearchService.handle_search`` over one engine, with the serving
    default (a flight recorder of capacity 128) against a recorder of
    capacity 0, on a tiny workload, so CI can watch what recording
    costs a served query.

    Returns:
        ``{"plain_ms", "flight_ms", "flight_ratio"}`` — best-of-``repeats``
        total milliseconds, and recorded/unrecorded.
    """
    from ..obs.flight import FlightRecorder
    from ..service import SearchService

    if dataset is None:
        dataset = build_dataset(tiny_config())
    workload = KeywordWorkload(dataset.index, seed=seed)
    queries = workload.sample_queries(knum, n_queries)
    engine = KeywordSearchEngine(
        dataset.graph,
        index=dataset.index,
        weights=dataset.weights,
        average_distance=dataset.distance.average,
        config=EngineConfig(topk=topk),
    )

    def best_of(capacity: int) -> float:
        service = SearchService(
            engine, flight=FlightRecorder(max_records=capacity, slow_ms=0)
        )
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for query in queries:
                service.handle_search(query, k=topk)
            best = min(best, time.perf_counter() - started)
        return best

    plain = best_of(0)
    flight = best_of(128)
    return {
        "plain_ms": plain * 1e3,
        "flight_ms": flight * 1e3,
        "flight_ratio": flight / plain if plain > 0 else 1.0,
    }
