"""Benchmark harness: datasets, sweeps, instrumentation, reporting."""

from .datasets import (
    BenchDataset,
    both_datasets,
    build_dataset,
    wiki2017_dataset,
    wiki2018_dataset,
)
from .harness import (
    METHOD_BANKS2,
    METHOD_CPU_PAR,
    METHOD_CPU_PAR_D,
    METHOD_GPU_SIM,
    SweepRow,
    effectiveness_experiment,
    make_engine,
    measure_obs_overhead,
    run_method,
    storage_table,
    vary_alpha,
    vary_knum,
    vary_tnum,
    vary_topk,
)
from ..instrumentation import (
    PhaseTimer,
    StorageReport,
    average_timers,
)
from .reporting import (
    distribution_table_text,
    format_table,
    precision_table,
    sweep_table,
    total_time_table,
)

__all__ = [
    "BenchDataset",
    "METHOD_BANKS2",
    "METHOD_CPU_PAR",
    "METHOD_CPU_PAR_D",
    "METHOD_GPU_SIM",
    "PhaseTimer",
    "StorageReport",
    "SweepRow",
    "average_timers",
    "both_datasets",
    "build_dataset",
    "distribution_table_text",
    "effectiveness_experiment",
    "format_table",
    "make_engine",
    "measure_obs_overhead",
    "precision_table",
    "run_method",
    "storage_table",
    "sweep_table",
    "total_time_table",
    "vary_alpha",
    "vary_knum",
    "vary_tnum",
    "vary_topk",
    "wiki2017_dataset",
    "wiki2018_dataset",
]
