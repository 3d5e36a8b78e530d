"""Fig. 9 — vary Tnum (thread count) on wiki2017.

Paper shape on a 52-core box: CPU-Par phases accelerate with threads;
CPU-Par-d barely benefits because locked reads/writes serialize it.

Reproduction notes: every Tnum point of a series runs one backend class
— Tnum = 1 is a one-worker ``ThreadPoolBackend``, not the sequential
reference — and CPU-Par's Tnum also threads stage two. The chunk kernel
releases the GIL, so threads can overlap, but the benchmark host exposes
few cores (the count is printed with the table): beyond that many
workers the series documents scheduling-overhead neutrality, not
scaling. EXPERIMENTS.md discusses the substitutions.
"""

import os

from repro.bench.harness import (
    METHOD_CPU_PAR,
    METHOD_CPU_PAR_D,
    vary_tnum,
)
from repro.bench.reporting import sweep_table, total_time_table


def test_fig9_vary_tnum_wiki2017(benchmark, wiki2017, write_result):
    def sweep():
        return vary_tnum(
            wiki2017,
            tnums=(1, 2, 4, 8),
            n_queries=4,
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    write_result(
        "fig9_vary_tnum_wiki2017",
        f"Fig. 9: vary Tnum on wiki2017-sim (avg ms per query; "
        f"host exposes {cores} CPU core(s))",
        sweep_table(rows) + "\n\nTotals:\n" + total_time_table(rows),
    )
    by_key = {(r.method, r.value): r for r in rows}
    for tnum in (1, 4):
        assert (
            by_key[(METHOD_CPU_PAR, tnum)].total_ms
            < by_key[(METHOD_CPU_PAR_D, tnum)].total_ms * 3
        )
