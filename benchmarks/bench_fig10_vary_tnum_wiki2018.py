"""Fig. 10 — vary Tnum on wiki2018 (same sweep at twice the scale)."""

from repro.bench.harness import METHOD_CPU_PAR, METHOD_CPU_PAR_D, vary_tnum
from repro.bench.reporting import sweep_table, total_time_table


def test_fig10_vary_tnum_wiki2018(benchmark, wiki2018, write_result):
    def sweep():
        return vary_tnum(
            wiki2018,
            tnums=(1, 2, 4),
            n_queries=3,
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result(
        "fig10_vary_tnum_wiki2018",
        "Fig. 10: vary Tnum on wiki2018-sim (avg ms per query)",
        sweep_table(rows) + "\n\nTotals:\n" + total_time_table(rows),
    )
    assert rows
    assert all(row.total_ms > 0 for row in rows)
