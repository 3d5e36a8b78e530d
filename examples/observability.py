"""Trace a query end to end and inspect the collected telemetry.

Builds the small synthetic KB, runs one traced query, and shows the
three faces of the observability layer:

1. the **flame summary** — the span tree (query → phases → BFS levels →
   expansion chunks) with inclusive milliseconds;
2. the **Chrome trace export** — written to ``query.trace.json``; open
   it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
3. the **metrics registry** — kernel work counters recorded by the
   expansion backends, rendered as Prometheus text.

The equivalent one-liner is ``python -m repro profile "query" --trace
query.trace.json``. An engine with no tracer attached (and none
installed globally) records no spans at all.

Run:  python examples/observability.py
"""

from repro import KeywordSearchEngine, Tracer, get_registry
from repro.graph.generators import wiki_like_kb


def main() -> None:
    graph, _ = wiki_like_kb()
    tracer = Tracer(enabled=True)
    engine = KeywordSearchEngine(
        graph, tracer=tracer
    )

    result = engine.search("knowledge base rdf sparql", k=5)
    print(f"{len(result.answers)} answers, depth {result.depth}, "
          f"{len(tracer.finished_spans())} spans recorded\n")

    print("flame summary:")
    print(tracer.flame_summary(min_ms=0.01))

    tracer.write_chrome_trace("query.trace.json")
    print("\nwrote query.trace.json — load it in https://ui.perfetto.dev")

    # The level spans carry the kernel work counters as attributes ...
    levels = [s for s in tracer.finished_spans() if s.name == "level"]
    expanded = [s for s in levels if "edges_gathered" in s.attrs]
    if expanded:
        span = expanded[0]
        print(f"\nlevel {span.attrs['level']} span attributes: "
              f"{span.attrs}")

    # ... and the same counters accumulate in the process registry,
    # which the HTTP service serves at GET /metrics.
    kernel_lines = [
        line
        for line in get_registry().render_prometheus().splitlines()
        if line.startswith("repro_kernel_")
    ]
    print("\nkernel counters in the metrics registry:")
    for line in kernel_lines:
        print(f"  {line}")


if __name__ == "__main__":
    main()
