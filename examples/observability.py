"""Trace a query end to end and inspect the collected telemetry.

Builds the small synthetic KB, runs one traced query, and shows the
three faces of the observability layer:

1. the **flame summary** — the span tree (query → phases → BFS levels →
   expansion chunks) with inclusive milliseconds;
2. the **Chrome trace export** — written to ``query.trace.json``; open
   it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
3. the **metrics registry** — a search service's ``/metrics``: its
   request counters and the kernel work counters of the queries it
   served, as Prometheus text.

The equivalent one-liner is ``python -m repro profile "query" --trace
query.trace.json``. An engine with no tracer attached (and none
installed globally) records no spans at all.

Run:  python examples/observability.py
"""

from repro import KeywordSearchEngine, Tracer
from repro.graph.generators import wiki_like_kb
from repro.service import SearchService


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

    # ... and a search service adds each served query's counters, summed
    # over its levels, to its own registry, served at GET /metrics.
    service = SearchService(engine)
    service.handle_path("/search?q=knowledge+base+rdf+sparql&k=5")
    _, _, metrics = service.handle_path("/metrics")
    print("\nthe service's /metrics after one /search:")
    for line in metrics.splitlines():
        if not line.startswith("#") and "_bucket" not in line:
            print(f"  {line}")


if __name__ == "__main__":
    main()
