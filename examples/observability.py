"""Trace a query end to end and inspect the collected telemetry.

Builds the small synthetic KB, runs one query, and shows the three faces
of the observability layer, every one of them read from what the query
returned or what a service counted:

1. the **result's own account** — phase milliseconds, stage two's
   counts and the Fig. 4-style level text;
2. the **Chrome trace** — rendered from the result and written to
   ``query.trace.json``; open it in Perfetto (https://ui.perfetto.dev)
   or ``chrome://tracing``;
3. the **metrics registry** — a search service's ``/metrics``: its
   request counters and the kernel work counters of the queries it
   served, as Prometheus text.

The equivalent one-liner is ``python -m repro profile "query" --trace
query.trace.json``. Rendering happens after the search returns, so a
traced query runs exactly the code any other query runs.

Run:  python examples/observability.py
"""

import json

from repro import KeywordSearchEngine
from repro.core.bottom_up import describe_levels
from repro.graph.generators import wiki_like_kb
from repro.obs.tracing import render_chrome_trace, validate_chrome_trace
from repro.service import SearchService


def main() -> None:
    graph, _ = wiki_like_kb()
    engine = KeywordSearchEngine(graph)

    result = engine.search("knowledge base rdf sparql", k=5)
    print(f"{len(result.answers)} answers, depth {result.depth}\n")
    for phase, ms in result.milliseconds().items():
        print(f"  {phase:28} {ms:8.3f} ms")
    print(f"  stage two: {result.stage_two.as_dict()}\n")
    print(describe_levels(result.level_profile))

    trace = render_chrome_trace(result, k=5)
    validate_chrome_trace(trace)
    with open("query.trace.json", "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    print(f"\nwrote query.trace.json ({len(trace['traceEvents'])} events) — "
          "load it in https://ui.perfetto.dev")

    # The level events carry the kernel work counters as args ...
    levels = [e for e in trace["traceEvents"] if e["name"] == "level"]
    expanded = [e for e in levels if "edges_gathered" in e["args"]]
    if expanded:
        event = expanded[0]
        print(f"\nlevel {event['args']['level']} event args: {event['args']}")

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
