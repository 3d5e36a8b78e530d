"""Analytics cookbook: traces, batches, redundancy, and DOT export.

Four short recipes on one KB:

1. trace a bottom-up search level by level (the paper's Fig. 4 view);
2. run a query batch with duplicate coalescing;
3. measure answer-list redundancy (the paper's Q11 analysis);
4. export the best answer as GraphViz DOT.

Run:  python examples/answer_analytics.py
"""

import numpy as np

from repro import BatchSearcher, KeywordSearchEngine
from repro.core.bottom_up import BottomUpSearch, describe_levels
from repro.eval.redundancy import most_repeated_nodes, redundancy_stats
from repro.graph.generators import wiki_like_kb
from repro.viz import central_graph_to_dot

QUERY = "knowledge graph sparql query"


def main() -> None:
    graph, _ = wiki_like_kb()
    engine = KeywordSearchEngine(graph)

    # -- 1. trace the bottom-up stage -----------------------------------
    print("=== 1. level-by-level trace ===")
    pairs = engine.index.query_node_sets(QUERY)
    sets = [nodes for _, nodes in pairs if len(nodes)]
    bottom_up = BottomUpSearch(graph).run(
        sets, engine.activation_for(0.1), k=20
    )
    print(describe_levels(bottom_up.level_profile))

    # -- 2. batch execution ----------------------------------------------
    print("\n=== 2. batch execution ===")
    queries = [QUERY, "machine translation", QUERY, "gradient descent"]
    report = BatchSearcher(engine, n_workers=2).run(queries, k=5)
    print(f"{len(queries)} queries ({report.unique_queries} unique), "
          f"{report.n_answered} answered, "
          f"mean {report.mean_milliseconds():.1f} ms/query")

    # -- 3. redundancy analysis ------------------------------------------
    print("\n=== 3. answer-list redundancy (top-20) ===")
    result = engine.search(QUERY, k=20)
    node_sets = [answer.graph.nodes for answer in result.answers]
    stats = redundancy_stats(node_sets)
    print(f"answers: {stats.n_answers}; most-repeated node appears in "
          f"{stats.max_node_repetition} answers; "
          f"mean pairwise Jaccard {stats.mean_pairwise_jaccard:.3f}")
    for node, count in most_repeated_nodes(node_sets, k=3):
        print(f"  x{count}: {graph.node_text[node]!r}")

    # -- 4. DOT export ----------------------------------------------------
    print("\n=== 4. GraphViz export ===")
    dot = central_graph_to_dot(
        result.answers[0].graph, graph, result.keywords
    )
    path = "/tmp/central_graph.dot"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dot + "\n")
    print(f"wrote {len(dot.splitlines())} DOT lines to {path}")
    print("render with: dot -Tsvg /tmp/central_graph.dot -o answer.svg")


if __name__ == "__main__":
    main()
