"""Quickstart: search a small knowledge graph with Central Graphs.

Builds the paper's Fig. 1 running example (the query-language subgraph
around ``Query language``), replays the Fig. 4 trace with the exact
activation levels from the paper, then shows a free-form search over a
generated Wikidata-style KB.

Run:  python examples/quickstart.py
"""

from repro import KeywordSearchEngine, SequentialBackend
from repro.graph.generators import fig1_example, wiki_like_kb


def fig1_demo() -> None:
    print("=" * 72)
    print("Part 1 — the paper's Fig. 1 example: query 'xml rdf sql'")
    print("=" * 72)
    example = fig1_example()
    engine = KeywordSearchEngine(example.graph, backend=SequentialBackend())
    # Replay the paper's Fig. 4 trace: explicit activation levels.
    result = engine.search(
        "xml rdf sql", k=1, activation_override=example.activation
    )
    print(f"keywords: {result.keywords}")
    print(f"solved top-(k,d) with d = {result.depth} "
          f"({result.n_central_nodes} Central Node(s))")
    for answer in result.answers:
        print()
        print(answer.graph.describe(example.graph.node_text))
    top = result.answers[0].graph
    assert top.central_node == example.central_node
    print("\nNote the multi-paths: four hitting paths carry 'XML' from "
          "v9, and both v4 and v5 carry 'RDF' — one compact graph-shaped "
          "answer instead of eight repetitive trees.")


def wiki_demo() -> None:
    print()
    print("=" * 72)
    print("Part 2 — free-form search over a generated Wikidata-style KB")
    print("=" * 72)
    graph, _ = wiki_like_kb()
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges")
    engine = KeywordSearchEngine(graph)
    print(f"sampled average distance A = {engine.average_distance:.2f}")

    for query in ("knowledge base rdf sparql", "machine translation gradient"):
        result = engine.search(query, k=3)
        print(f"\nquery: {query!r}  "
              f"(total {result.milliseconds()['total']:.1f} ms, "
              f"d={result.depth})")
        for rank, answer in enumerate(result.answers, start=1):
            graph_answer = answer.graph
            central_text = graph.node_text[graph_answer.central_node]
            print(f"  #{rank} score={answer.score:.4f} "
                  f"nodes={graph_answer.n_nodes} "
                  f"central={central_text!r}")


if __name__ == "__main__":
    fig1_demo()
    wiki_demo()
