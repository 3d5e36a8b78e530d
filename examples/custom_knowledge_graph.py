"""Index and search your own knowledge graph from RDF-style triples.

Shows the full bring-your-own-data path: build a graph from
``(subject, predicate, object)`` triples, persist it as a ``.csrstore``
and reopen it memory-mapped, and run the engine with per-query
parameters. The triples below
sketch a tiny movie knowledge base.

Run:  python examples/custom_knowledge_graph.py
"""

import os
import tempfile

from repro import KeywordSearchEngine, graph_from_triples
from repro.graph.io import load_graph, save_graph

TRIPLES = [
    # people
    ("ridley_scott", "instance of", "human"),
    ("harrison_ford", "instance of", "human"),
    ("sigourney_weaver", "instance of", "human"),
    ("rutger_hauer", "instance of", "human"),
    # films
    ("blade_runner", "instance of", "film"),
    ("alien", "instance of", "film"),
    ("blade_runner", "director", "ridley_scott"),
    ("alien", "director", "ridley_scott"),
    ("blade_runner", "cast member", "harrison_ford"),
    ("blade_runner", "cast member", "rutger_hauer"),
    ("alien", "cast member", "sigourney_weaver"),
    ("blade_runner", "genre", "science_fiction"),
    ("alien", "genre", "science_fiction"),
    ("alien", "genre", "horror_film"),
    ("blade_runner", "based on", "electric_sheep_novel"),
    ("electric_sheep_novel", "author", "philip_k_dick"),
    ("philip_k_dick", "instance of", "human"),
]

NODE_TEXT = {
    "ridley_scott": "Ridley Scott",
    "harrison_ford": "Harrison Ford",
    "sigourney_weaver": "Sigourney Weaver",
    "rutger_hauer": "Rutger Hauer",
    "blade_runner": "Blade Runner",
    "alien": "Alien",
    "science_fiction": "science fiction",
    "horror_film": "horror film",
    "electric_sheep_novel": "Do Androids Dream of Electric Sheep",
    "philip_k_dick": "Philip K. Dick",
    "human": "human",
    "film": "film",
}


def main() -> None:
    graph = graph_from_triples(TRIPLES, node_text=NODE_TEXT)
    print(f"built graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"{len(graph.predicates)} predicates")

    # Persist and reopen: the store carries the inverted index, the
    # Eq. 2 weights and A, so the engine below computes none of them.
    with tempfile.TemporaryDirectory() as tmp:
        path = save_graph(graph, os.path.join(tmp, "movies"))
        graph = load_graph(path)
        print(f"round-tripped through {os.path.basename(path)}")

        engine = KeywordSearchEngine(graph)
        for query in ("scott ford runner", "alien weaver fiction",
                      "dick androids scott"):
            result = engine.search(query, k=2, alpha=0.2)
            print(f"\nquery: {query!r} → keywords {result.keywords} "
                  f"(dropped {result.dropped_terms or 'none'})")
            for answer in result.answers:
                print(answer.graph.describe(graph.node_text))


if __name__ == "__main__":
    main()
