"""Explore the α knob: how degree-of-summary preference shapes answers.

Section IV-C's worked example: with a small α the broad ``data mining``
style topic nodes stay dormant (high minimum activation level) and
answers favor specific entities; with a large α the same summary nodes
activate early and start appearing in top answers — useful for users who
*want* overview topics.

This script prints, per α, the Fig. 3 activation-level distribution and
the role mix of the top answers for a topical query.

Run:  python examples/tune_alpha.py
"""

from collections import Counter

from repro import KeywordSearchEngine
from repro.core.activation import activation_distribution
from repro.graph.generators import ROLE_NAMES, wiki_like_kb

QUERY = "data mining information retrieval"
ALPHAS = (0.05, 0.1, 0.4)


def main() -> None:
    graph, metadata = wiki_like_kb()
    engine = KeywordSearchEngine(graph)
    print(f"graph: {graph.n_nodes} nodes; A = {engine.average_distance:.2f}")
    print(f"query: {QUERY!r}\n")

    for alpha in ALPHAS:
        levels = engine.activation_for(alpha)
        distribution = activation_distribution(levels)
        result = engine.search(QUERY, k=50, alpha=alpha)

        roles = Counter()
        first_topic_rank = None
        first_topic_text = None
        for rank, answer in enumerate(result.answers, start=1):
            for node in answer.graph.nodes:
                role = ROLE_NAMES[int(metadata.roles[node])]
                roles[role] += 1
                is_summaryish = role in ("class", "topic", "venue")
                if is_summaryish and first_topic_rank is None:
                    first_topic_rank = rank
                    first_topic_text = graph.node_text[node]

        print(f"--- alpha = {alpha} ---")
        buckets = ", ".join(
            f"{bucket}: {fraction:.0%}"
            for bucket, fraction in distribution.items()
        )
        print(f"  activation levels  ({buckets})")
        print(f"  total time {result.milliseconds()['total']:.1f} ms, "
              f"d={result.depth}, {result.n_central_nodes} central nodes")
        print(f"  answer node roles (top-50): {dict(roles)}")
        if first_topic_rank is None:
            print("  first summary/topic node in answers: none in top-50")
        else:
            print(f"  first summary/topic node in answers: rank "
                  f"{first_topic_rank} ({first_topic_text!r})")
        print()

    print("Expected shape: higher α maps summary/topic nodes to smaller "
          "activation levels (compare the level distributions above), so "
          "the search can traverse them — top-(k,d) completes at a "
          "smaller depth d with many more Central Nodes. Whether a "
          "summary node *ranks* highly still depends on Eq. 6's weight "
          "mass; the paper's §IV-C 'data mining' anecdote plays out on "
          "the full Wikidata ranking.")


if __name__ == "__main__":
    main()
