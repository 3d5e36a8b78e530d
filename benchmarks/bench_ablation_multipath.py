"""Ablation — multi-path Central Graphs vs tree-shaped answers (Fig. 1).

The paper motivates graph-shaped answers by expressiveness: one Central
Graph with multi-paths conveys what several repetitive trees would. The
ablation restricts extraction to a single hitting path per keyword
(tree-shaped) and measures the loss in per-answer keyword-carrier
richness and in precision (fewer carriers → fewer chances that a phrase
co-occurs inside the answer).
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.engine import EngineConfig, KeywordSearchEngine
from repro.eval.precision import top_k_precision
from repro.eval.queries import canned_queries
from repro.eval.relevance import PhraseCoOccurrenceJudge


def _engine(dataset, single_path):
    return KeywordSearchEngine(
        dataset.graph,
        config=EngineConfig(single_path=single_path),
        index=dataset.index,
        weights=dataset.weights,
        average_distance=dataset.distance.average,
    )


def test_ablation_multipath(benchmark, wiki2017, write_result):
    judge = PhraseCoOccurrenceJudge(wiki2017.graph)
    queries = list(canned_queries())

    def run():
        stats = {}
        for single_path in (False, True):
            engine = _engine(wiki2017, single_path)
            carriers, precisions = [], []
            for query in queries:
                result = engine.search(query.text, k=20)
                carriers += [
                    len(a.graph.keyword_contributions) for a in result.answers
                ]
                flags = judge.judge_node_sets(
                    [a.graph.nodes for a in result.answers], query
                )
                precisions.append(top_k_precision(flags, 20))
            stats[single_path] = (
                float(np.mean(carriers)),
                float(np.mean(precisions)),
            )
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    multi_carriers, multi_precision = stats[False]
    tree_carriers, tree_precision = stats[True]
    write_result(
        "ablation_multipath",
        "Ablation: multi-path Central Graphs vs single-path trees",
        format_table(
            ["answers", "avg_keyword_carriers", "mean_precision@20"],
            [
                ["multi-path (Central Graph)", multi_carriers, multi_precision],
                ["single-path (tree)", tree_carriers, tree_precision],
            ],
        ),
    )
    # Multi-path answers carry at least as many keyword nodes.
    assert multi_carriers >= tree_carriers
    assert multi_precision >= tree_precision - 0.05
