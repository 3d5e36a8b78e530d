"""Ablation — the level-cover pruning strategy (Section V-C).

Level-cover keeps keyword nodes contributing many keywords and prunes
redundant single-keyword carriers plus their hitting paths. Two effects
are measured: answers get *smaller* (compactness) and top-k precision
does not degrade (it typically improves, since isolated-keyword carriers
are exactly the split-phrase nodes the judge rejects).
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.engine import EngineConfig, KeywordSearchEngine
from repro.eval.precision import top_k_precision
from repro.eval.queries import canned_queries
from repro.eval.relevance import PhraseCoOccurrenceJudge


def _engine(dataset, level_cover):
    return KeywordSearchEngine(
        dataset.graph,
        config=EngineConfig(apply_level_cover=level_cover),
        index=dataset.index,
        weights=dataset.weights,
        average_distance=dataset.distance.average,
    )


def test_ablation_level_cover(benchmark, wiki2017, write_result):
    judge = PhraseCoOccurrenceJudge(wiki2017.graph)
    queries = list(canned_queries())

    def run():
        stats = {}
        for level_cover in (True, False):
            engine = _engine(wiki2017, level_cover)
            sizes, precisions = [], []
            for query in queries:
                result = engine.search(query.text, k=20)
                sizes += [a.graph.n_nodes for a in result.answers]
                flags = judge.judge_node_sets(
                    [a.graph.nodes for a in result.answers], query
                )
                precisions.append(top_k_precision(flags, 20))
            stats[level_cover] = (
                float(np.mean(sizes)),
                float(np.mean(precisions)),
            )
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    on_size, on_precision = stats[True]
    off_size, off_precision = stats[False]
    write_result(
        "ablation_levelcover",
        "Ablation: level-cover pruning (avg over Q1-Q11, top-20)",
        format_table(
            ["level_cover", "avg_answer_nodes", "mean_precision@20"],
            [["on", on_size, on_precision], ["off", off_size, off_precision]],
        ),
    )
    # Compactness: pruning strictly shrinks answers.
    assert on_size < off_size
    # Precision must not collapse (paper: it helps).
    assert on_precision >= off_precision - 0.05
