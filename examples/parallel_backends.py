"""Benchmark the expansion backends against each other on one KB.

The paper's Algorithm 1 is backend-agnostic; the expansion step plugs
into GPU warps, OpenMP threads, or a single core. This script runs the
same query batch through every backend of the reproduction and prints a
per-phase table — a miniature Fig. 6 — plus a cross-check that all
backends returned identical answers (Theorem V.2's determinism).

Run:  python examples/parallel_backends.py
"""

from repro import (
    KeywordSearchEngine,
    LockedDictEngine,
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)
from repro.eval.queries import KeywordWorkload
from repro.graph.generators import wiki_like_kb
from repro.instrumentation import average_timers


def main() -> None:
    graph, _ = wiki_like_kb()
    reference = KeywordSearchEngine(graph, backend=SequentialBackend())
    workload = KeywordWorkload(reference.index, seed=13)
    queries = workload.sample_queries(6, 5)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges; "
          f"{len(queries)} queries of 6 keywords\n")

    backends = [
        ("sequential (reference)", SequentialBackend()),
        ("thread pool (CPU-Par)", ThreadPoolBackend(n_threads=4)),
        ("vectorized (GPU-Par analogue)", VectorizedBackend()),
    ]
    signatures = {}
    print(f"{'backend':32} {'expand_ms':>10} {'topdown_ms':>11} {'total_ms':>9}")
    for name, backend in backends:
        engine = KeywordSearchEngine(
            graph,
            backend=backend,
            index=reference.index,
            weights=reference.weights,
            average_distance=reference.average_distance,
        )
        timers, answer_sets = [], []
        for query in queries:
            result = engine.search(query, k=10)
            timers.append(result.timer)
            answer_sets.append(
                tuple(a.graph.central_node for a in result.answers)
            )
        backend.close()
        ms = average_timers(timers)
        signatures[name] = answer_sets
        print(f"{name:32} {ms['expansion']:10.2f} "
              f"{ms['top_down_processing']:11.2f} {ms['total']:9.2f}")

    # The locked dynamic-memory variant (CPU-Par-d) for contrast.
    locked = LockedDictEngine(
        graph, reference.weights, reference.index, n_threads=4
    )
    timers, answer_sets = [], []
    for query in queries:
        result = locked.search(query, reference.activation_for(0.1), k=10)
        timers.append(result.timer)
        answer_sets.append(tuple(a.graph.central_node for a in result.answers))
    ms = average_timers(timers)
    signatures["locked dicts (CPU-Par-d)"] = answer_sets
    print(f"{'locked dicts (CPU-Par-d)':32} {ms['expansion']:10.2f} "
          f"{ms['top_down_processing']:11.2f} {ms['total']:9.2f}")

    unique = {tuple(map(tuple, s)) for s in signatures.values()}
    print(f"\nall backends agree on every answer: {len(unique) == 1}")

    # Per-level expansion profile of one query through the fused kernel —
    # the paper's Fig. 6/7 phase breakdowns resolved per BFS level.
    engine = KeywordSearchEngine(
        graph,
        index=reference.index,
        weights=reference.weights,
        average_distance=reference.average_distance,
    )
    result = engine.search(queries[0], k=10)
    print(f"\nper-level profile of {queries[0]!r} "
          f"(d={result.depth}, {result.n_central_nodes} central nodes):")
    print(f"{'level':>5} {'frontier':>9} {'edges':>9} "
          f"{'new_hits':>9} {'new_central':>12}")
    for record in result.level_profile:
        print(f"{record.level:5d} {record.frontier_size:9d} "
              f"{record.edges_scanned:9d} {record.new_hits:9d} "
              f"{len(record.new_central):12d}")


if __name__ == "__main__":
    main()
