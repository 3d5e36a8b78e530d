"""The fresh process that hosts the engine for one launch.

``python3 perf/child.py <job.json>`` sets the engine up the way the CLI
does (``load_graph``, the ``.index`` beside the graph when there is one,
``KeywordSearchEngine(graph, backend=VectorizedBackend())``), answers one
query, checks it, and prints a ``READY`` line — the parent stamps
``setup_s`` when it reads that line. Depending on the job's ``mode`` it
then exits (``setup``), runs the timed closed-loop window with nothing
installed (``timed``), or runs the traced rounds (``traced``). The
result goes to the job's ``out`` file.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple
from urllib.parse import quote

import paths

paths.add_src()

import check  # noqa: E402
import noise  # noqa: E402
import spans  # noqa: E402
from workloads import ALPHA  # noqa: E402

#: Set-up spans, reported as ``<name>_ms`` (0 when the launch did not run it).
SETUP_SPANS = (
    "text.index_build",
    "text.index_load",
    "graph.open",
    "graph.distance_sample",
    "weights.build",
    "activation.build",
    "parallel.kernel_load",
)

#: metric → (span, self time only?), per op of the traced ``engine.search``.
ENGINE_SPANS = {
    "text.parse_ms": ("text.parse", False),
    "parallel.run_level_ms": ("parallel.run_level", False),
    "state.init_ms": ("state.init", False),
    "bottom_up.ms": ("bottom_up", False),
    "bottom_up.self_ms": ("bottom_up", True),
    "top_down.ms": ("top_down", False),
    "top_down.dag_build_ms": ("top_down.dag_build", False),
    "top_down.extract_ms": ("top_down.extract", False),
    "top_down.level_cover_ms": ("top_down.level_cover", False),
    "top_down.dedup_ms": ("top_down.dedup", False),
    "top_down.score_ms": ("top_down.score", False),
    "top_down.self_ms": ("top_down", True),
    "engine.search_ms": ("engine.search", False),
    "engine.self_ms": ("engine.search", True),
}

#: The same, per op of the traced ``SearchService.handle_path``.
SERVICE_SPANS = {
    "service.handle_path_ms": ("service.handle_path", False),
    "service.payload_ms": ("service.payload", False),
    "service.json_ms": ("service.json", False),
}

#: Per-op counts (median over one pass), named as ``spans`` tallies them.
COUNTS = (
    "text.postings",
    "parallel.levels",
    "parallel.edges_gathered",
    "parallel.pairs_hit",
    "parallel.duplicates_elided",
    "state.nbytes",
    "bottom_up.depth",
    "top_down.central_nodes",
    "top_down.extracted_nodes",
)


def set_up(job: dict, recorder):
    from repro.core.engine import KeywordSearchEngine
    from repro.graph.io import load_graph
    from repro.parallel.vectorized import VectorizedBackend
    from repro.text.index_io import load_index

    if recorder is not None:
        spans.install_setup(recorder)
        load_graph = spans.timed(recorder, "graph.open", load_graph)
        load_index = spans.timed(recorder, "text.index_load", load_index)
    path = job["graph"]
    graph = load_graph(path)
    index = None
    if os.path.exists(path + ".index.npz"):
        index = load_index(path + ".index")
    return KeywordSearchEngine(graph, backend=VectorizedBackend(), index=index)


def run_op(engine, entry: dict, k: int):
    """One op: (seconds, summary or error string)."""
    started = perf_counter()
    try:
        result = engine.search(entry["query"], k=k, alpha=ALPHA)
    except Exception as error:  # a failed op is counted, not fatal
        return perf_counter() - started, f"raised {error!r}"
    return perf_counter() - started, check.summarize_result(result)


def timed_window(engine, job: dict) -> dict:
    entries: List[dict] = job["timed"]
    k = job["k"]
    for entry in job["warmup"]:
        run_op(engine, entry, k)
    latencies: List[float] = []
    ops: List[Tuple[int, object]] = []
    deadline = perf_counter() + job["seconds"]
    while perf_counter() < deadline:
        position = len(ops) % len(entries)
        seconds, summary = run_op(engine, entries[position], k)
        latencies.append(seconds)
        ops.append((position, summary))
    # Every run compares all reference-route answers, however far the
    # window got through the list.
    done = {position for position, _ in ops}
    for position, entry in enumerate(entries):
        if "reference" in entry and position not in done:
            ops.append((position, run_op(engine, entry, k)[1]))
    return {
        "latencies_ms": [1e3 * seconds for seconds in latencies],
        "queries": [position for position, _ in ops[: len(latencies)]],
        "check": check.check_ops(ops, entries, k),
        "attempted": len(ops),
    }


def traced_rounds(engine, job: dict, recorder: spans.Recorder) -> dict:
    """Untraced search, traced search and traced ``handle_path``, back to
    back for each query, over the query list for ``seconds`` (at least
    one full pass).

    The three variants of one query run within a few op times of each
    other, so they see the same host regime and their differences
    (tracing overhead, flight-recorder overhead, service shell) are not
    differences between two moments of a noisy host.
    """
    from repro.service import SearchService

    entries: List[dict] = job["timed"]
    k = job["k"]
    n = len(entries)

    def search(entry):
        return check.summarize_result(
            engine.search(entry["query"], k=k, alpha=ALPHA)
        )

    def handle(entry):
        status, _, body = service.handle_path(
            f"/search?q={quote(entry['query'])}&k={k}&alpha={ALPHA}"
        )
        try:
            return check.summarize_response(status, body.encode("utf-8"))
        except ValueError as error:
            return str(error)

    for entry in job["warmup"]:
        search(entry)
    spans.install_query(recorder, engine)
    service = SearchService(engine)  # attaches its flight recorder
    spans.install_service(recorder)
    # (spans on?, flight recorder, call); traced ops get ids 2i / 2i + 1.
    variants = (
        (False, None, search),
        (True, None, search),
        (True, service.flight, handle),
    )
    times: List[List[float]] = [[] for _ in variants]
    all_ops: List[Tuple[int, object]] = []
    deadline = perf_counter() + job["seconds"]
    rounds = 0
    while rounds < n or perf_counter() < deadline:
        position = rounds % n
        for slot, (traced, flight, call) in enumerate(variants):
            recorder.on = traced
            recorder.op = 2 * rounds + slot - 1
            engine.flight = flight
            started = perf_counter()
            summary = call(entries[position])
            times[slot].append(perf_counter() - started)
            all_ops.append((position, summary))
        rounds += 1
    untraced, engine_times, _ = times
    engine_ops = range(0, 2 * rounds, 2)
    service_ops = range(1, 2 * rounds, 2)
    queries = [op % n for op in range(rounds)]

    def calm(op_times):
        return noise.undisturbed(op_times, queries)

    roll = spans.Rollup(recorder)
    first_pass = range(0, 2 * n, 2)  # counts: exactly one pass, so they repeat
    metrics: Dict[str, float] = {}
    for name in SETUP_SPANS:
        metrics[name + "_ms"] = roll.setup_ms(name)
    for ops, table in ((engine_ops, ENGINE_SPANS), (service_ops, SERVICE_SPANS)):
        for metric, (span, self_only) in table.items():
            metrics[metric] = roll.median_ms(ops, n, span, self_only)
    for name in COUNTS:
        metrics[name] = roll.median_count(first_pass, name)
    metrics["service.response_bytes"] = roll.median_count(
        range(1, 2 * n, 2), "service.response_bytes"
    )
    search_s = roll.sum_s(engine_ops, "engine.search")
    gathered = roll.sum_count(first_pass, "parallel.edges_gathered")
    extracted = roll.sum_count(first_pass, "top_down.extracted_graphs")
    metrics.update(
        {
            "latency_ms_p90": 1e3 * statistics.quantiles(calm(untraced), n=10)[-1],
            "graph.resident_mb": engine.graph.memory_report()["resident_nbytes"]
            / 2**20,
            "parallel.useful_ratio": (
                roll.sum_count(first_pass, "parallel.pairs_hit") / gathered
                if gathered
                else 0.0
            ),
            "top_down.kept_ratio": (
                roll.sum_count(first_pass, "top_down.answers") / extracted
                if extracted
                else 0.0
            ),
            "engine.stage2_share": roll.sum_s(engine_ops, "top_down") / search_s,
            "obs.flight_overhead_ms": roll.median_ms(service_ops, n, "engine.search")
            - metrics["engine.search_ms"],
            "trace.residue_share": roll.sum_s(
                engine_ops, "engine.search", self_only=True
            )
            / search_s,
            "trace.overhead_share": statistics.median(calm(engine_times))
            / statistics.median(calm(untraced))
            - 1.0,
        }
    )
    os.makedirs(paths.OUT, exist_ok=True)
    trace_path = os.path.join(paths.OUT, f"trace-{job['workload']}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": job["workload"],
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "ops": {
                    "set-up": spans.SETUP_OP,
                    "engine.search": "even ids",
                    "service.handle_path": "odd ids",
                    "query of op": f"(id // 2) % {n}",
                },
                "spans": recorder.spans,
                "counts": recorder.counts,
            },
            handle,
        )
    return {
        "metrics": metrics,
        "check": check.check_ops(all_ops, entries, k),
        "attempted": len(all_ops),
        "rounds": rounds,
        "trace": trace_path,
    }


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    mode = job["mode"]
    recorder = spans.Recorder() if mode == "traced" else None
    engine = set_up(job, recorder)
    first = job["warmup"][0]
    _, summary = run_op(engine, first, job["k"])
    verdict = check.check_ops([(0, summary)], [first], job["k"])
    print("READY " + json.dumps(verdict), flush=True)
    if mode == "setup":
        return 0
    if mode == "timed":
        result = timed_window(engine, job)
    else:
        result = traced_rounds(engine, job, recorder)
    result["peak_rss_mb"] = paths.peak_rss_mb()
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
