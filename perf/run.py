"""The perf ledger's one command.

Driver contract (one run, last stdout line is one JSON object)::

    python3 perf/run.py --workload engine-deep --seed 7 --seconds 10 --trace 0

Ledger (every workload, untraced then traced, every metric by name)::

    python3 perf/run.py --seed 11            # one full set
    python3 perf/run.py --seed 11 --repeat 3 # spread / median against bounds
    python3 perf/run.py --smoke              # shrunken, < 60 s

``BENCHMARK.json`` is the single list of workloads, metrics, units and
bounds: a run prints exactly the metrics it declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import paths

paths.add_src()

import check  # noqa: E402
import fixtures  # noqa: E402
import httpload  # noqa: E402
import noise  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh processes per run whose launch → first correct answer is timed.
#: The middle one goes on to host the timed window, so the launches sample
#: the host at the start, middle and end of the run; ``setup_s`` is the
#: best of them (the undisturbed time, see :mod:`noise`).
LAUNCHES = 3
#: One closed-loop client. With two, ~1/3 of the seed commit's answers are
#: wrong (``VectorizedBackend._level_buffers`` is shared by the server's
#: request threads and the native call releases the GIL) — see README.
HTTP_CLIENTS = 1
CHILD = os.path.join(paths.PERF, "child.py")


def load_spec() -> dict:
    with open(os.path.join(paths.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def launch_child(job: dict, tag: str) -> Tuple[float, dict, Optional[dict]]:
    """Run ``perf/child.py`` on ``job``; returns (seconds from launch to
    its READY line, its first-answer verdict, its result file if any)."""
    os.makedirs(paths.OUT, exist_ok=True)
    job_path = os.path.join(paths.OUT, f"job-{tag}.json")
    job = dict(job, out=os.path.join(paths.OUT, f"result-{tag}.json"))
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    launched = perf_counter()
    process = subprocess.Popen(
        [sys.executable, CHILD, job_path], stdout=subprocess.PIPE, text=True
    )
    try:
        line = process.stdout.readline()
        ready = perf_counter() - launched
        if not line.startswith("READY "):
            raise RuntimeError(f"perf child failed before its first answer: {line!r}")
        verdict = json.loads(line[len("READY "):])
        if process.wait(timeout=170) != 0:
            raise RuntimeError(f"perf child exited with {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if job["mode"] == "setup":
        return ready, verdict, None
    with open(job["out"], "r", encoding="utf-8") as handle:
        return ready, verdict, json.load(handle)


def window_metrics(calm: List[float]) -> Dict[str, float]:
    """Latency and throughput of one closed-loop caller, from its ops'
    undisturbed times in ms (each op standing for its query's best time,
    see :mod:`noise`)."""
    return {
        "latency_ms_p50": statistics.median(calm),
        "throughput_qps": 1e3 * len(calm) / sum(calm),
    }


def run_engine(workload: wl.Workload, job: dict, seconds: float) -> dict:
    """Untraced in-process run: LAUNCHES cold launches, the middle one
    going on to the timed window so the launches are spread over the run."""
    setups, failed, reasons = [], 0, []
    for number in range(LAUNCHES):
        mode = "timed" if number == LAUNCHES // 2 else "setup"
        ready, verdict, outcome = launch_child(
            dict(job, mode=mode, seconds=seconds), workload.name
        )
        setups.append(ready)
        verdicts = [verdict]
        if outcome is not None:
            result = outcome
            verdicts.append(result["check"])
        for each in verdicts:
            failed += each["failed"]
            reasons += each["reasons"]
    metrics = window_metrics(
        noise.undisturbed(result["latencies_ms"], result["queries"])
    )
    metrics["setup_s"] = min(setups)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return {
        "metrics": metrics,
        "attempted": LAUNCHES + result["attempted"],
        "failed": failed,
        "timed_ops": len(result["latencies_ms"]),
        "reference_compared": result["check"]["reference_compared"],
        "reasons": reasons,
    }


def _round_trips_ms(ops) -> List[float]:
    """Undisturbed round-trip times of ``closed_loop`` ops."""
    return noise.undisturbed([1e3 * op[1] for op in ops], [op[0] for op in ops])


def _summarize_http(ops) -> List[Tuple[int, object]]:
    summaries = []
    for rank, _, status, body in ops:
        try:
            summaries.append((rank, check.summarize_response(status, body)))
        except ValueError as error:
            summaries.append((rank, str(error)))
    return summaries


def run_http(
    workload: wl.Workload, job: dict, seconds: float, seed: int
) -> dict:
    """Untraced serving run: LAUNCHES server launches, the middle one loaded
    by HTTP_CLIENTS closed-loop clients replaying zipf sequences."""
    entries, k = job["timed"], job["k"]
    texts = [entry["query"] for entry in entries]
    first = job["warmup"][0]
    setups, checked = [], []
    for number in range(LAUNCHES):
        server = httpload.Server(job["graph"], first["query"], k)
        try:
            setups.append(server.setup_s)
            checked += check.check_ops(
                _summarize_http([(0, 0.0) + server.first]), [first], k
            )["reasons"]
            if number != LAUNCHES // 2:
                continue
            for entry in job["warmup"]:
                server.fetch(entry["query"], k)
            rng = random.Random(f"{workload.name}:zipf:{seed}")
            sequences = [
                wl.zipf_sequence(len(texts), 4096, rng) for _ in range(HTTP_CLIENTS)
            ]
            window = httpload.closed_loop(server, texts, k, sequences, seconds)
            # Every run compares all reference-route answers, whatever
            # ranks the zipf draw reached.
            seen = {op[0] for op in window["ops"]}
            extra = [
                (rank, 0.0) + server.fetch(entry["query"], k)
                for rank, entry in enumerate(entries)
                if "reference" in entry and rank not in seen
            ]
            peak_rss_mb = paths.peak_rss_mb(server.process.pid)
        finally:
            server.stop()
    verdict = check.check_ops(_summarize_http(window["ops"] + extra), entries, k)
    metrics = window_metrics(_round_trips_ms(window["ops"]))
    metrics["setup_s"] = min(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "metrics": metrics,
        "attempted": LAUNCHES + len(window["ops"]) + len(extra),
        "failed": len(checked) + verdict["failed"],
        "timed_ops": len(window["ops"]),
        "reference_compared": verdict["reference_compared"],
        "reasons": checked + verdict["reasons"],
    }


def run_traced(workload: wl.Workload, job: dict, seconds: float) -> dict:
    """Traced run: the in-process traced passes, plus — on the serving
    workload — one real single-client HTTP pass over the same queries."""
    # Reference-route entries first, so the traced passes compare them all.
    ordered = sorted(job["timed"], key=lambda entry: "reference" not in entry)
    job = dict(job, timed=ordered[: wl.N_TRACED])
    _, verdict, result = launch_child(
        dict(job, mode="traced", seconds=seconds), workload.name + "-traced"
    )
    metrics = result["metrics"]
    attempted = 1 + result["attempted"]
    failed = verdict["failed"] + result["check"]["failed"]
    reasons = verdict["reasons"] + result["check"]["reasons"]
    # The HTTP shell is only measured where it runs; 0 = not on this workload.
    metrics["service.http_overhead_ms"] = 0.0
    metrics["service.client_late_ms_p95"] = 0.0
    if workload.driver == "http":
        entries, k = job["timed"], job["k"]
        server = httpload.Server(job["graph"], job["warmup"][0]["query"], k)
        try:
            window = httpload.closed_loop(
                server,
                [entry["query"] for entry in entries],
                k,
                [list(range(len(entries)))],
                seconds / 3.0,
            )
        finally:
            server.stop()
        http = check.check_ops(_summarize_http(window["ops"]), entries, k)
        attempted += len(window["ops"])
        failed += http["failed"]
        reasons += http["reasons"]
        # Round trips, not the in-process ops the traced child timed.
        calm = _round_trips_ms(window["ops"])
        metrics["latency_ms_p90"] = statistics.quantiles(calm, n=10)[-1]
        metrics["service.http_overhead_ms"] = (
            statistics.median(calm) - metrics["service.handle_path_ms"]
        )
        metrics["service.client_late_ms_p95"] = (
            1e3 * statistics.quantiles(window["gaps_s"], n=20)[-1]
        )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "timed_ops": result["rounds"],
        "reference_compared": result["check"]["reference_compared"],
        "reasons": reasons,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """One run of one workload; the dict the contract's JSON line is cut from."""
    fixtures.ensure(smoke)
    fixture_map, workload_map = fixtures.profile(smoke)
    workload = workload_map[name]
    timed, warmup = wl.select_queries(
        workload, fixtures.load_pool(workload, smoke), seed
    )
    job = {
        "workload": name,
        "graph": fixtures.fixture_path(fixture_map[workload.fixture], smoke),
        "k": workload.k,
        "timed": timed,
        "warmup": warmup,
    }
    calm = [noise.probe()]
    if trace:
        run = run_traced(workload, job, seconds)
    elif workload.driver == "http":
        run = run_http(workload, job, seconds, seed)
    else:
        run = run_engine(workload, job, seconds)
    calm.append(noise.probe())
    run["noise_ratio"] = noise.ratio(calm)
    if trace:
        run["metrics"]["host.noise_ratio"] = run["noise_ratio"]
        run["metrics"]["failed_share"] = run["failed"] / run["attempted"]
    run["correct"] = (
        run["failed"] == 0 and run["reference_compared"] >= wl.N_REFERENCE
    )
    return run


def declared(spec: dict, run: dict, trace: bool) -> Dict[str, dict]:
    """The run's metrics as BENCHMARK.json declares them (name → value, unit)."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    missing = {row["name"] for row in rows} ^ set(run["metrics"])
    if missing:
        raise SystemExit(f"metrics measured and declared differ: {sorted(missing)}")
    return {
        row["name"]: {"value": run["metrics"][row["name"]], "unit": row["unit"]}
        for row in rows
    }


def describe(run: dict) -> str:
    text = (
        f"{run['timed_ops']} timed ops, {run['failed']} of {run['attempted']} "
        f"failed, {run['reference_compared']} compared with the reference "
        f"route, host noise {run['noise_ratio']:.2f}"
    )
    if run["noise_ratio"] > noise.NOISY:
        text += f" — NOISY (> {noise.NOISY}): treat this run's timings with suspicion"
    for reason in run["reasons"]:
        text += f"\n    failed: {reason}"
    return text


def host_line() -> str:
    from repro.parallel._native import load_kernel

    return (
        f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"NumPy {np.__version__}, native kernel "
        f"{'loaded' if load_kernel() is not None else 'NOT loaded (NumPy tier)'}"
    )


def ledger(spec: dict, seed: int, seconds: float, repeat: int, smoke: bool) -> int:
    """Every workload, untraced then traced, ``repeat`` times."""
    print(host_line())
    names = [row["name"] for row in spec["workloads"]]
    history: Dict[Tuple[str, str], List[float]] = {}
    ok = True
    for number in range(repeat):
        for name in names:
            print(f"\n== {name} (seed {seed}, {seconds:g} s, set {number + 1}/{repeat})")
            for trace in (False, True):
                run = run_workload(name, seed, seconds, trace, smoke)
                ok = ok and run["correct"]
                print(f"  {'traced' if trace else 'end-to-end'}: {describe(run)}")
                for metric, cell in declared(spec, run, trace).items():
                    print(f"    {metric:<28} {cell['value']:>14.4f} {cell['unit']}")
                    history.setdefault((metric, name), []).append(cell["value"])
    steady = repeat == 1 or print_spread(spec, names, history)
    print(f"\noutputs correct: {ok}")
    return 0 if ok and steady else 1


def print_spread(spec: dict, names: List[str], history) -> bool:
    """Spread ÷ median per (end-to-end metric, workload) against its bound,
    and whether every per-layer count repeated exactly."""
    print("\n== repeatability (spread = IQR, or max - min under 4 sets)")
    within = True
    for row in spec["end_to_end"]:
        for name in names:
            values = history[(row["name"], name)]
            if len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = q3 - q1
            else:
                spread = max(values) - min(values)
            share = spread / statistics.median(values)
            if row["name"] == "setup_s":
                verdict = "(spread not gated, as in the driver)"
            elif share <= row["bound"]:
                verdict = "ok"
            else:
                verdict = "OVER"
                within = False
            print(
                f"  {row['name']:<16} {name:<14} median "
                f"{statistics.median(values):>10.3f} {row['unit']:<4} spread/median "
                f"{share:6.1%}  bound {row['bound']:.0%}  {verdict}"
            )
    # (response bytes vary: the payload carries timings and a query id)
    drifted = [
        f"{row['name']}@{name}"
        for row in spec["per_layer"]
        if row["unit"] in ("count", "bytes")
        and row["name"] != "service.response_bytes"
        for name in names
        if len(set(history[(row["name"], name)])) > 1
    ]
    print(f"  per-layer counts repeat exactly: {'yes' if not drifted else drifted}")
    return within and not drifted


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds or (1.5 if args.smoke else spec["run_seconds"])
    if args.workload is None:
        return ledger(spec, args.seed, seconds, args.repeat, args.smoke)
    run = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    log(f"{args.workload}: {describe(run)}")
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": declared(spec, run, bool(args.trace)),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
