"""Self-test of the perf ledger on shrunken fixtures (< 60 s).

Outside tier-1 ``testpaths``; run with
``python3 -m pytest perf/test_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
RUN = os.path.join(PERF, "run.py")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_ledger_prints_exactly_the_declared_names():
    spec = _spec()
    done = subprocess.run(
        [sys.executable, RUN, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "outputs correct: True" in done.stdout
    printed = {}
    for line in done.stdout.splitlines():
        header = re.match(r"== (\S+) \(", line)
        if header:
            current = printed.setdefault(header.group(1), [])
        metric = re.match(r"    (\S+)\s+-?[\d.]+ \S+$", line)
        if metric:
            current.append(metric.group(1))
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert list(printed) == [w["name"] for w in spec["workloads"]]
    for workload, names in printed.items():
        assert names == declared, workload


def test_contract_line_and_refusal_without_the_program(tmp_path):
    spec = _spec()
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", "service-short",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]

    # A directory with only the benchmark in it: nothing to measure.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf",
        ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"),
    )
    alone = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "engine-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert alone.returncode != 0
    assert alone.stdout == ""
