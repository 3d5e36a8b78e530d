"""Out-of-core smoke: query a store under an RSS/heap cap below its size.

Marked ``ooc_smoke`` and deselected by default (``pyproject.toml``); the
dedicated CI job selects it with ``-m ooc_smoke``. It stream-builds a
~160k-node store and forks a rlimit-capped subprocess — a few tens of
seconds.

The claim under test is the whole point of the mmap tier: a process
whose *heap* is hard-capped below the CSR's byte size can still open the
store (read-only file-backed mappings are exempt from ``RLIMIT_DATA``)
and answer queries bitwise-identically to an unconstrained in-RAM run.
The cap counts from the child's own data segment: the interpreter with
NumPy and ``repro`` imported already holds tens of MB of ``VmData``, so
the child measures it and may grow it by ``CAP_FRACTION`` of the CSR
bytes. The child first proves the cap bites — a heap allocation of the
CSR's size must raise ``MemoryError`` — so a pass cannot come from an
unenforced limit; kernels too old to enforce ``RLIMIT_DATA`` (< 4.7)
report themselves and the test skips.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

pytestmark = pytest.mark.ooc_smoke

#: Heap growth allowed past the child's own data segment, as a fraction
#: of the CSR array bytes — comfortably below 1.0 so the "materialize
#: into heap" escape hatch cannot fit.
CAP_FRACTION = 0.85

_CHILD_SCRIPT = """
import hashlib, json, resource, sys

import numpy as np

from repro.core.bottom_up import BottomUpSearch
from repro.graph.store import open_store, read_info

path, fraction = sys.argv[1], float(sys.argv[2])
info = read_info(path)
# The cap counts from this interpreter's own data segment.
with open("/proc/self/status") as status:
    (baseline,) = [
        int(line.split()[1]) * 1024
        for line in status
        if line.startswith("VmData:")
    ]
cap = baseline + int(fraction * info.array_bytes)
resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
try:
    resource.setrlimit(resource.RLIMIT_RSS, (cap, cap))
except (ValueError, OSError):
    pass

# The cap must make a heap copy of the CSR impossible; otherwise this
# host does not enforce RLIMIT_DATA and the smoke proves nothing.
try:
    np.empty(info.array_bytes, dtype=np.uint8)
except MemoryError:
    pass
else:
    print(json.dumps({"status": "limit-unenforced"}))
    sys.exit(0)

graph = open_store(path)  # read-only file-backed maps are exempt
signatures = []
for seed in (3, 11):
    rng = np.random.default_rng(seed)
    sets = [
        np.unique(rng.integers(0, graph.n_nodes, size=4))
        for _ in range(3)
    ]
    result = BottomUpSearch(graph).run(
        sets, np.zeros(graph.n_nodes, dtype=np.int32), k=2
    )
    signatures.append({
        "central_nodes": sorted(
            [int(node), int(level)] for node, level in result.central_nodes
        ),
        "depth": int(result.depth),
        "matrix_sha256": hashlib.sha256(
            result.state.matrix.tobytes()
        ).hexdigest(),
    })
print(json.dumps({
    "status": "ok", "signatures": signatures, "baseline": baseline,
    "cap": cap,
}))
"""


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """Build the store in a child, so ``peak_rss_bytes`` is the
    streaming builder's own peak resident set."""
    path = str(tmp_path_factory.mktemp("ooc") / "smoke.csrstore")
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "build-graph",
            "--scale", "wiki-ooc-smoke", "--out", path, "--json",
        ],
        env=_child_env(), capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return path, json.loads(completed.stdout.strip().splitlines()[-1])


def _unconstrained_signatures(path):
    import hashlib

    from repro.core.bottom_up import BottomUpSearch
    from repro.graph.store import open_store

    graph = open_store(path, mmap=False)  # fully materialized reference
    signatures = []
    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        sets = [
            np.unique(rng.integers(0, graph.n_nodes, size=4))
            for _ in range(3)
        ]
        result = BottomUpSearch(graph).run(
            sets, np.zeros(graph.n_nodes, dtype=np.int32), k=2
        )
        signatures.append({
            "central_nodes": sorted(
                [int(node), int(level)]
                for node, level in result.central_nodes
            ),
            "depth": int(result.depth),
            "matrix_sha256": hashlib.sha256(
                result.state.matrix.tobytes()
            ).hexdigest(),
        })
    return signatures


def test_capped_process_answers_match_unconstrained(smoke_store, tmp_path):
    path, build = smoke_store
    array_bytes = int(build["array_bytes"])
    assert CAP_FRACTION < 1

    script = tmp_path / "capped_query.py"
    script.write_text(_CHILD_SCRIPT, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(script), path, str(CAP_FRACTION)],
        env=_child_env(), capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    if payload["status"] == "limit-unenforced":
        pytest.skip("kernel does not enforce RLIMIT_DATA")
    assert payload["status"] == "ok"
    assert payload["cap"] - payload["baseline"] < array_bytes
    assert payload["signatures"] == _unconstrained_signatures(path)


def _interpreter_peak_rss():
    """Peak RSS of an interpreter that imported the CLI and did nothing."""
    completed = subprocess.run(
        [
            sys.executable, "-c",
            "import resource, repro.cli; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)",
        ],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return int(completed.stdout)


def test_builder_peak_rss_stays_out_of_core(smoke_store):
    """The streaming build's peak RSS must stay well below the CSR size.

    The acceptance bound (< 0.25x) is stated at wiki2018-xl where the
    interpreter baseline is amortized over a 570 MB CSR. At this smoke
    scale (~80 MB CSR, ~37 MB interpreter) what the build adds to the
    interpreter's own peak is checked against the CSR bytes instead: the
    builder's fixed-size windows make that ≈ 0.37x here, and a build that
    holds a CSR-sized array, or a derived-section pass (index, weights,
    A) with edge-sized temporaries, exceeds 0.5x.
    """
    _, build = smoke_store
    assert build["derived_ms"] > 0
    added = build["peak_rss_bytes"] - _interpreter_peak_rss()
    assert added < 0.5 * build["array_bytes"]
