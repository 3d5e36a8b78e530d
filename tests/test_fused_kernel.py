"""Cross-backend parity tests for the fused expansion kernel.

The fused single-pass kernel (``repro.parallel.vectorized``) replaces q
sequential per-column passes with one pass over the (E × q) work grid,
optionally through a runtime-compiled C tier. Theorem V.2 says every
scheduling of the idempotent writes converges to the same M — so every
backend, and both kernel tiers, must be *bitwise* identical on M, the
Central Node set and the search depth. This module fuzzes that claim on
a population of hub-heavy wiki-shaped KBs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.check import (
    _guarded_copy,
    check_tail_guard_case,
    tail_guard_cases,
)
from repro.core.activation import activation_levels
from repro.core.bottom_up import BottomUpSearch
from repro.core.weights import node_weights
from repro.graph.generators import WikiKBConfig, wiki_like_kb
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend

N_FUZZ_GRAPHS = 20


def _fuzz_kb(seed: int):
    """A small hub-heavy wiki-shaped KB; venues/orgs are the hubs."""
    config = WikiKBConfig(
        name=f"fuzz-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    return graph


def _fuzz_problem(graph, seed: int, q: int):
    """Keyword node sets, activation and k for one fuzz case."""
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 6))))
        for _ in range(q)
    ]
    if seed % 2:
        # Real Penalty-and-Reward levels: hubs activate late, which
        # exercises the blocked/retry protocol (Algorithm 2 lines 18-20).
        alpha = (0.05, 0.1, 0.4)[seed % 3]
        activation = activation_levels(node_weights(graph), 3.0, alpha)
    else:
        activation = np.zeros(n, dtype=np.int32)
    k = int(rng.integers(1, 12))
    return sets, activation, k


def _run_backend(backend, graph, sets, activation, k):
    with backend:
        return BottomUpSearch(graph, backend=backend).run(sets, activation, k)


@pytest.mark.parametrize("seed", range(N_FUZZ_GRAPHS))
def test_backends_bitwise_identical_on_wiki_graphs(seed):
    """Sequential / ThreadPool / fused Vectorized (both tiers) agree.

    q cycles through 2..8 so every SWAR lane count of the packed
    word path is hit across the population.
    """
    graph = _fuzz_kb(seed)
    q = 2 + seed % 7
    sets, activation, k = _fuzz_problem(graph, seed * 31 + 7, q)

    reference = _run_backend(
        SequentialBackend(), graph, sets, activation, k
    )
    contenders = {
        "threads": ThreadPoolBackend(n_threads=3),
        "vectorized": VectorizedBackend(),
        "vectorized-numpy": VectorizedBackend(native=False),
    }
    for name, backend in contenders.items():
        result = _run_backend(backend, graph, sets, activation, k)
        assert np.array_equal(
            result.state.matrix, reference.state.matrix
        ), f"{name}: M diverged on seed {seed} (q={q})"
        assert sorted(result.central_nodes) == sorted(
            reference.central_nodes
        ), f"{name}: central nodes diverged on seed {seed}"
        assert result.depth == reference.depth, name


def test_backends_agree_on_wide_query():
    """q > 8 falls off the packed-word path; the unpacked path must match."""
    graph = _fuzz_kb(99)
    sets, activation, k = _fuzz_problem(graph, 99, q=11)
    reference = _run_backend(SequentialBackend(), graph, sets, activation, k)
    fused = _run_backend(VectorizedBackend(), graph, sets, activation, k)
    assert np.array_equal(fused.state.matrix, reference.state.matrix)
    assert sorted(fused.central_nodes) == sorted(reference.central_nodes)
    assert fused.depth == reference.depth


@pytest.mark.parametrize("n,q", tail_guard_cases())
def test_tail_rows_match_sequential_level_by_level(n, q):
    """The kernels read a neighbour's row as one 8-byte word at
    ``matrix + v*q``; the last ``ceil(8 / q)`` rows (every row when
    ``n*q < 8``) must be read q bytes wide instead. Hubs sit in those
    rows and seed the keywords, M is exactly ``n*q`` bytes against a
    guard page: ``whole_level_step`` and ``fused_expand`` (one chunk,
    three threads) stay bit-identical to ``SequentialBackend`` on M,
    FIdentifier, finite_count and the Central Nodes after every level.
    """
    assert check_tail_guard_case(n, q) == []


def test_guarded_matrix_ends_against_an_unreadable_page():
    """The corpus above only proves something if the guard is armed."""
    matrix = np.arange(15, dtype=np.uint8).reshape(5, 3)
    guarded = _guarded_copy(matrix)
    assert np.array_equal(guarded, matrix)
    assert guarded.flags.c_contiguous and guarded.flags.writeable
    if guarded.base is None:  # pragma: no cover - host without mprotect
        pytest.skip("no guard page on this host")
    probe = (
        "import ctypes, numpy as np\n"
        "from repro.analysis.check import _guarded_copy\n"
        "m = _guarded_copy(np.zeros((5, 3), dtype=np.uint8))\n"
        "end = m.ctypes.data + m.nbytes\n"
        "assert ctypes.c_uint8.from_address(end - 1).value == 0\n"
        "ctypes.c_uint8.from_address(end).value\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        check=False,
    )
    assert child.returncode < 0, "read one byte past M did not fault"
