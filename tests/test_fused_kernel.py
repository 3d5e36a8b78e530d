"""Cross-backend parity tests for the compiled expansion kernel.

The kernel (``_kernel.c``, through ``repro.parallel.vectorized``)
replaces q sequential per-column passes with one pass over the (E × q)
work grid, carried as ⌈q/8⌉ byte-lane words for every q ≤ 64. Theorem
V.2 says every scheduling of the idempotent writes converges to the same
M — so the whole-level call and the per-chunk call, on one thread or
racing on several, must be *bitwise* identical to the per-node
``SequentialBackend`` on M, the Central Node set and the search depth.
This module fuzzes that claim on a population of hub-heavy wiki-shaped
KBs and on the tail-guard corpus.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import CheckedBackend
from repro.analysis.check import (
    _guarded_copy,
    _tail_guard_case,
    check_tail_guard_case,
    tail_guard_cases,
)
from repro.core.activation import activation_levels
from repro.core.bottom_up import BottomUpSearch
from repro.core.state import INFINITE_LEVEL, SearchState
from repro.core.weights import node_weights
from repro.graph.generators import WikiKBConfig, chain_graph, wiki_like_kb
from repro.instrumentation import KernelCounters, PhaseTimer
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
    """Sequential / ThreadPool / Vectorized agree.

    q cycles through 2..8 so every SWAR lane count of one lane word is
    hit across the population.
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


#: Past one lane word: two words with pad lanes (9, 10, 12), two full
#: words (16), three words (17, 24), four full words (32), eight words
#: (57, 64). The graphs are the tail-guard corpus's — hubs that are
#: keyword sources in the last rows, late activations on every other
#: case — at sizes where ``n * q`` is and is not a multiple of 8.
WIDE_QUERY_CASES = [
    (n, q) for n in (3, 12, 40) for q in (9, 10, 12, 16, 17, 24, 32, 57, 64)
]


def _definition_counters(graph, state, matrix, f_identifier, c_identifier, level):
    """One level of Algorithm 2 counted edge by edge from its definition,
    on the state as it stood before the level's enqueue: the kernel
    counters (live lanes included), and how many ∞ cells a blocked
    neighbour refused (each one keeps its source in the frontier, line
    18-20)."""
    q = state.n_keywords
    central = c_identifier.astype(bool)
    frontier = np.flatnonzero(f_identifier)
    central[frontier[(matrix[frontier] != INFINITE_LEVEL).all(axis=1)]] = True
    counters = KernelCounters()
    scattered = refused = 0
    cells = set()
    for source in frontier.tolist():
        if central[source]:
            continue
        columns = [c for c in range(q) if matrix[source, c] <= level]
        if state.activation[source] > level:
            for column in columns:
                counters.live_lanes |= 1 << column
            continue
        if not columns:
            counters.sources_pruned += 1
            continue
        for target in graph.adj.neighbors(source).tolist():
            counters.edges_gathered += 1
            blocked = (
                not state.keyword_node[target]
                and state.activation[target] > level + 1
            )
            for column in columns:
                if matrix[target, column] != INFINITE_LEVEL:
                    continue
                counters.live_lanes |= 1 << column
                if blocked:
                    refused += 1
                else:
                    scattered += 1
                    cells.add((target, column))
    counters.pairs_hit = len(cells)
    counters.duplicates_elided = scattered - len(cells)
    return counters, refused


def _wide_levels(backend, graph, sets, activation, k, count=False):
    """Run the levels on ``backend``; per level ``(M, FIdentifier,
    finite_count, Central Nodes, frontier size, new hits)``, plus the
    reported kernel counters and :func:`_definition_counters` of every
    expanded level when ``count``."""
    state = SearchState.initialize(graph.n_nodes, sets, activation)
    timer = PhaseTimer()
    rows, reported, defined = [], [], []
    with backend:
        for level in range(INFINITE_LEVEL - 1):
            before = (
                state.matrix.copy(),
                state.f_identifier.copy(),
                state.c_identifier.copy(),
            )
            outcome = backend.run_level(graph, state, level, k, True, timer)
            rows.append(
                (
                    state.matrix.tobytes(),
                    state.f_identifier.tobytes(),
                    state.finite_count.tobytes(),
                    sorted(state.central_nodes),
                    outcome.frontier_size,
                    outcome.new_hits,
                )
            )
            if not outcome.expanded:
                break
            if count:
                reported.append(outcome.counters)
                defined.append(
                    _definition_counters(graph, state, *before, level)
                )
    return rows, reported, defined


@pytest.mark.parametrize("n,q", WIDE_QUERY_CASES)
def test_wide_queries_match_sequential_on_lane_words(n, q):
    """q > 8 runs the same C body as q ≤ 8 over ⌈q/8⌉ lane words per
    row: on the whole-level call and on the per-chunk call (one chunk,
    three racing ones), M, FIdentifier, finite_count, the Central Nodes,
    the frontier size and the new hits equal ``SequentialBackend``'s
    after every level, and the kernel counters — live lanes included —
    equal an edge-by-edge count. Under ``CheckedBackend`` every level
    of the chunk calls passes the per-level invariants."""
    graph, sets, activation, k = _tail_guard_case(n, q)
    want, _, _ = _wide_levels(SequentialBackend(), graph, sets, activation, k)
    assert len(want) > 1, "the case never expanded"

    for name, backend in _hoisted_test_kernels().items():
        got, reported, defined = _wide_levels(
            backend, graph, sets, activation, k, count=True
        )
        assert got == want, name
        assert reported == [counters for counters, _ in defined], name

    for n_threads in (1, 3):
        checked = CheckedBackend(ThreadPoolBackend(n_threads=n_threads))
        got, _, _ = _wide_levels(checked, graph, sets, activation, k)
        assert got == want, n_threads
        assert checked.levels_checked == len(want)
        assert not checked.violations


def test_wide_corpus_blocks_and_retries():
    """The corpus above only covers Algorithm 2 line 18-20 past the
    first lane word if a blocked neighbour refuses cells there."""
    refused = 0
    for n, q in WIDE_QUERY_CASES:
        _, _, defined = _wide_levels(
            VectorizedBackend(), *_tail_guard_case(n, q), count=True
        )
        refused += sum(cells for _, cells in defined)
    assert refused > 0


@pytest.mark.parametrize("q", [9, 16, 17])
def test_retry_decided_past_the_first_lane_word(q):
    """A source eligible in the last column only, next to a neighbour
    that activates late: whether it stays in the frontier (line 18-20)
    is read off the last lane word alone."""
    graph = chain_graph(3)
    sets = [np.array([2])] * (q - 1) + [np.array([0])]
    activation = np.array([0, 3, 0], dtype=np.int32)
    want, _, _ = _wide_levels(SequentialBackend(), graph, sets, activation, 4)
    assert np.frombuffer(want[0][1], dtype=np.uint8).tolist() == [1, 0, 1]
    for backend in (VectorizedBackend(), ThreadPoolBackend(n_threads=1)):
        got, _, _ = _wide_levels(backend, graph, sets, activation, 4)
        assert got == want


def _blocking_star():
    """Source 0 (keyword 0) next to node 1, a keyword-1 source that
    activates at 5, and node 2, a non-keyword node that activates at 5:
    at level 0 both neighbours await activation at level 1."""
    from repro.graph.builder import GraphBuilder

    builder = GraphBuilder()
    for node in range(3):
        builder.add_node(f"node {node}")
    builder.add_edge(0, 1, "r")
    builder.add_edge(0, 2, "r")
    sets = [np.array([0]), np.array([1])]
    activation = np.array([0, 5, 5], dtype=np.int32)
    return builder.build(), sets, activation


def _hoisted_test_kernels():
    """``whole_level_step`` (the native whole level) and ``fused_expand``
    (one chunk, and three racing chunks): the two exports that run the
    per-source body, which tests line 18-20 before the neighbour's row
    load."""
    return {
        "whole-level": VectorizedBackend(),
        "fused-one-chunk": ThreadPoolBackend(n_threads=1),
        "fused-threads": ThreadPoolBackend(n_threads=3),
    }


def test_hoisted_blocked_test_still_hits_a_late_keyword_node():
    """A keyword node may be hit before its activation level (Section
    IV-B), so the blocked test read before the row load must exempt it:
    node 1 gets ``M[1][0] = 1`` at level 0 on both kernels."""
    graph, sets, activation = _blocking_star()
    for name, backend in _hoisted_test_kernels().items():
        state = SearchState.initialize(graph.n_nodes, sets, activation)
        with backend:
            outcome = backend.run_level(graph, state, 0, 5, True, PhaseTimer())
        assert outcome.expanded, name
        assert state.matrix[1].tolist() == [1, 0], name
        assert state.finite_count[1] == 2, name
        assert outcome.new_hits == 1, name


def test_hoisted_blocked_test_keeps_the_source_retrying():
    """Node 2 blocks: its row stays ∞ and source 0 re-flags itself to
    retry the edge (Algorithm 2 line 18-20), on both kernels."""
    graph, sets, activation = _blocking_star()
    for name, backend in _hoisted_test_kernels().items():
        state = SearchState.initialize(graph.n_nodes, sets, activation)
        with backend:
            backend.run_level(graph, state, 0, 5, True, PhaseTimer())
        assert (state.matrix[2] == INFINITE_LEVEL).all(), name
        assert state.f_identifier.tolist() == [1, 1, 0], name
    want, _, _ = _wide_levels(SequentialBackend(), graph, sets, activation, 5)
    for name, backend in _hoisted_test_kernels().items():
        got, _, _ = _wide_levels(backend, graph, sets, activation, 5)
        assert got == want, name


def _blocking_cases():
    """q ≤ 8 cases whose activations block: tail-guard graphs with late
    activations, and wiki-shaped KBs under Penalty-and-Reward levels."""
    for n in (12, 40):
        for q in range(1, 9):
            if (n + q) % 2:
                yield f"tail-{n}-{q}", _tail_guard_case(n, q)
    for seed in (1, 3, 5, 7):
        graph = _fuzz_kb(seed + 100)
        sets, activation, k = _fuzz_problem(graph, seed, 2 + seed % 7)
        yield f"wiki-{seed}", (graph, sets, activation, k)


def test_hoisted_blocked_test_matches_sequential_level_by_level():
    """With line 18-20 decided before the row load, both kernels stay
    bit-identical to ``SequentialBackend`` on M, FIdentifier,
    finite_count and the Central Nodes after every level, and report all
    kernel counters exactly as an edge-by-edge count from the definition
    gives them. Racing chunks included: a scatter either claims its cell
    or finds it stamped, so ``duplicates_elided`` does not depend on the
    schedule."""
    refused = 0
    for case, (graph, sets, activation, k) in _blocking_cases():
        want, _, _ = _wide_levels(
            SequentialBackend(), graph, sets, activation, k
        )
        for name, backend in _hoisted_test_kernels().items():
            got, reported, counted = _wide_levels(
                backend, graph, sets, activation, k, count=True
            )
            assert got == want, (case, name)
            defined = [counters for counters, _ in counted]
            assert reported == defined, (case, name)
        refused += sum(cells for _, cells in counted)
    assert refused > 0  # the corpus does reach the blocked protocol


@pytest.mark.parametrize("n,q", tail_guard_cases())
def test_tail_rows_match_sequential_level_by_level(n, q):
    """The kernels read a neighbour's row as ⌈q/8⌉ 8-byte words from
    ``matrix + v*q``; on the last rows (every row when ``n*q`` is less
    than those words) the last word must be read ``q - 8w`` bytes wide
    instead. Hubs sit in those
    rows and seed the keywords, M is exactly ``n*q`` bytes against a
    guard page: ``whole_level_step`` and ``fused_expand`` (one chunk,
    three threads) stay bit-identical to ``SequentialBackend`` on M,
    FIdentifier, finite_count and the Central Nodes after every level.
    """
    assert check_tail_guard_case(n, q) == []


#: Widths of the eligibility corpus: one lane word with and without pad
#: lanes (1, 7, 8), two words (9, 15, 16) and eight (63, 64).
ELIGIBILITY_Q = (1, 7, 8, 9, 15, 16, 63, 64)


def _eligibility_rows(rng, n, q, level):
    """Random M rows, half their bytes near ``level`` or the 0x7F/0x80
    boundary where a lane compare can go wrong, half anywhere."""
    boundaries = np.array(
        [0, 1, level - 1, level, level + 1, 126, 127, 128, 129, 254, 255]
    )
    near = rng.choice(np.clip(boundaries, 0, 255), size=(n, q))
    anywhere = rng.integers(0, 256, size=(n, q))
    pick = rng.random((n, q)) < 0.5
    return np.where(pick, near, anywhere).astype(np.uint8)


@pytest.mark.parametrize("q", ELIGIBILITY_Q)
def test_eligibility_words_match_the_byte_definition(q):
    """Lane c of a source's eligibility words is set iff M[u][c] <= level,
    byte by byte, on every row of M up to the last (read against a guard
    page), at levels on both sides of 0x80. Two readouts: a source still
    waiting for activation reports exactly its eligible lanes as live,
    and an active one whose only neighbour is unreached hits exactly
    them (and is pruned when there are none)."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    rng = np.random.default_rng(q)
    for n in (1, 2, 3, 9):
        for level in (0, 1, 3, 126, 127, 128, 200, 254):
            rows = _eligibility_rows(rng, n, q, level)
            for u in range(n):
                want = sum(
                    1 << c for c in range(q) if rows[u, c] <= level
                )
                v = (u + 1) % n
                if v == u:
                    indptr = np.zeros(2, dtype=np.int64)
                    indices = np.zeros(0, dtype=np.int32)
                else:
                    rows[v] = INFINITE_LEVEL
                    indptr = np.zeros(n + 1, dtype=np.int64)
                    indptr[u + 1:] = 1
                    indices = np.array([v], dtype=np.int32)
                for waiting in (True, False):
                    matrix = _guarded_copy(rows)
                    activation = np.zeros(n, dtype=np.int32)
                    if waiting:
                        activation[u] = 1000
                    fid = np.zeros(n, dtype=np.uint8)
                    _, (edges, hits, pruned, _, live) = kernel.expand(
                        np.array([u], dtype=np.int64),
                        indptr,
                        indices,
                        matrix.reshape(-1),
                        q,
                        fid,
                        np.zeros(n, dtype=np.uint8),
                        np.zeros(n, dtype=np.uint8),
                        activation,
                        level,
                        False,
                        np.empty(n * q, dtype=np.int64),
                    )
                    case = (n, level, u, waiting)
                    if waiting or v != u:
                        assert live == want, case
                    if not waiting:
                        assert pruned == (want == 0), case
                    if not waiting and v != u and want:
                        assert hits == bin(want).count("1"), case
                        assert edges == 1, case


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
