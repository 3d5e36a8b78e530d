"""One ``run_level`` per bottom-up level, three-way parity.

``VectorizedBackend.run_level`` fuses frontier compaction, Central-Node
identification, expansion and the incremental finite-count update into
one native call; every other backend inherits the level composed from
the same steps. Algorithm 1's loop semantics must be preserved
*exactly*: these tests pin the native call, the per-chunk call
(``ThreadPoolBackend``) and ``SequentialBackend`` through the inherited
level to bitwise-equal states and per-level outcomes, and pin the
whole-level/per-chunk work-counter parity (the ``duplicates_elided``
regression: the whole level must count elided duplicate writes, not
report zero).
"""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.core.state import TERMINATED_ENOUGH_ANSWERS
from repro.graph.generators import WikiKBConfig, wiki_like_kb
from repro.graph.io import load_graph, save_graph
from repro.graph.store import open_store, save_store
from repro.instrumentation import (
    PHASE_ENQUEUE,
    PHASE_IDENTIFY,
    KernelCounters,
)
from repro.parallel import (
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)

from conftest import zero_activation


def _fuzz_kb(seed: int):
    config = WikiKBConfig(
        name=f"whole-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    return graph


def _fuzz_problem(graph, seed: int, q: int = 5, k=None):
    """Random keyword sets and activation; ``k`` is drawn in 1..9
    unless given."""
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 5))))
        for _ in range(q)
    ]
    if seed % 2:
        activation = rng.integers(0, 4, size=n).astype(np.int32)
    else:
        activation = zero_activation(graph)
    drawn_k = int(rng.integers(1, 10))
    return sets, activation, drawn_k if k is None else k


def _signature(result):
    return (
        result.state.matrix.tobytes(),
        sorted(result.central_nodes),
        result.state.central_level.tobytes(),
        result.depth,
        result.terminated,
        result.state.finite_count.tolist(),
        [
            (record.frontier_size, record.new_hits, record.new_central)
            for record in result.level_profile
        ],
    )


#: Seeds whose k = 400 search stops on lane closure (fewer than 400
#: Central Nodes exist, and the search ends before its frontier does).
LANE_CLOSURE_SEEDS = [22, 30, 34]


@pytest.mark.parametrize("seed", list(range(8)) + LANE_CLOSURE_SEEDS)
def test_whole_level_three_way_parity(seed):
    """Native run_level == per-chunk kernel == sequential, the last two
    through the inherited level."""
    graph = _fuzz_kb(seed)
    sets, activation, k = _fuzz_problem(
        graph, seed * 13 + 1, k=400 if seed in LANE_CLOSURE_SEEDS else None
    )

    native = BottomUpSearch(graph, backend=VectorizedBackend()).run(
        sets, activation, k
    )
    with ThreadPoolBackend(n_threads=1) as backend:
        chunked = BottomUpSearch(graph, backend=backend).run(
            sets, activation, k
        )
    reference = BottomUpSearch(graph, backend=SequentialBackend()).run(
        sets, activation, k
    )

    assert _signature(native) == _signature(reference)
    assert _signature(chunked) == _signature(reference)


_KERNEL_COUNTER_FIELDS = (
    "edges_gathered",
    "pairs_hit",
    "sources_pruned",
    "duplicates_elided",
)


@pytest.mark.parametrize("seed", range(6))
def test_duplicates_elided_whole_level_chunk_parity(seed, tmp_path):
    """The whole-level call must report the same work counters as the
    per-chunk call, level by level (``duplicates_elided`` once came out
    0), for every lane count q = 1..8 of one lane word and for two and
    three words, on a graph loaded from NPZ and on the same graph
    memory-mapped from a ``.csrstore``.
    """
    generated = _fuzz_kb(seed + 50)
    save_graph(generated, str(tmp_path / "from-npz"))
    save_store(generated, tmp_path / "kb.csrstore", name="whole", seed=seed)
    graphs = {
        "npz": load_graph(str(tmp_path / "from-npz")),
        "csrstore": open_store(tmp_path / "kb.csrstore"),
    }

    def level_counters(graph, backend, sets, activation, k):
        result = BottomUpSearch(graph, backend=backend).run(
            sets, activation, k
        )
        rows = []
        for outcome in result.level_profile:
            kernel = outcome.counters or KernelCounters()
            rows.append(
                {name: getattr(kernel, name) for name in _KERNEL_COUNTER_FIELDS}
            )
        return rows

    totals = dict.fromkeys(_KERNEL_COUNTER_FIELDS, 0)
    for q in (*range(1, 9), 12, 20):
        sets, activation, k = _fuzz_problem(generated, seed * 7 + 3, q=q)
        per_graph = {}
        for form, graph in graphs.items():
            native = level_counters(
                graph, VectorizedBackend(), sets, activation, k
            )
            with ThreadPoolBackend(n_threads=1) as backend:
                chunked = level_counters(
                    graph, backend, sets, activation, k
                )
            assert native == chunked, f"q={q} on the {form} graph"
            per_graph[form] = native
        assert per_graph["npz"] == per_graph["csrstore"], f"q={q}"
        for row in per_graph["npz"]:
            for name, value in row.items():
                totals[name] += value
    assert totals["edges_gathered"] > 0
    assert totals["pairs_hit"] > 0
    assert totals["duplicates_elided"] > 0


#: Node counts around the drain's 8-byte words: every tail length, one
#: word short of, on and past a multiple of 64, and a long run of words.
DRAIN_SIZES = list(range(1, 18)) + [63, 64, 65, 200]


def _drain_patterns(n):
    """FIdentifier patterns: empty, each single node on a word boundary
    or in the tail, every other node, one random half, all nodes."""
    rng = np.random.default_rng(n)
    singles = sorted({0, n - 1, n - n % 8, min(8, n - 1), min(7, n - 1)})
    patterns = [np.zeros(n, dtype=np.uint8)]
    for node in singles:
        if node < n:
            flags = np.zeros(n, dtype=np.uint8)
            flags[node] = 1
            patterns.append(flags)
    alternate = np.zeros(n, dtype=np.uint8)
    alternate[::2] = 1
    half = np.zeros(n, dtype=np.uint8)
    half[rng.permutation(n)[: n // 2]] = 1
    patterns += [alternate, half, np.ones(n, dtype=np.uint8)]
    return patterns


def _drain_arrays(n):
    """``bind_whole_level``'s arguments for an ``n``-node graph with no
    edges and one keyword column, every node unvisited."""
    return dict(
        indptr=np.zeros(n + 1, dtype=np.int64),
        indices=np.zeros(n, dtype=np.int32),
        matrix_flat=np.full(n, 255, dtype=np.uint8),
        q=1,
        f_identifier=np.zeros(n, dtype=np.uint8),
        c_identifier=np.zeros(n, dtype=np.uint8),
        keyword_node_u8=np.zeros(n, dtype=np.uint8),
        activation=np.zeros(n, dtype=np.int32),
        central_level=np.full(n, -1, dtype=np.int16),
        finite_count=np.zeros(n, dtype=np.int32),
        frontier_out=np.empty(n, dtype=np.int64),
        central_out=np.empty(n, dtype=np.int64),
        stats_out=np.zeros(8, dtype=np.int64),
    )


_BOUND_ARRAYS = [name for name in _drain_arrays(2) if name != "q"]


def _wrong_dtype(array):
    return array.astype(np.float32 if array.dtype != np.float32 else np.int8)


def _non_contiguous(array):
    doubled = np.zeros(2 * len(array), dtype=array.dtype)
    return doubled[::2]


def _wrong_ndim(array):
    return array.reshape(1, -1)


@pytest.mark.parametrize("name", _BOUND_ARRAYS)
@pytest.mark.parametrize(
    "spoil", [_wrong_dtype, _non_contiguous, _wrong_ndim],
    ids=["dtype", "non-contiguous", "ndim"],
)
def test_bind_whole_level_rejects_arrays_the_call_would(name, spoil):
    """Binding runs each array's declared ``ndpointer`` check once, and
    raises the ``TypeError`` a per-call check raised: for every one of
    the 12 arrays, a wrong dtype, a strided view or a second axis."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    arrays = _drain_arrays(9)
    kernel.bind_whole_level(**arrays)  # the unspoilt set binds
    arrays[name] = spoil(arrays[name])
    with pytest.raises(TypeError):
        kernel.bind_whole_level(**arrays)


@pytest.mark.parametrize("n", DRAIN_SIZES)
def test_whole_level_drain_is_flatnonzero(n):
    """``whole_level_step``'s word-at-a-time drain returns exactly
    ``np.flatnonzero(FIdentifier)`` and leaves FIdentifier all zero. Both
    arrays sit inside longer buffers: the bytes past ``n`` of FIdentifier
    are flagged and must be neither read nor cleared, and the frontier
    buffer must not be written past index ``n - 1``."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    pad = 16
    for flags in _drain_patterns(n):
        fid_buffer = np.ones(n + pad, dtype=np.uint8)
        fid_buffer[:n] = flags
        frontier_buffer = np.full(n + pad, -7, dtype=np.int64)
        stats = np.zeros(8, dtype=np.int64)
        arrays = _drain_arrays(n)
        arrays.update(
            f_identifier=fid_buffer[:n],
            frontier_out=frontier_buffer[:n],
            stats_out=stats,
        )
        step = kernel.bind_whole_level(**arrays)
        drained = step(
            level=0, central_have=0, k=1, may_expand=False, may_block=False
        )
        want = np.flatnonzero(flags)
        assert drained == stats[0] == len(want), flags
        assert np.array_equal(frontier_buffer[:drained], want), flags
        assert not fid_buffer[:n].any(), flags
        assert fid_buffer[n:].all(), "a flag past n was read or cleared"
        assert (frontier_buffer[n:] == -7).all(), "frontier written past n - 1"
        assert stats[1] == stats[2] == 0


def test_run_level_respects_k_and_termination():
    """run_level must stop expanding once k Central Nodes exist, and the
    loop must report the same termination reason as the classic path."""
    graph = _fuzz_kb(77)
    sets, activation, k = _fuzz_problem(graph, 42, q=3)
    result = BottomUpSearch(graph, backend=VectorizedBackend()).run(
        sets, activation, 1
    )
    if result.terminated == TERMINATED_ENOUGH_ANSWERS:
        assert len(result.central_nodes) >= 1
    reference = BottomUpSearch(graph, backend=SequentialBackend()).run(
        sets, activation, 1
    )
    assert result.terminated == reference.terminated
    assert sorted(result.central_nodes) == sorted(reference.central_nodes)


def test_step_backends_time_their_phases_and_report_like_vectorized():
    """The inherited level charges enqueue and identify to their own
    phases (Fig. 6-7 columns) and reports the same per-level outcome as
    the native call."""
    graph = _fuzz_kb(11)
    sets, activation, k = _fuzz_problem(graph, 27)

    def levels(backend):
        with backend:
            result = BottomUpSearch(graph, backend=backend).run(
                sets, activation, k
            )
        return result, [
            (r.level, r.frontier_size, r.new_hits, r.new_central)
            for r in result.level_profile
        ]

    _, expected = levels(VectorizedBackend())
    assert len(expected) > 1
    for backend in (ThreadPoolBackend(n_threads=2), SequentialBackend()):
        result, got = levels(backend)
        assert got == expected, backend.name
        assert result.timer.get(PHASE_ENQUEUE) > 0, backend.name
        assert result.timer.get(PHASE_IDENTIFY) > 0, backend.name
