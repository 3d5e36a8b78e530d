"""``rank_graphs`` — the kernel half of stage two that runs once per
query — against the definitions it replaces: ``deduplicate_by_containment``
(a graph is dropped iff it strictly contains a kept one), Eq. 6 through
``central_graph_score`` and the ``TopKHeap`` order ``(score, n_nodes,
central node)``, and the reference route's edges and keyword
contributions.

Most batches here are built by hand: node sets chosen to nest, overlap
or repeat, raw edge runs with repeated keys and keys that leave the node
set (what a level-cover cut leaves behind). The last tests run the real
route on the stage-two fuzz corpus, pruned and unpruned.
"""

import time
from typing import NamedTuple, Tuple

import numpy as np
import pytest

from repro.core.central_graph import CentralGraph
from repro.core.scoring import TopKHeap, central_graph_score, depth_factor
from repro.core.top_down import (
    TopDownConfig,
    _keyword_contributions,
    deduplicate_by_containment,
    process_top_down,
)
from repro.parallel._native import StageTwoScratch
from repro.parallel.vectorized import _native_kernel

from test_top_down import N_SPREAD_CASES, N_STAGE_TWO_CASES, _stage_two_case

LAM = 0.2


class Spec(NamedTuple):
    """One hand-built graph: its Central Node, depth, node set and raw
    edge run ((pred, target) pairs, repeats and strays allowed)."""

    central: int
    depth: int
    nodes: Tuple[int, ...]
    raw: Tuple[Tuple[int, int], ...] = ()


class Batch(NamedTuple):
    n: int
    specs: Tuple[Spec, ...]
    weights: np.ndarray
    matrix: np.ndarray  # (n, q): 0 where a node is a keyword source


def _batch(n, specs, weights=None, q=3, seed=0):
    rng = np.random.default_rng(seed)
    if weights is None:
        weights = rng.random(n)
    matrix = rng.choice(np.array([0, 1, 2], np.uint8), size=(n, q))
    return Batch(n, tuple(specs), np.asarray(weights, np.float64), matrix)


def _prepare(batch):
    """The bound call and its inputs for ``batch``:
    ``(bound, columns, nodes, edges)``."""
    n, specs = batch.n, batch.specs
    kernel = _native_kernel()
    bound = kernel.bind_stage_two(
        kernel.bind_graph(
            np.zeros(n + 1, np.int64), np.zeros(0, np.int32), batch.weights
        ),
        batch.matrix,
        np.zeros(n, np.int32),
        np.zeros(n, bool),
        np.full(n, -1, np.int16),
    )
    n_depths = max(spec.depth for spec in specs) + 1
    columns = _scratch(np.zeros(n, np.int32)).rank_columns(len(specs), n_depths)
    columns["centrals"][:] = [spec.central for spec in specs]
    columns["depths"][:] = [spec.depth for spec in specs]
    columns["factors"].view(np.float64)[:] = [
        depth_factor(depth, LAM) for depth in range(n_depths)
    ]
    runs = [np.array(sorted(spec.nodes), np.int64) for spec in specs]
    columns["node_counts"][:] = [len(run) for run in runs]
    # The kernel's mass: a left-to-right sum over the ascending run.
    columns["mass"].view(np.float64)[:] = [
        sum(batch.weights[run].tolist(), 0.0) for run in runs
    ]
    keys = [[p * n + t for p, t in spec.raw] for spec in specs]
    columns["edge_counts"][:] = [len(run) for run in keys]
    nodes = np.concatenate(runs)
    edges = np.array([key for run in keys for key in run], np.int64)
    return bound, columns, nodes, edges


def _scratch(marks):
    """A stage-two scratch whose ``marks`` are ``marks``."""
    n = len(marks)
    return StageTwoScratch(
        _native_kernel(), marks=marks, stack=np.empty(n, np.int64),
        members=np.empty(n, np.int64), pairs=np.empty(1, np.int64),
        out_nodes=np.empty(1, np.int64), out_edges=np.empty(1, np.int64),
    )


def _rank(bound, columns, nodes, edges, deduplicate, k, marks, masks):
    """``rank_graphs`` on the runs ``nodes`` / ``edges``, with ``marks``
    as its scratch's."""
    return bound.rank(
        columns, _scratch(marks), deduplicate, k, masks, (nodes, edges)
    )


def _run(batch, k, deduplicate=True):
    """``rank_graphs`` on ``batch``: (ranked, survivors), each ranked
    graph as (central, score, nodes, edges, contributions, whether its
    edge run came back ascending without repeats)."""
    n, specs = batch.n, batch.specs
    bound, columns, nodes, edges = _prepare(batch)
    marks = np.zeros(n, np.int32)
    masks = np.empty(len(nodes), np.uint64)
    survivors = _rank(bound, columns, nodes, edges, deduplicate, k, marks, masks)
    assert not marks.any()

    offsets, edge_offsets = columns["node_offsets"], columns["edge_offsets"]
    scores = columns["scores"].view(np.float64)
    ranked = []
    for index in columns["order"][: min(k, survivors)].tolist():
        start, end = offsets[index], offsets[index + 1]
        run = edges[edge_offsets[index]:][: columns["edge_counts"][index]]
        contributions = {
            int(node): sorted(c for c in range(64) if int(mask) >> c & 1)
            for node, mask in zip(nodes[start:end], masks[start:end])
            if mask
        }
        ranked.append(
            (
                specs[index].central,
                float(scores[index]),
                nodes[start:end].tolist(),
                sorted(zip(*np.divmod(run, n))),
                contributions,
                np.all(np.diff(run) > 0),  # finalised: ascending, no repeats
            )
        )
    return ranked, survivors


def _reference(batch, k, deduplicate=True):
    """The definitions: CentralGraph objects through the reference
    route's dedup, Eq. 6 and TopKHeap."""
    graphs = []
    for spec in batch.specs:
        nodes = set(spec.nodes)
        members = np.array(sorted(nodes), np.int64)
        graphs.append(
            CentralGraph(
                central_node=spec.central,
                depth=spec.depth,
                nodes=nodes,
                edges={
                    (p, t) for p, t in spec.raw if p in nodes and t in nodes
                },
                keyword_contributions=_keyword_contributions(
                    batch.matrix, members
                ),
            )
        )
    if deduplicate:
        graphs = deduplicate_by_containment(graphs)
    for graph in graphs:
        graph.score = central_graph_score(graph, batch.weights, LAM)
    heap = TopKHeap(k)
    heap.extend(graphs)
    return [
        (
            graph.central_node,
            graph.score,
            sorted(graph.nodes),
            sorted(graph.edges),
            {
                node: sorted(columns)
                for node, columns in graph.keyword_contributions.items()
            },
            True,
        )
        for graph in heap.ranked()
    ], len(graphs)


def _assert_matches(batch, k, deduplicate=True):
    got = _run(batch, k, deduplicate)
    assert got == _reference(batch, k, deduplicate)
    return got


def _random_batch(seed, n=90, n_graphs=60, pool=12):
    """Graphs drawn over a small pool of nodes, so containment, equal
    sets and equal sizes are frequent; raw runs repeat keys and carry
    keys with an endpoint outside the graph."""
    rng = np.random.default_rng(seed)
    centrals = rng.choice(n, size=n_graphs, replace=False)
    shared = rng.choice(n, size=pool, replace=False)
    specs = []
    for central in centrals.tolist():
        size = int(rng.integers(0, 5))
        nodes = {central, *rng.choice(shared, size=size).tolist()}
        inside = sorted(nodes)
        raw = [
            (int(rng.choice(inside)), int(rng.choice(inside)))
            for _ in range(int(rng.integers(0, 12)))
        ]
        raw += [(int(rng.integers(n)), central) for _ in range(2)]
        raw += raw[: len(raw) // 2]
        depth = int(rng.integers(1, 6))
        specs.append(Spec(central, depth, tuple(nodes), tuple(raw)))
    return _batch(n, specs, seed=seed)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 5, 1000])
def test_random_batches_match_the_definitions(seed, k):
    batch = _random_batch(seed)
    ranked, survivors = _assert_matches(batch, k)
    assert survivors < len(batch.specs)  # the dedup had something to drop
    assert len(ranked) == min(k, survivors)


@pytest.mark.parametrize("seed", range(4))
def test_without_dedup_every_graph_is_ranked(seed):
    batch = _random_batch(seed)
    ranked, survivors = _assert_matches(batch, 10**6, deduplicate=False)
    assert survivors == len(ranked) == len(batch.specs)


def test_nested_chain_keeps_only_its_smallest_link():
    # A ⊊ B ⊊ C; D overlaps C without containing A.
    specs = [
        Spec(5, 2, (5, 1, 2, 3, 4), ((1, 5), (2, 5), (3, 4), (4, 5))),
        Spec(1, 1, (1, 2)),
        Spec(3, 2, (3, 1, 2), ((1, 3), (2, 3), (2, 3))),
        Spec(7, 1, (7, 3, 4)),
    ]
    ranked, survivors = _assert_matches(_batch(8, specs), 10)
    assert survivors == 2
    assert sorted(central for central, *_ in ranked) == [1, 7]


def test_equal_sets_and_equal_sizes_are_both_kept():
    """Strict containment only: two graphs with the same node set (other
    Central Nodes), and two equal-size graphs that overlap, all stay."""
    specs = [
        Spec(0, 1, (0, 1, 5)),
        Spec(1, 1, (0, 1, 5)),
        Spec(2, 1, (2, 5, 6)),
        Spec(3, 1, (3, 5, 6)),
        Spec(4, 2, (4, 0, 1, 5, 9)),  # strictly contains the first two
    ]
    ranked, survivors = _assert_matches(_batch(10, specs), 10)
    assert survivors == 4
    assert sorted(central for central, *_ in ranked) == [0, 1, 2, 3]


def test_equal_scores_break_on_size_then_central_node():
    """All weights zero: every score is 0.0, so the order is by size,
    then by Central Node — the larger graphs have the smaller ids."""
    specs = [
        Spec(0, 3, (0, 6, 7, 8)),
        Spec(1, 2, (1, 6, 7)),
        Spec(2, 1, (2, 8)),
        Spec(3, 1, (3, 9)),
        Spec(4, 4, (4,)),
        Spec(5, 1, (5, 6, 9)),
    ]
    batch = _batch(10, specs, weights=np.zeros(10))
    ranked, _ = _assert_matches(batch, 10, deduplicate=False)
    assert [central for central, *_ in ranked] == [4, 2, 3, 1, 5, 0]
    assert {score for _, score, *_ in ranked} == {0.0}
    top, _ = _assert_matches(batch, 3, deduplicate=False)
    assert [central for central, *_ in top] == [4, 2, 3]


def test_k_of_one_and_k_past_the_batch():
    batch = _random_batch(99)
    (best,), _ = _assert_matches(batch, 1)
    everything, survivors = _assert_matches(batch, 10**9)
    assert everything[0] == best and len(everything) == survivors


def test_edges_keep_only_keys_between_kept_nodes():
    """A raw run is sorted, deduplicated and cut to the keys whose two
    endpoints are kept nodes."""
    specs = [
        Spec(0, 1, (0, 1, 2), ((2, 1), (1, 0), (2, 1), (3, 1), (2, 4), (1, 0))),
    ]
    (answer,), _ = _assert_matches(_batch(5, specs), 1)
    assert answer[3] == [(1, 0), (2, 1)]


def _pair_batch(n_pairs, descending=True):
    """2·n_pairs graphs: A_i = {a_i, x_i}, B_i = A_i ∪ {b_i, y_i}, so
    every B_i is dropped. Listed largest first, the order that makes an
    insertion sort by size quadratic."""
    n = 4 * n_pairs
    small = [Spec(4 * i, 1 + i % 3, (4 * i, 4 * i + 1)) for i in range(n_pairs)]
    large = [
        Spec(4 * i + 2, 2, (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3))
        for i in range(n_pairs)
    ]
    specs = large + small if descending else small + large
    return _batch(n, specs, seed=n_pairs), small


def test_a_batch_of_twenty_thousand_graphs():
    batch, small = _pair_batch(12_000)
    ranked, survivors = _run(batch, 20)
    assert survivors == len(small)
    want, kept = _reference(
        batch._replace(specs=tuple(small)), 20, deduplicate=False
    )
    assert (ranked, survivors) == (want, kept)


def test_ranking_time_grows_n_log_n_in_the_graph_count():
    """Sizes are ordered by a sort, not by insertion: four times the
    graphs cost well under the sixteen times a quadratic order would."""

    def seconds(n_pairs):
        batch, _ = _pair_batch(n_pairs)
        bound, columns, nodes, edges = _prepare(batch)
        inputs = columns.buffer.copy()
        marks = np.zeros(batch.n, np.int32)
        masks = np.empty(len(nodes), np.uint64)
        best = float("inf")
        for _ in range(3):
            columns.buffer[:] = inputs  # the call rewrites edge counts
            started = time.perf_counter()
            _rank(bound, columns, nodes, edges, True, 20, marks, masks)
            best = min(best, time.perf_counter() - started)
        return best

    assert seconds(40_000) < 10 * seconds(10_000)


# ---------------------------------------------------------------------------
# The real route: pruned and unpruned graphs
# ---------------------------------------------------------------------------
def _answers(graph, state, weights, **config):
    return [
        (
            answer.central_node,
            answer.score,
            sorted(answer.nodes),
            sorted(answer.edges),
            sorted(answer.keyword_contributions.items()),
        )
        for answer in process_top_down(
            graph, state, weights, TopDownConfig(**config)
        )[0]
    ]


@pytest.mark.parametrize("apply_level_cover", [True, False])
def test_ranked_edges_equal_the_reference_route(apply_level_cover):
    """Every graph of the corpus, ranked (dedup off, k past the batch):
    edges and contributions equal the reference route's, whether
    level-cover cut the graph (its run arrives sorted, deduplicated and
    unfiltered) or not (its run arrives raw)."""
    cut = 0
    seeds = (
        *range(0, N_SPREAD_CASES, 7),
        *range(N_SPREAD_CASES, N_STAGE_TWO_CASES),
    )
    for seed in seeds:
        graph, state, weights, _ = _stage_two_case(seed)
        config = dict(
            k=10**6, deduplicate=False, apply_level_cover=apply_level_cover
        )
        batch = _answers(graph, state, weights, **config)
        assert batch == _answers(graph, state, weights, native=False, **config)
        if apply_level_cover:
            raw = _answers(
                graph, state, weights, k=10**6, deduplicate=False,
                apply_level_cover=False,
            )
            cut += sum(
                len(whole[2]) > len(kept[2])
                for whole, kept in zip(sorted(raw), sorted(batch))
            )
    assert cut > 0 or not apply_level_cover


# ---------------------------------------------------------------------------
# Binding: every array is checked where it is bound
# ---------------------------------------------------------------------------
def _wrong_dtype(array):
    return array.astype(np.float32 if array.dtype != np.float32 else np.int8)


def _non_contiguous(array):
    doubled = np.zeros((2 * array.shape[0], *array.shape[1:]), array.dtype)
    return doubled[::2]


def _wrong_ndim(array):
    return array.reshape(1, -1)


SPOILERS = pytest.mark.parametrize(
    "spoil", [_wrong_dtype, _non_contiguous, _wrong_ndim],
    ids=["dtype", "non-contiguous", "ndim"],
)


def _graph_and_state(n=6, q=2):
    return dict(
        indptr=np.zeros(n + 1, np.int64),
        indices=np.zeros(n, np.int32),
        weights=np.ones(n),
        matrix=np.zeros((n, q), np.uint8),
        activation=np.zeros(n, np.int32),
        keyword_node=np.zeros(n, bool),
        central_level=np.full(n, -1, np.int16),
    )


def _bind(indptr, indices, weights, **state):
    kernel = _native_kernel()
    graph = kernel.bind_graph(indptr, indices, weights)
    return kernel.bind_stage_two(graph, **state)


@pytest.mark.parametrize("name", list(_graph_and_state()))
@SPOILERS
def test_binding_rejects_arrays_the_calls_cannot_read(name, spoil):
    arrays = _graph_and_state()
    _bind(**arrays)  # the unspoilt set binds
    arrays[name] = spoil(arrays[name])
    with pytest.raises((TypeError, ValueError)):
        _bind(**arrays)


def _extract_buffers(n=6):
    return dict(
        marks=np.zeros(n, np.int32),
        stack=np.empty(n, np.int64),
        members=np.empty(n, np.int64),
        pairs=np.empty(8, np.int64),
        out_nodes=np.empty(8, np.int64),
        out_edges=np.empty(8, np.int64),
    )


@pytest.mark.parametrize("name", list(_extract_buffers()))
@SPOILERS
def test_extract_binds_its_scratch_with_the_same_checks(name, spoil):
    bound = _bind(**_graph_and_state())
    kernel = _native_kernel()
    buffers = _extract_buffers()
    columns = StageTwoScratch(kernel, **buffers).extract_columns(1)
    columns["centrals"][:] = [0]
    assert bound.extract(columns, True, StageTwoScratch(kernel, **buffers))
    buffers[name] = spoil(buffers[name])
    with pytest.raises((TypeError, ValueError)):
        bound.extract(columns, True, StageTwoScratch(kernel, **buffers))


@pytest.mark.parametrize("name", ["nodes", "edges", "marks", "masks"])
@SPOILERS
def test_rank_binds_its_arrays_with_the_same_checks(name, spoil):
    batch = _batch(6, [Spec(0, 1, (0, 1), ((1, 0), (0, 1)))])
    bound, columns, nodes, edges = _prepare(batch)
    arrays = dict(
        nodes=nodes, edges=edges, marks=np.zeros(6, np.int32),
        masks=np.empty(len(nodes), np.uint64),
    )
    assert _rank(bound, columns, deduplicate=True, k=1, **arrays) == 1
    arrays[name] = spoil(arrays[name])
    with pytest.raises((TypeError, ValueError)):
        _rank(bound, columns, deduplicate=True, k=1, **arrays)


def test_stage_two_reuses_what_the_engine_and_the_whole_level_call_bound():
    """On the production route the graph is bound once per engine and
    the query's state arrays once per query, by the whole-level call,
    whose addresses stage two takes; a state whose arrays were swapped
    since is bound afresh."""
    import dataclasses

    from repro.core.engine import KeywordSearchEngine
    from repro.parallel.vectorized import VectorizedBackend

    graph, state, weights, _ = _stage_two_case(6)
    engine = KeywordSearchEngine(
        graph, backend=VectorizedBackend(), weights=weights,
        average_distance=3.0,
    )
    engine.search("sql rdf", k=3)
    bound_graph = engine._bound_graph
    assert bound_graph.binds(
        graph.adj.indptr, graph.adj.indices, engine.weights
    )
    engine.search("xml sql", k=3)
    assert engine._bound_graph is bound_graph

    whole = state.whole_level
    assert whole is not None
    kernel = _native_kernel()
    bound = kernel.bind_stage_two(
        kernel.bind_graph(graph.adj.indptr, graph.adj.indices, weights),
        state.matrix, state.activation, state.keyword_node,
        state.central_level, whole,
    )
    reused = whole.state_addresses(
        state.matrix, state.activation, state.keyword_node,
        state.central_level,
    )
    assert reused is not None
    assert bound._head[3] == reused[0] and bound._head[5:8] == reused[1:]

    swapped = dataclasses.replace(
        state, central_level=state.central_level.copy()
    )
    assert swapped.whole_level is whole
    assert whole.state_addresses(
        swapped.matrix, swapped.activation, swapped.keyword_node,
        swapped.central_level,
    ) is None
    config = dict(k=10**6, deduplicate=False)
    assert _answers(graph, swapped, weights, **config) == _answers(
        graph, swapped, weights, native=False, **config
    )
