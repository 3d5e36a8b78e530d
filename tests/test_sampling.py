"""Average-distance sampling (Table II's A and deviation)."""


import numpy as np
import pytest

from repro.graph.algorithms import (
    UNREACHED,
    bfs_levels_vectorized,
    largest_component_nodes,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    chain_graph,
    star_graph,
    wiki2018_config,
    wiki_like_kb,
)
from repro.graph.sampling import DistanceEstimate, estimate_average_distance
from repro.parallel import vectorized


def test_star_graph_average_distance():
    # In a large star, almost every sampled pair is leaf-leaf at distance 2.
    star = star_graph(40)
    estimate = estimate_average_distance(star, n_pairs=400, seed=1)
    assert 1.7 <= estimate.average <= 2.0
    assert estimate.n_sampled > 0
    assert estimate.rounded() == 2


def test_chain_average_within_bounds():
    chain = chain_graph(10)
    estimate = estimate_average_distance(chain, n_pairs=500, seed=2)
    # Expected average pair distance of a 10-path is (n+1)/3 ≈ 3.67.
    assert 2.5 <= estimate.average <= 5.0
    assert estimate.deviation > 0


def test_deterministic_given_seed(tiny_graph):
    a = estimate_average_distance(tiny_graph, n_pairs=200, seed=7)
    b = estimate_average_distance(tiny_graph, n_pairs=200, seed=7)
    assert a == b


def test_different_seeds_differ_slightly(tiny_graph):
    a = estimate_average_distance(tiny_graph, n_pairs=200, seed=1)
    b = estimate_average_distance(tiny_graph, n_pairs=200, seed=2)
    # Estimates agree roughly but the samples differ.
    assert abs(a.average - b.average) < 1.0


def test_requires_two_nodes():
    builder = GraphBuilder()
    builder.add_node("only")
    with pytest.raises(ValueError):
        estimate_average_distance(builder.build(), n_pairs=10)


def test_disconnected_graph_restricted_to_giant_component():
    builder = GraphBuilder()
    for i in range(6):
        builder.add_node(str(i))
    for i in range(4):
        builder.add_edge(i, i + 1, "p")  # path of 5 nodes + 1 isolate
    graph = builder.build()
    estimate = estimate_average_distance(
        graph, n_pairs=100, seed=0, restrict_to_largest_component=True
    )
    assert estimate.n_sampled > 0
    assert estimate.average > 0


# ---------------------------------------------------------------------------
# The batched sampler against one BFS per source
# ---------------------------------------------------------------------------
def _estimate_one_bfs_per_source(graph, n_pairs, seed):
    """The estimator as it was before the sources went through the
    expansion kernel in lanes: same draws, one wide BFS per source."""
    rng = np.random.default_rng(seed)
    pool = largest_component_nodes(graph)
    if len(pool) < 2:
        pool = np.arange(graph.n_nodes, dtype=np.int64)
    targets_per_source = min(50, max(1, n_pairs))
    n_sources = (n_pairs + targets_per_source - 1) // targets_per_source
    sources = rng.choice(pool, size=n_sources, replace=True)
    distances = []
    remaining = n_pairs
    for source in sources:
        batch = min(targets_per_source, remaining)
        remaining -= batch
        targets = rng.choice(pool, size=batch, replace=True)
        levels = bfs_levels_vectorized(graph, [int(source)])
        for target in targets:
            if target != source and levels[target] != UNREACHED:
                distances.append(int(levels[target]))
    if not distances:
        return DistanceEstimate(0.0, 0.0, 0, n_pairs)
    arr = np.asarray(distances, dtype=np.float64)
    return DistanceEstimate(float(arr.mean()), float(arr.std()), len(arr), n_pairs)


def _two_components():
    builder = GraphBuilder()
    for i in range(9):
        builder.add_node(str(i))
    for i in (0, 1, 2, 3):
        builder.add_edge(i, i + 1, "p")  # path 0-4
    for i in (5, 6, 7):
        builder.add_edge(i, i + 1, "p")  # path 5-8
    return builder.build()


_SAMPLED_GRAPHS = {
    "star": lambda: star_graph(40),
    "chain10": lambda: chain_graph(10),
    # Longer than the byte matrix's 254 levels: the per-source fall-back.
    "chain400": lambda: chain_graph(400),
    "disconnected": _two_components,
    "wiki2018-sim": lambda: wiki_like_kb(wiki2018_config())[0],
}


@pytest.fixture(scope="module", params=["tiny", *sorted(_SAMPLED_GRAPHS)])
def sampled_graph(request):
    if request.param == "tiny":
        return request.getfixturevalue("tiny_graph")
    return _SAMPLED_GRAPHS[request.param]()


#: The sampler's two routes: the kernel's byte lanes, and the NumPy
#: BFS per source it falls back to when a pass outlives the byte
#: matrix's 254 levels (forced here on every graph).
@pytest.mark.parametrize("route", ["native", "numpy"])
def test_batched_sampler_equals_one_bfs_per_source(sampled_graph, route, monkeypatch):
    if route == "numpy":
        monkeypatch.setattr(vectorized, "lane_bfs_levels", lambda *args: None)
    big = sampled_graph.n_nodes > 5000
    # 1: a single lane; 49/50/51: around one source's share of targets;
    # 2000: forty sources, i.e. five full passes of eight lanes.
    for n_pairs in (51, 2000) if big else (1, 49, 50, 51, 2000):
        for seed in (0,) if big else (0, 1, 7):
            assert estimate_average_distance(
                sampled_graph, n_pairs=n_pairs, seed=seed
            ) == _estimate_one_bfs_per_source(sampled_graph, n_pairs, seed)


def test_lanes_report_a_frontier_alive_at_the_last_byte_level():
    no_activation = np.zeros(400, dtype=np.int32)
    chain = chain_graph(400)
    assert vectorized.lane_bfs_levels(chain, np.array([0, 399]), no_activation) is None
    # From the middle every node is within 200 hops: no fall-back.
    levels = vectorized.lane_bfs_levels(chain, np.array([199, 200]), no_activation)
    assert np.array_equal(levels[:, 0], bfs_levels_vectorized(chain, [199]))
    assert np.array_equal(levels[:, 1], bfs_levels_vectorized(chain, [200]))
    # The far end of 255 nodes is hit at level 254, the last finite byte,
    # and would expand at a level whose successor is the byte for ∞.
    assert vectorized.lane_bfs_levels(
        chain_graph(255), np.array([0]), no_activation[:255]
    ) is None
    levels = vectorized.lane_bfs_levels(
        chain_graph(254), np.array([0]), no_activation[:254]
    )
    assert levels[:, 0].tolist() == list(range(254))
