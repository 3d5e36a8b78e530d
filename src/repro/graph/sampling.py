"""Average shortest-distance estimation by pair sampling (Table II).

The paper estimates the average shortest distance ``A`` of each Wikidata
dump by sampling ten thousand node pairs (Table II: A = 3.87 / 3.68 with
deviations 0.81 / 0.98). ``A`` then anchors the Penalty-and-Reward mapping
(Eq. 3-5). This module reproduces that estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import UNREACHED, bfs_levels_vectorized, largest_component_nodes
from .csr import KnowledgeGraph
from .store import stored_json

#: Byte lanes of the expansion kernel's hitting-level matrix.
_SOURCES_PER_PASS = 8


@dataclass(frozen=True)
class DistanceEstimate:
    """Result of sampled average-distance estimation.

    Attributes:
        average: mean hop distance over sampled connected pairs (paper's A).
        deviation: standard deviation of the sampled distances.
        n_sampled: number of pairs actually used (connected pairs only).
        n_requested: number of pairs asked for.
    """

    average: float
    deviation: float
    n_sampled: int
    n_requested: int

    def rounded(self) -> int:
        """``A`` rounded to the nearest integer, as the mapping requires."""
        return int(round(self.average))


def estimate_average_distance(
    graph: KnowledgeGraph,
    n_pairs: int = 10_000,
    seed: int = 0,
    restrict_to_largest_component: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> DistanceEstimate:
    """Estimate the average shortest distance by sampling node pairs.

    Each sampled source runs one BFS; the distance to its paired target is
    recorded when reachable. Restricting to the largest component mirrors
    the paper's intent (disconnected pairs carry no distance signal).

    The BFS runs are eight sources to a pass of the engine's own expansion
    kernel (:func:`repro.parallel.vectorized.lane_bfs_levels`); a pass
    that would outrun the kernel's one-byte levels is redone source by
    source with :func:`~repro.graph.algorithms.bfs_levels_vectorized`.
    Either way the estimate is the one a plain BFS per source gives, bit
    for bit.

    A graph opened from a version-2 ``.csrstore`` returns the estimate the
    store recorded when it was sampled with this ``(n_pairs, seed)`` (and
    no ``rng``, over the largest component): the same numbers.

    Args:
        n_pairs: how many (source, target) pairs to draw.
        seed: RNG seed when ``rng`` is not given; results are deterministic.
        restrict_to_largest_component: sample only within the giant
            component so nearly every pair is connected.

    Raises:
        ValueError: if the graph has fewer than two nodes to pair up.
    """
    if rng is None and restrict_to_largest_component:
        record = stored_json(graph, "distance")
        if (
            record is not None
            and record["estimate"] is not None
            and (record["n_pairs"], record["seed"]) == (n_pairs, seed)
        ):
            return DistanceEstimate(**record["estimate"])
    if graph.n_nodes < 2:
        raise ValueError("need at least two nodes to sample distances")
    if rng is None:
        rng = np.random.default_rng(seed)
    if restrict_to_largest_component:
        pool = largest_component_nodes(graph)
        if len(pool) < 2:
            pool = np.arange(graph.n_nodes, dtype=np.int64)
    else:
        pool = np.arange(graph.n_nodes, dtype=np.int64)

    # Imported here: ``repro.parallel`` (and ``repro.core`` behind it)
    # import this package.
    from ..core.state import INFINITE_LEVEL
    from ..parallel import vectorized

    # Group pairs by source so one BFS serves a whole batch of targets:
    # statistically the same estimator over random pairs, at a fraction of
    # the traversal cost. All draws come first, in a fixed order, so how
    # the traversals are batched below cannot change what is sampled.
    targets_per_source = min(50, max(1, n_pairs))
    n_sources = (n_pairs + targets_per_source - 1) // targets_per_source
    sources = rng.choice(pool, size=n_sources, replace=True)
    targets = []
    remaining = n_pairs
    for _ in range(n_sources):
        batch = min(targets_per_source, remaining)
        remaining -= batch
        targets.append(rng.choice(pool, size=batch, replace=True))
    # Node-sized, like each pass's level matrix: neither is kept while
    # the next pass runs.
    del pool

    # The sources run eight at a time, each as one single-node "keyword"
    # lane of the engine's own expansion kernel, active everywhere.
    everywhere_active = np.zeros(graph.n_nodes, dtype=np.int32)
    distances = []
    for first in range(0, n_sources, _SOURCES_PER_PASS):
        lane_sources = sources[first:first + _SOURCES_PER_PASS]
        matrix = vectorized.lane_bfs_levels(graph, lane_sources, everywhere_active)
        for lane, source in enumerate(lane_sources):
            wanted = targets[first + lane]
            if matrix is None:
                # Somewhere beyond the byte matrix's 254 levels.
                levels = bfs_levels_vectorized(graph, [int(source)])[wanted]
                reached = levels != UNREACHED
            else:
                levels = matrix[wanted, lane]
                reached = levels != INFINITE_LEVEL
            distances.append(levels[reached & (wanted != source)])
        del matrix
    arr = np.concatenate(distances).astype(np.float64)

    if len(arr) == 0:
        return DistanceEstimate(0.0, 0.0, 0, n_pairs)
    return DistanceEstimate(
        average=float(arr.mean()),
        deviation=float(arr.std()),
        n_sampled=len(arr),
        n_requested=n_pairs,
    )
