"""Reference graph algorithms over :class:`KnowledgeGraph`.

These are deliberately simple, obviously-correct implementations. They act
as oracles for the parallel engines in tests and power the
average-distance sampling (Table II) and small-graph utilities.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..instrumentation import hot_path
from .csr import KnowledgeGraph, row_windows

UNREACHED = -1


def bfs_levels(graph: KnowledgeGraph, sources: Iterable[int]) -> np.ndarray:
    """Standard multi-source BFS over the bi-directed adjacency.

    Returns:
        An int32 array of hop distances from the nearest source;
        ``UNREACHED`` (-1) for nodes in other components.
    """
    levels = np.full(graph.n_nodes, UNREACHED, dtype=np.int32)
    queue: deque = deque()
    for source in sources:
        if levels[source] == UNREACHED:
            levels[source] = 0
            queue.append(source)
    while queue:
        node = queue.popleft()
        next_level = levels[node] + 1
        for neighbor in graph.neighbors(node):
            if levels[neighbor] == UNREACHED:
                levels[neighbor] = next_level
                queue.append(int(neighbor))
    return levels


def bfs_levels_vectorized(graph: KnowledgeGraph, sources: Iterable[int]) -> np.ndarray:
    """Level-synchronous multi-source BFS using whole-array kernels.

    Semantically identical to :func:`bfs_levels` (tests enforce it) but
    orders of magnitude faster in CPython; used by distance sampling.
    """
    levels = np.full(graph.n_nodes, UNREACHED, dtype=np.int32)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    if len(frontier) == 0:
        return levels
    levels[frontier] = 0
    indptr = graph.adj.indptr
    indices = graph.adj.indices
    level = 0
    while len(frontier):
        starts = indptr[frontier]
        degrees = indptr[frontier + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            break
        offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
        positions = np.repeat(starts - offsets, degrees) + np.arange(total)
        neighbors = indices[positions].astype(np.int64)
        neighbors = neighbors[levels[neighbors] == UNREACHED]
        if len(neighbors) == 0:
            break
        frontier = np.unique(neighbors)
        level += 1
        levels[frontier] = level
    return levels


def bfs_parents(
    graph: KnowledgeGraph, sources: Iterable[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS returning both levels and one parent per node.

    The parent of a source is itself; unreached nodes keep ``UNREACHED``.
    """
    levels = np.full(graph.n_nodes, UNREACHED, dtype=np.int32)
    parents = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    queue: deque = deque()
    for source in sources:
        if levels[source] == UNREACHED:
            levels[source] = 0
            parents[source] = source
            queue.append(source)
    while queue:
        node = queue.popleft()
        next_level = levels[node] + 1
        for neighbor in graph.neighbors(node):
            if levels[neighbor] == UNREACHED:
                levels[neighbor] = next_level
                parents[neighbor] = node
                queue.append(int(neighbor))
    return levels, parents


def shortest_path(graph: KnowledgeGraph, source: int, target: int) -> Optional[List[int]]:
    """Unweighted shortest path from ``source`` to ``target``, or None."""
    levels, parents = bfs_parents(graph, [source])
    if levels[target] == UNREACHED:
        return None
    path = [target]
    while path[-1] != source:
        path.append(int(parents[path[-1]]))
    path.reverse()
    return path


#: Nodes looked at per step when searching for the next unlabelled node.
_SCAN_BLOCK = 4096
#: Adjacency entries gathered per window of a component BFS level.
_WINDOW_EDGES = 1 << 18


@hot_path
def _label_components(
    graph: KnowledgeGraph, largest_only: bool
) -> Tuple[np.ndarray, int]:
    """Label components by repeated level-synchronous BFS.

    Each BFS starts at the lowest unlabelled node, so labels count
    components in ascending order of their lowest node id — the numbering
    a node-by-node scan gives. With ``largest_only`` the walk stops once
    the best component is at least as large as everything still
    unlabelled (a later component could only tie, and ties go to the
    earlier one); the rest keep ``UNREACHED``.

    Returns:
        ``(labels, label of the largest component)``.
    """
    n = graph.n_nodes
    indptr = graph.adj.indptr
    indices = graph.adj.indices
    degree_array = graph.adj.degree_array
    component = np.full(n, UNREACHED, dtype=np.int64)
    # Scratch for the sort-free frontier dedup below.
    claim = np.empty(n, dtype=np.int64)
    best, best_size = 0, 0
    current = 0
    unlabelled = n
    cursor = 0
    gathered = 0
    while cursor < n:
        free = np.flatnonzero(
            component[cursor:cursor + _SCAN_BLOCK] == UNREACHED
        )
        if len(free) == 0:
            cursor += _SCAN_BLOCK
            continue
        cursor += int(free[0])
        component[cursor] = current
        size = 1
        frontier = np.array([cursor], dtype=np.int64)
        while len(frontier):
            # The frontier expands in windows of about _WINDOW_EDGES
            # adjacency entries, so the temporaries stay that long however
            # wide a level is. A node a window labels is not unlabelled
            # for the windows after it, so each joins the next frontier
            # once. The frontier is kept sorted, so a window reads one
            # stretch of the adjacency, and a store-backed graph releases
            # the pages read once a window's worth has been gathered.
            degrees = degree_array[frontier]
            ends = np.zeros(len(frontier) + 1, dtype=np.int64)
            np.cumsum(degrees, out=ends[1:])
            reached = []
            # One iteration per window of _WINDOW_EDGES entries, not per edge.
            for lo, hi in row_windows(ends, _WINDOW_EDGES):  # noqa: RPR002
                window = frontier[lo:hi]
                first = ends[lo:hi] - ends[lo]
                positions = np.repeat(indptr[window] - first, degrees[lo:hi])
                positions += np.arange(ends[hi] - ends[lo])
                # The stored int32 ids, not the int64 view: on a store that
                # view is 8 bytes per entry of pages nothing else here maps.
                neighbors = indices[positions]
                neighbors = neighbors[component[neighbors] == UNREACHED]
                component[neighbors] = current
                # A node reached over several edges appears several times;
                # the last slot written into ``claim`` keeps exactly one.
                slots = np.arange(len(neighbors))
                claim[neighbors] = slots
                reached.append(neighbors[claim[neighbors] == slots])
                gathered += len(positions)
                if gathered >= _WINDOW_EDGES:
                    graph.release_pages()
                    gathered = 0
            frontier = np.sort(np.concatenate(reached))
            size += len(frontier)
        if size > best_size:
            best, best_size = current, size
        unlabelled -= size
        current += 1
        if largest_only and best_size >= unlabelled:
            break
    return component, best


def connected_components(graph: KnowledgeGraph) -> np.ndarray:
    """Label bi-directed connected components, returning one id per node.

    Components are numbered in ascending order of their lowest node id.
    """
    return _label_components(graph, largest_only=False)[0]


def largest_component_nodes(graph: KnowledgeGraph) -> np.ndarray:
    """Node ids of the largest bi-directed component (sorted ascending).

    Of several equally large components the one holding the lowest node
    id wins.
    """
    component, biggest = _label_components(graph, largest_only=True)
    return np.flatnonzero(component == biggest)


def dijkstra(
    graph: KnowledgeGraph,
    sources: Sequence[int],
    edge_weight: Optional[Dict[Tuple[int, int], float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted single/multi-source shortest paths over the adjacency.

    Args:
        edge_weight: optional map from ``(u, v)`` to weight; missing edges
            default to 1.0. Used by the BANKS baselines, whose scoring is
            distance-based rather than level-based.

    Returns:
        ``(distances, parents)`` arrays (float64 / int64); unreachable nodes
        hold ``inf`` / ``UNREACHED``.
    """
    import heapq

    dist = np.full(graph.n_nodes, np.inf, dtype=np.float64)
    parents = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    heap: List[Tuple[float, int]] = []
    for source in sources:
        if dist[source] > 0.0:
            dist[source] = 0.0
            parents[source] = source
            heapq.heappush(heap, (0.0, int(source)))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor in graph.neighbors(node):
            neighbor = int(neighbor)
            if edge_weight is None:
                weight = 1.0
            else:
                weight = edge_weight.get((node, neighbor), 1.0)
            candidate = d + weight
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return dist, parents


def eccentricity(graph: KnowledgeGraph, node: int) -> int:
    """Largest finite BFS distance from ``node`` (0 for isolated nodes)."""
    levels = bfs_levels(graph, [node])
    reached = levels[levels != UNREACHED]
    return int(reached.max()) if len(reached) else 0


def pairwise_distance_matrix(graph: KnowledgeGraph) -> np.ndarray:
    """All-pairs hop distances; only sensible for small test graphs."""
    n = graph.n_nodes
    matrix = np.full((n, n), UNREACHED, dtype=np.int32)
    for node in range(n):
        matrix[node] = bfs_levels(graph, [node])
    return matrix
