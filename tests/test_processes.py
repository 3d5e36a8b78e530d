"""Shared-memory multi-process expansion backend."""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.graph.generators import chain_graph, random_graph
from repro.parallel import ProcessPoolBackend, SequentialBackend

from conftest import zero_activation

pytestmark = pytest.mark.skipif(
    not ProcessPoolBackend.is_supported(),
    reason="requires the fork start method",
)


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def _signature(result):
    return (
        sorted(result.central_nodes),
        result.state.matrix.tobytes(),
        result.state.f_identifier.tobytes(),
    )


def test_matches_sequential_on_chain(chain5):
    backend = ProcessPoolBackend(chain5, n_processes=2)
    try:
        parallel = BottomUpSearch(chain5, backend).run(
            _sets([0], [4]), zero_activation(chain5), k=1
        )
    finally:
        backend.close()
    sequential = BottomUpSearch(chain5, SequentialBackend()).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    assert _signature(parallel) == _signature(sequential)


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_matches_sequential_on_random_graphs(seed):
    graph = random_graph(30, 90, seed=seed)
    rng = np.random.default_rng(seed)
    sets = [
        np.unique(rng.integers(0, 30, size=3)),
        np.unique(rng.integers(0, 30, size=2)),
    ]
    activation = rng.integers(0, 3, size=30).astype(np.int32)
    backend = ProcessPoolBackend(graph, n_processes=3)
    try:
        parallel = BottomUpSearch(graph, backend).run(sets, activation, k=4)
    finally:
        backend.close()
    sequential = BottomUpSearch(graph, SequentialBackend()).run(
        sets, activation, k=4
    )
    assert _signature(parallel) == _signature(sequential)


def test_segment_reused_across_queries(chain5):
    backend = ProcessPoolBackend(chain5, n_processes=2)
    try:
        searcher = BottomUpSearch(chain5, backend)
        searcher.run(_sets([0], [4]), zero_activation(chain5), k=1)
        first_segment = backend.pool._segment
        searcher.run(_sets([1], [3]), zero_activation(chain5), k=1)
        assert backend.pool._segment is first_segment
    finally:
        backend.close()


def test_rejects_foreign_graph(chain5):
    other = chain_graph(4)
    backend = ProcessPoolBackend(chain5, n_processes=1)
    try:
        with pytest.raises(ValueError, match="bound to the graph"):
            BottomUpSearch(other, backend).run(
                _sets([0], [3]), zero_activation(other), k=1
            )
    finally:
        backend.close()


def test_validates_arguments(chain5):
    with pytest.raises(ValueError):
        ProcessPoolBackend(chain5, n_processes=0)
    with pytest.raises(ValueError):
        ProcessPoolBackend(chain5, n_processes=1, chunks_per_process=0)


def test_close_releases_resources(chain5):
    backend = ProcessPoolBackend(chain5, n_processes=1)
    BottomUpSearch(chain5, backend).run(
        _sets([0], [4]), zero_activation(chain5), k=1
    )
    backend.close()
    assert backend.pool._segment is None
    assert not backend.pool.alive
