"""Every expansion backend must produce bit-identical search state.

Theorem V.2's lock-free claim rests on idempotent writes: regardless of
scheduling, M and FIdentifier converge to the same values. We check the
sequential reference against the vectorized and threaded backends, and
against the independent naive simulator from conftest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottom_up import BottomUpSearch
from repro.core.activation import activation_levels
from repro.core.weights import node_weights
from repro.graph.generators import random_graph
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend

from conftest import reference_hitting_levels, state_hitting_levels


def _random_problem(data):
    seed = data.draw(st.integers(0, 10_000))
    n = data.draw(st.integers(3, 40))
    m = data.draw(st.integers(n, 4 * n))
    graph = random_graph(n, m, seed=seed)
    q = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed + 1)
    sets = []
    for _ in range(q):
        size = int(rng.integers(1, max(2, n // 4)))
        sets.append(np.unique(rng.integers(0, n, size=size)))
    use_weights = data.draw(st.booleans())
    if use_weights:
        alpha = data.draw(st.sampled_from([0.05, 0.1, 0.4]))
        activation = activation_levels(node_weights(graph), 3.0, alpha)
    else:
        activation = np.zeros(n, dtype=np.int32)
    k = data.draw(st.integers(1, 10))
    return graph, sets, activation, k


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_all_backends_agree_with_reference(data):
    graph, sets, activation, k = _random_problem(data)
    results = {}
    for backend in (
        SequentialBackend(),
        VectorizedBackend(),
        ThreadPoolBackend(n_threads=3),
    ):
        with backend:
            result = BottomUpSearch(graph, backend=backend).run(
                sets, activation, k
            )
        results[backend.name] = result

    reference_hit, reference_centrals = reference_hitting_levels(
        graph, [list(map(int, s)) for s in sets], activation, k
    )
    for name, result in results.items():
        assert state_hitting_levels(result.state) == reference_hit, name
        assert sorted(result.central_nodes) == sorted(reference_centrals), name
        assert result.depth == results["sequential"].depth


def test_threadpool_validates_arguments():
    with pytest.raises(ValueError):
        ThreadPoolBackend(n_threads=0)
    with pytest.raises(ValueError):
        ThreadPoolBackend(n_threads=2, chunks_per_thread=0)


def test_threadpool_single_thread_falls_back(chain5):
    backend = ThreadPoolBackend(n_threads=1)
    with backend:
        result = BottomUpSearch(chain5, backend=backend).run(
            [np.array([0]), np.array([4])],
            np.zeros(5, dtype=np.int32),
            k=1,
        )
    assert (2, 2) in result.central_nodes


def test_vectorized_on_empty_frontier(chain5):
    """A level over a drained frontier must be a no-op, not an indexing
    error."""
    from repro.core.state import SearchState
    from repro.instrumentation import PhaseTimer

    state = SearchState.initialize(
        5, [np.array([0])], np.zeros(5, dtype=np.int32)
    )
    state.f_identifier[:] = 0  # drained: nothing flagged for this level
    matrix = state.matrix.copy()
    outcome = VectorizedBackend().run_level(
        chain5, state, 0, 1, True, PhaseTimer()
    )
    assert outcome.frontier_size == 0 and not outcome.expanded
    assert len(state.frontier) == 0 and not state.central_nodes
    assert np.array_equal(state.matrix, matrix)
    assert not state.f_identifier.any()


def test_backend_context_manager_closes():
    backend = ThreadPoolBackend(n_threads=2)
    with backend as b:
        assert b is backend
    # After close the pool rejects new work.
    with pytest.raises(RuntimeError):
        backend._pool.submit(lambda: None)
