"""SearchState: matrix initialization, frontier enqueue, central detection."""

import numpy as np
import pytest

from repro.core.state import INFINITE_LEVEL, SearchState


def _state(n=6, sets=((0, 1), (2,)), activation=None):
    if activation is None:
        activation = np.zeros(n, dtype=np.int32)
    return SearchState.initialize(
        n, [np.array(s, dtype=np.int64) for s in sets], activation
    )


def test_initialize_sets_sources_and_flags():
    state = _state()
    assert state.n_nodes == 6
    assert state.n_keywords == 2
    assert state.matrix[0, 0] == 0
    assert state.matrix[1, 0] == 0
    assert state.matrix[2, 1] == 0
    assert state.matrix[3, 0] == INFINITE_LEVEL
    assert state.keyword_node[0] and state.keyword_node[2]
    assert not state.keyword_node[3]
    assert list(np.flatnonzero(state.f_identifier)) == [0, 1, 2]


def test_initialize_requires_keywords():
    with pytest.raises(ValueError):
        SearchState.initialize(3, [], np.zeros(3, dtype=np.int32))


def test_initialize_checks_activation_length():
    with pytest.raises(ValueError):
        SearchState.initialize(
            3, [np.array([0])], np.zeros(2, dtype=np.int32)
        )


def test_enqueue_moves_flags_to_frontier_and_clears():
    state = _state()
    count = state.enqueue_frontiers()
    assert count == 3
    assert list(state.frontier) == [0, 1, 2]
    assert state.f_identifier.sum() == 0
    # Second enqueue with no new flags drains to empty.
    assert state.enqueue_frontiers() == 0


def test_identify_central_nodes_requires_full_row():
    state = _state(sets=((0,), (0,)))
    state.enqueue_frontiers()
    found = state.identify_central_nodes(level=0)
    assert found == [(0, 0)]
    assert state.c_identifier[0] == 1
    assert state.n_central_nodes == 1


def test_identify_only_checks_frontier():
    state = _state(sets=((0,), (1,)))
    state.enqueue_frontiers()
    # Complete node 3's row manually, but it is not a frontier.
    state.matrix[3, 0] = 1
    state.matrix[3, 1] = 1
    assert state.identify_central_nodes(0) == []


def test_identify_is_idempotent():
    state = _state(sets=((0,), (0,)))
    state.enqueue_frontiers()
    assert state.identify_central_nodes(0) == [(0, 0)]
    # Re-flag the node; it must not be identified twice.
    state.f_identifier[0] = 1
    state.enqueue_frontiers()
    assert state.identify_central_nodes(1) == []
    assert state.n_central_nodes == 1


def test_identify_empty_frontier():
    state = _state()
    assert state.identify_central_nodes(0) == []


def test_matrix_is_one_byte_per_cell():
    state = _state(n=100, sets=((0,), (1,), (2,)))
    assert state.matrix.dtype == np.uint8
    assert state.matrix.nbytes == 100 * 3


def test_nbytes_accounts_matrix_and_flags():
    state = _state()
    total = state.nbytes()
    assert total >= state.matrix.nbytes + 2 * state.n_nodes


def test_nbytes_is_exact_sum_of_dynamic_arrays():
    """Table IV accounting: every per-query array counts, nothing else.

    The seed undercounted by omitting ``central_level`` (int16) and the
    per-query ``activation`` mapping (int32); pin the exact sum so any
    future array addition must be accounted for deliberately.
    """
    state = _state(n=50, sets=((0, 1), (2,), (3, 4, 5)))
    state.enqueue_frontiers()
    expected = sum(
        array.nbytes
        for array in (
            state.matrix,
            state.f_identifier,
            state.c_identifier,
            state.keyword_node,
            state.central_level,
            state.activation,
            state.finite_count,
            state.frontier,
        )
    )
    assert state.nbytes() == expected
    # central_level (2 B) and activation (4 B) are per-node and were the
    # seed's undercount; the total must reflect them.
    assert state.nbytes() >= state.matrix.nbytes + (1 + 1 + 1 + 2 + 4 + 4) * 50


def _reference_nbytes(state):
    """Table IV's charge of every per-query array, re-walked in full."""
    from repro.graph.store import allocated_nbytes

    return sum(
        allocated_nbytes(array)
        for array in (
            state.matrix,
            state.f_identifier,
            state.c_identifier,
            state.keyword_node,
            state.central_level,
            state.activation,
            state.finite_count,
            state.frontier,
        )
    )


@pytest.mark.parametrize("mapped_activation", [False, True])
def test_peak_state_nbytes_equals_a_full_walk_every_level(
    mapped_activation, tmp_path
):
    """``BottomUpSearch.run`` charges the fixed arrays once per query and
    the frontier per level; the peak must equal re-walking all eight
    arrays at every level, also when ``activation`` is memory-mapped
    (kept as a per-level residency charge)."""
    from repro.analysis.check import _fuzz_case
    from repro.core.bottom_up import BottomUpSearch
    from repro.parallel import SequentialBackend, VectorizedBackend

    def walking(base):
        class Walking(base):
            def run_level(self, graph, state, level, k, may_expand, timer):
                if level == 0:
                    self.walks = [_reference_nbytes(state)]
                outcome = super().run_level(
                    graph, state, level, k, may_expand, timer
                )
                if outcome.expanded:
                    self.walks.append(_reference_nbytes(state))
                return outcome

        return Walking()

    for seed in range(6):
        graph, sets, activation, k = _fuzz_case(seed)
        if mapped_activation:
            path = tmp_path / f"activation-{seed}.bin"
            np.asarray(activation, dtype=np.int32).tofile(path)
            activation = np.memmap(path, dtype=np.int32, mode="r")
        for base in (VectorizedBackend, SequentialBackend):
            backend = walking(base)
            result = BottomUpSearch(graph, backend=backend).run(
                sets, activation, k
            )
            assert result.peak_state_nbytes == max(backend.walks), seed
            assert result.state.nbytes() == _reference_nbytes(result.state)
            _, mapped = result.state.fixed_nbytes()
            assert [id(a) for a in mapped] == (
                [id(result.state.activation)] if mapped_activation else []
            )


def test_initialize_finite_count_matches_matrix_scan():
    """``initialize`` counts finite cells over the flagged source rows
    only; the answer must still be the full-matrix count — with a node
    repeated inside one keyword set, a node in several sets, and a
    one-node set."""
    sets = ((4, 4, 1, 4), (1, 7), (7,), (1, 1), (0, 9, 9))
    state = _state(n=10, sets=sets)
    expected = (state.matrix != INFINITE_LEVEL).sum(axis=1)
    assert state.finite_count.dtype == np.int32
    assert np.array_equal(state.finite_count, expected)
    assert list(expected) == [1, 3, 0, 0, 1, 0, 0, 2, 0, 1]


def _state_from_definition(n, sets):
    """M, FIdentifier, the keyword mask and finite_count built cell by
    cell from the keyword sets, with no shortcut of ``initialize``."""
    matrix = np.full((n, len(sets)), INFINITE_LEVEL, dtype=np.uint8)
    for column, nodes in enumerate(sets):
        for node in nodes.tolist():
            matrix[node, column] = 0
    sources = (matrix == 0).any(axis=1)
    finite_count = np.array(
        [sum(cell != INFINITE_LEVEL for cell in row) for row in matrix.tolist()],
        dtype=np.int32,
    )
    return matrix, sources.astype(np.uint8), sources, finite_count


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64])
def test_initialize_equals_the_definition_on_random_sets(n):
    """``initialize`` touches only the source rows: every array equals a
    build from the definition, ``finite_count`` a full-row recount. Sets
    repeat ids (one cell each) and share nodes across columns, for every
    q from 1 to 17."""
    rng = np.random.default_rng(n)
    repeated = shared = 0
    for q in range(1, 18):
        for _ in range(3):
            sets = [
                rng.integers(0, n, size=int(rng.integers(1, 2 * n + 2)))
                for _ in range(q)
            ]
            repeated += sum(len(s) > len(np.unique(s)) for s in sets)
            activation = rng.integers(0, 4, size=n).astype(np.int32)
            state = SearchState.initialize(n, sets, activation)
            matrix, fid, keyword, finite = _state_from_definition(n, sets)
            shared += int((finite > 1).sum())
            assert np.array_equal(state.matrix, matrix), (n, q)
            assert np.array_equal(state.f_identifier, fid), (n, q)
            assert np.array_equal(state.keyword_node, keyword), (n, q)
            assert state.finite_count.dtype == np.int32
            assert np.array_equal(state.finite_count, finite), (n, q)
            assert not state.c_identifier.any()
            assert (state.central_level == -1).all()
            assert np.array_equal(state.activation, activation)
            assert state.max_activation == int(activation.max())
    assert repeated > 0 and shared > 0


def test_max_activation_is_the_recomputed_maximum_on_the_fuzz_corpus():
    """``max_activation`` replaces a per-level ``activation.max()``: the
    field equals the recomputed value at every level of a search, so
    every ``may_block`` decision is the one the recomputation gave."""
    from repro.analysis.check import _fuzz_case
    from repro.core.bottom_up import BottomUpSearch
    from repro.parallel import VectorizedBackend

    class Spy(VectorizedBackend):
        def __init__(self):
            self.may_block = []

        def run_level(self, graph, state, level, k, may_expand, timer):
            recomputed = int(state.activation.max())
            assert state.max_activation == recomputed
            self.may_block.append(recomputed > level + 1)
            return super().run_level(graph, state, level, k, may_expand, timer)

    blocking_levels = 0
    for seed in range(12):
        graph, sets, activation, k = _fuzz_case(seed)
        spy = Spy()
        BottomUpSearch(graph, backend=spy).run(sets, activation, k)
        assert spy.may_block
        blocking_levels += sum(spy.may_block)
    assert blocking_levels > 0  # the corpus does reach the blocked protocol


def test_max_activation_follows_the_int32_cast_of_an_override():
    """Override arrays (lists, int64) go through the same constructor."""
    state = _state(n=4, sets=((0,), (3,)), activation=[0, 5, 2, 1])
    assert state.activation.dtype == np.int32
    assert state.max_activation == 5
    wide = np.array([7, 0, 0, 0], dtype=np.int64)
    assert _state(n=4, sets=((1,),), activation=wide).max_activation == 7
