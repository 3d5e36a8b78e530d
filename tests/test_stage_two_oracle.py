"""Batch route vs. reference route vs. the definition-level oracle.

Every ranked answer's Central Node, score (``==``, not ``approx``: the
weight mass is one left-to-right double addition over ascending node ids
on all three, and pool rankings carry runs of equal scores that a
last-ulp difference reorders), node set, edge set, keyword contributions
and ``pruned`` flag, over the stage-two fuzz corpus.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core.scoring import DEFAULT_LAMBDA
from repro.core.top_down import TopDownConfig, process_top_down

import stage_two_oracle as oracle
from test_top_down import N_STAGE_TWO_CASES, _signature, _stage_two_case

SWITCHES = [(True, True), (True, False), (False, True), (False, False)]


@functools.lru_cache(maxsize=None)
def _oracle_ranking(seed, level_cover, deduplicate, mutation=None):
    """Every answer the oracle keeps, best first (its top k is a prefix)."""
    graph, state, weights, _ = _stage_two_case(seed)
    return _signature(  # OracleAnswer has CentralGraph's field names
        oracle.stage_two(
            graph,
            state,
            weights,
            k=len(state.central_nodes) + 1,
            lam=DEFAULT_LAMBDA,
            apply_level_cover=level_cover,
            deduplicate=deduplicate,
            mutation=mutation,
        )
    )


def _engine(seed, level_cover, deduplicate, k, **config):
    graph, state, weights, _ = _stage_two_case(seed)
    return _signature(
        process_top_down(
            graph,
            state,
            weights,
            TopDownConfig(
                k=k,
                apply_level_cover=level_cover,
                deduplicate=deduplicate,
                **config,
            ),
        )[0]
    )


@pytest.mark.parametrize("seed", range(N_STAGE_TWO_CASES))
def test_batch_reference_and_oracle_agree(seed):
    """The batch route over the whole cross product; the reference route
    (whose per-object extraction is most of this file's run time, and
    the same for every k) at k = nc + 1 under every switch setting and
    at the smaller k under the default ones."""
    _, state, _, _ = _stage_two_case(seed)
    n_central = len(state.central_nodes)
    for level_cover, deduplicate in SWITCHES:
        ranking = _oracle_ranking(seed, level_cover, deduplicate)
        for k in (1, 5, n_central + 1):
            where = (level_cover, deduplicate, k)
            want = ranking[:k]
            for n_threads in (1, 2):
                assert _engine(
                    seed, level_cover, deduplicate, k, n_threads=n_threads
                ) == want, (where, n_threads)
            if k > n_central or (level_cover and deduplicate):
                assert _engine(
                    seed, level_cover, deduplicate, k, native=False
                ) == want, where


def test_keyword_column_order_does_not_change_the_answers():
    """Metamorphic: the same finished search with its keyword columns
    permuted gives the same graphs and scores; only the column ids in
    ``keyword_contributions`` move with the permutation."""
    rng = np.random.default_rng(5)
    for seed in range(N_STAGE_TWO_CASES):
        graph, state, weights, k = _stage_two_case(seed)
        order = rng.permutation(state.n_keywords)  # new column j = old order[j]
        permuted = dataclasses.replace(
            state, matrix=np.ascontiguousarray(state.matrix[:, order])
        )
        new_of_old = {int(old): new for new, old in enumerate(order)}
        for native in (None, False):
            config = TopDownConfig(k=k, native=native)
            moved = [
                (
                    central,
                    score,
                    nodes,
                    edges,
                    sorted(
                        (node, frozenset(new_of_old[c] for c in columns))
                        for node, columns in contributions
                    ),
                    pruned,
                )
                for central, score, nodes, edges, contributions, pruned
                in _signature(process_top_down(graph, state, weights, config)[0])
            ]
            assert moved == _signature(
                process_top_down(graph, permuted, weights, config)[0]
            ), (seed, native)


@pytest.mark.parametrize(
    "mutation", ["no_central_clause", "skip_level", "reverse_sum"]
)
def test_corpus_catches_a_planted_fault(mutation):
    """Mutation check of the differential test above: an oracle with the
    Central-Node clause dropped, one level-cover level skipped, or Eq. 6
    summed in the other direction disagrees with the engine somewhere."""
    for seed in range(N_STAGE_TWO_CASES):
        _, state, _, _ = _stage_two_case(seed)
        k = len(state.central_nodes) + 1
        if _oracle_ranking(seed, True, True, mutation) != _engine(
            seed, True, True, k
        ):
            return
    pytest.fail(f"no corpus case notices the {mutation} mutant")
