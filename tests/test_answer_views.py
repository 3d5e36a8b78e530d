"""Answers over kernel arrays: the batch route's CentralGraph objects.

The batch route hands each ranked answer copies of its kernel slices —
ascending node ids, ascending edge keys, contribution masks — and the
answer builds ``nodes``, ``edges`` and ``keyword_contributions`` only
when they are read. These tests pin that the lazily built sets are the
reference route's, that the shape accessors, the sorted views and
``/search`` serialisation never build them, that an answer owns its
arrays, and that ``/search`` bodies are byte for byte what they were
when answers were built from sets.
"""

import contextlib
import hashlib
import json
import re
from pathlib import Path
from urllib.parse import urlencode

import pytest

from repro.core import central_graph
from repro.core.engine import EngineConfig, KeywordSearchEngine
from repro.core.top_down import TopDownConfig, process_top_down
from repro.service import SearchService

from test_top_down import (
    N_STAGE_TWO_CASES,
    _reference_stage_two,
    _signature,
    _stage_two_case,
)

GOLDENS = Path(__file__).parent / "data" / "search_goldens.json"

#: ``/search`` requests on the ``tiny_kb`` fixture: Knum 1-4, k 1-20,
#: two α, and answers level-cover cuts.
SEARCH_REQUESTS = [
    ("machine learning", 3, 0.1),
    ("machine learning", 20, 0.1),
    ("machine learning data", 5, 0.1),
    ("machine learning translation", 10, 0.3),
    ("knowledge graph query", 10, 0.1),
    ("knowledge base sparql", 5, 0.1),
    ("graph database", 1, 0.1),
    ("graph database", 20, 0.5),
    ("database xyzzyplugh", 3, 0.1),
    ("xml rdf sql", 20, 0.1),
    ("machine learning knowledge graph", 20, 0.1),
]

_BUILDERS = ("_node_set", "_edge_set", "_contribution_dict")


def _refuse(*args, **kwargs):
    raise AssertionError("an answer built a set or dict")


@contextlib.contextmanager
def _no_builds():
    """While open, building an answer's set or dict raises."""
    saved = {name: getattr(central_graph, name) for name in _BUILDERS}
    for name in _BUILDERS:
        setattr(central_graph, name, _refuse)
    try:
        yield
    finally:
        for name, builder in saved.items():
            setattr(central_graph, name, builder)


def _view_signature(answers):
    """``_signature`` from the sorted views alone."""
    return [
        (
            answer.central_node,
            answer.score,
            answer.sorted_nodes(),
            answer.sorted_edges(),
            [(node, frozenset(c)) for node, c in answer.member_columns() if c],
            answer.pruned,
        )
        for answer in answers
    ]


def test_views_and_lazy_sets_equal_the_reference_route():
    """On the stage-two corpus, raw and ranked: the sorted views, the
    shape accessors and coverage equal the reference route's sets with
    no set built; then the lazily built sets equal them too."""
    for seed in range(N_STAGE_TWO_CASES):
        graph, state, weights, k = _stage_two_case(seed)
        every, ranked = _reference_stage_two(seed)
        q = state.n_keywords
        for want, config in (
            (every, TopDownConfig(
                k=10**6, apply_level_cover=False, deduplicate=False
            )),
            (ranked, TopDownConfig(k=k)),
        ):
            with _no_builds():
                answers = process_top_down(graph, state, weights, config)[0]
                assert _view_signature(answers) == want, seed
                for answer, (_, _, nodes, edges, contributions, _) in zip(
                    answers, want
                ):
                    assert answer.n_nodes == len(nodes)
                    assert answer.n_edges == len(edges)
                    covered = frozenset().union(*(c for _, c in contributions))
                    assert answer.covered_keywords() == covered
                    assert answer.covers_all(q) == (
                        covered == frozenset(range(q))
                    )
                    assert not answer.covers_all(q + 1)
            assert _signature(answers) == want, seed


def test_search_builds_no_set_until_an_answer_is_read(tiny_kb):
    """Inside ``engine.search`` and ``answer_payload`` no answer builds a
    set or dict; read afterwards, the answers equal the reference
    route's."""
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    reference = KeywordSearchEngine(
        graph, config=EngineConfig(top_down_native=False)
    )
    service = SearchService(engine)
    results = []
    with _no_builds():
        for query, k, alpha in SEARCH_REQUESTS:
            result = engine.search(query, k=k, alpha=alpha)
            for answer in result.answers:
                service.answer_payload(answer)
                answer.graph.covers_all(len(result.keywords))
                answer.graph.n_nodes, answer.graph.n_edges
            results.append((result, (query, k, alpha)))
    results = [
        (result, reference.search(query, k=k, alpha=alpha))
        for result, (query, k, alpha) in results
    ]
    compared = 0
    for got, want in results:
        assert _signature(a.graph for a in got.answers) == _signature(
            a.graph for a in want.answers
        )
        compared += len(got.answers)
    assert compared > 20


def test_answers_own_their_arrays():
    """Each answer holds its own copies, not views that would keep the
    batch's node, edge and mask buffers alive."""
    graph, state, weights, k = _stage_two_case(6)
    answers = process_top_down(graph, state, weights, TopDownConfig(k=k))[0]
    assert len(answers) > 1
    for answer in answers:
        arrays = (answer._node_ids, answer._edge_keys, answer._masks)
        for array in arrays:
            assert array.base is None and array.flags.owndata
        assert len(answer._masks) == len(answer._node_ids) == answer.n_nodes
        assert len(answer._edge_keys) == answer.n_edges


def test_set_built_answers_serialise_like_array_answers():
    """The sorted views of an answer made from sets (reference route)
    equal those of the same answer made from arrays (batch route)."""
    graph, state, weights, k = _stage_two_case(60)
    batch = process_top_down(graph, state, weights, TopDownConfig(k=k))[0]
    reference = process_top_down(
        graph, state, weights, TopDownConfig(k=k, native=False)
    )[0]
    assert _view_signature(batch) == _view_signature(reference)
    assert any(answer.pruned for answer in batch)


def _search_bodies(graph):
    """``/search`` bodies for :data:`SEARCH_REQUESTS`, each with its
    per-phase ``milliseconds`` zeroed (the only values that are not a
    function of the request)."""
    service = SearchService(KeywordSearchEngine(graph))
    bodies = []
    for query, k, alpha in SEARCH_REQUESTS:
        path = "/search?" + urlencode({"q": query, "k": k, "alpha": alpha})
        status, _, body = service.handle_path(path)
        assert status == 200, (query, body)
        bodies.append(
            re.sub(
                r'"milliseconds": \{[^}]*\}',
                lambda timings: re.sub(r": [-0-9][^,}]*", ": 0", timings[0]),
                body,
            )
        )
    return bodies


def search_body_digests(graph):
    """SHA-256 of each normalised ``/search`` body, and its length."""
    return [
        [hashlib.sha256(body.encode()).hexdigest(), len(body)]
        for body in _search_bodies(graph)
    ]


def test_search_bodies_match_the_goldens(tiny_kb):
    """Byte for byte the bodies recorded when answers were built from
    sets and serialised through ``sorted()``."""
    golden = json.loads(GOLDENS.read_text())
    assert golden["requests"] == [list(request) for request in SEARCH_REQUESTS]
    assert search_body_digests(tiny_kb[0]) == golden["digests"]
