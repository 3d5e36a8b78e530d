"""Edit-distance term suggestions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.text.inverted_index import InvertedIndex
from repro.text.suggest import levenshtein, suggest_for_dropped, suggest_terms


# ---------------------------------------------------------------------------
# Levenshtein
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b, distance",
    [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "xyz", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("graph", "grape", 1),
        ("sql", "sparql", 3),
    ],
)
def test_levenshtein_known_values(a, b, distance):
    assert levenshtein(a, b) == distance
    assert levenshtein(b, a) == distance


def test_levenshtein_cap_prunes():
    assert levenshtein("aaaaaaaa", "bbbbbbbb", cap=2) == 3  # cap + 1


@settings(max_examples=60, deadline=None)
@given(
    a=st.text(alphabet="abcde", max_size=8),
    b=st.text(alphabet="abcde", max_size=8),
    c=st.text(alphabet="abcde", max_size=8),
)
def test_levenshtein_metric_properties(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    # Triangle inequality.
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------------------
# Suggestions
# ---------------------------------------------------------------------------
def _index():
    builder = GraphBuilder()
    texts = ["wikidata portal", "wikidata hub", "freebase mirror", "sparql"]
    for text in texts:
        builder.add_node(text)
    builder.add_edge(0, 1, "p")
    return InvertedIndex.from_graph(builder.build())


def test_suggest_finds_close_terms():
    index = _index()
    matches = suggest_terms(index, "wikidta")  # transposition-ish typo
    assert matches
    assert matches[0][0] == "wikidata"
    assert matches[0][1] <= 2


def test_suggest_orders_by_distance_then_frequency():
    index = _index()
    # 'wikidata' occurs twice, 'freebase' once; a needle equidistant to
    # both must put the more frequent term first.
    matches = suggest_terms(index, "sparq")
    assert matches[0][0] == "sparql"


def test_suggest_no_match_beyond_distance():
    index = _index()
    assert suggest_terms(index, "zzzzzzzzzz") == []


def test_suggest_stopword_normalizes_away():
    index = _index()
    assert suggest_terms(index, "the") == []


def test_suggest_for_dropped_mapping():
    index = _index()
    suggestions = suggest_for_dropped(index, ("wikidta", "qqqqqqqq"))
    assert "wikidta" in suggestions
    assert "wikidata" in suggestions["wikidta"]
    assert "qqqqqqqq" not in suggestions


def test_service_includes_suggestions(tiny_kb):
    from repro import KeywordSearchEngine
    from repro.service import SearchService

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    service = SearchService(engine)
    status, payload = service.handle_search("machin learnig")  # typos
    # Either some term matched (200 with suggestions for the dropped) or
    # nothing matched (404 with suggestions) — both must suggest.
    assert "suggestions" in payload or not payload.get("dropped_terms")
    status2, payload2 = service.handle_search("zzzzzz wikidatta")
    assert status2 == 404
    assert isinstance(payload2["suggestions"], dict)
