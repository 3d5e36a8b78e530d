"""Query parsing: quoted phrases and keyword-group resolution."""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.text.inverted_index import InvertedIndex
from repro.text.query_parser import parse_query, resolve_keyword_groups


def test_parse_plain_query():
    parsed = parse_query("xml rdf sql")
    assert parsed.terms == ("xml", "rdf", "sql")
    assert parsed.phrases == ()
    assert not parsed.is_empty


def test_parse_quoted_phrase():
    parsed = parse_query('xml "gradient descent" sql')
    assert parsed.terms == ("xml", "sql")
    assert parsed.phrases == (("gradient", "descent"),)


def test_parse_multiple_phrases():
    parsed = parse_query('"a b" "c d e"')
    assert parsed.terms == ()
    assert parsed.phrases == (("a", "b"), ("c", "d", "e"))


def test_parse_empty_quotes_ignored():
    parsed = parse_query('"" xml')
    assert parsed.terms == ("xml",)
    assert parsed.phrases == ()


def test_parse_unbalanced_quote_degrades_gracefully():
    parsed = parse_query('xml "gradient descent')
    assert parsed.terms == ("xml", "gradient", "descent")
    assert parsed.phrases == ()


def test_parse_empty_query():
    assert parse_query("").is_empty
    assert parse_query("   ").is_empty


def _index():
    builder = GraphBuilder()
    texts = [
        "gradient descent methods",   # 0: full phrase
        "gradient boosting",          # 1: split word
        "steepest descent",           # 2: split word
        "xml schema",                 # 3
    ]
    for text in texts:
        builder.add_node(text)
    builder.add_edge(0, 1, "p")
    return InvertedIndex.from_graph(builder.build())


def test_resolve_free_terms():
    groups = resolve_keyword_groups(parse_query("gradient xml"), _index())
    labels = [label for label, _ in groups]
    assert labels == ["gradient", "xml"]
    assert list(groups[0][1]) == [0, 1]
    assert list(groups[1][1]) == [3]


def test_resolve_phrase_intersects_postings():
    groups = resolve_keyword_groups(
        parse_query('"gradient descent"'), _index()
    )
    assert len(groups) == 1
    label, nodes = groups[0]
    assert label == "gradient+descent"
    # Only node 0 contains both words.
    assert list(nodes) == [0]


def test_resolve_phrase_with_no_cooccurrence_is_empty():
    groups = resolve_keyword_groups(
        parse_query('"boosting descent"'), _index()
    )
    assert len(groups) == 1
    assert len(groups[0][1]) == 0


def test_resolve_deduplicates_terms_and_phrases():
    groups = resolve_keyword_groups(
        parse_query('xml xml "gradient descent" "gradient descent"'),
        _index(),
    )
    assert [label for label, _ in groups] == ["xml", "gradient+descent"]


def test_resolve_stopword_only_phrase_dropped():
    groups = resolve_keyword_groups(parse_query('"the of"'), _index())
    assert groups == []


def test_engine_phrase_query_end_to_end(tiny_kb):
    from repro import KeywordSearchEngine

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    plain = engine.search("gradient descent", k=5)
    phrased = engine.search('"gradient descent"', k=5)
    # The phrase query runs one keyword group instead of two.
    assert len(plain.keywords) == 2
    assert phrased.keywords == ("gradient+descent",)
    # Every phrased answer's keyword carriers contain the whole phrase.
    for answer in phrased.answers:
        carriers = answer.graph.keyword_nodes()
        assert carriers
        for node in carriers:
            text = graph.node_text[node].lower()
            assert "gradient" in text and "descent" in text
