"""Inverted keyword index."""

import re

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.text.inverted_index import InvertedIndex
from repro.text.stemmer import porter_stem
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import Tokenizer, TokenizerConfig


def _graph(texts):
    builder = GraphBuilder()
    for text in texts:
        builder.add_node(text)
    if len(texts) > 1:
        builder.add_edge(0, 1, "p")
    return builder.build()


def test_basic_postings():
    graph = _graph(["SQL database", "graph database", "SQL engine"])
    index = InvertedIndex.from_graph(graph)
    assert list(index.nodes_for_term("sql")) == [0, 2]
    assert list(index.nodes_for_term("database")) == [0, 1]
    assert list(index.nodes_for_term("engine")) == [2]


def test_lookup_normalizes_terms():
    graph = _graph(["relational databases", "other"])
    index = InvertedIndex.from_graph(graph)
    # Query-side inflection meets index-side stemming.
    assert list(index.nodes_for_term("Relational")) == [0]
    assert list(index.nodes_for_term("database")) == [0]


def test_unknown_term_empty():
    graph = _graph(["alpha beta", "gamma"])
    index = InvertedIndex.from_graph(graph)
    assert len(index.nodes_for_term("unknown")) == 0


def test_stopword_only_term_empty():
    graph = _graph(["the alpha"])
    index = InvertedIndex.from_graph(graph)
    assert len(index.nodes_for_term("the")) == 0


def test_phrase_lookup_rejected():
    graph = _graph(["alpha beta"])
    index = InvertedIndex.from_graph(graph)
    with pytest.raises(ValueError, match="phrase"):
        index.nodes_for_term("alpha beta")


def test_query_node_sets_deduplicates_terms():
    graph = _graph(["alpha beta", "alpha gamma"])
    index = InvertedIndex.from_graph(graph)
    pairs = index.query_node_sets("alpha ALPHA beta")
    terms = [term for term, _ in pairs]
    assert terms == ["alpha", "beta"]
    assert list(pairs[0][1]) == [0, 1]


def test_query_node_sets_includes_empty_sets():
    graph = _graph(["alpha"])
    index = InvertedIndex.from_graph(graph)
    pairs = index.query_node_sets("alpha missing")
    assert len(pairs) == 2
    assert len(pairs[1][1]) == 0


def test_term_frequency_and_top_terms():
    graph = _graph(["alpha beta", "alpha gamma", "alpha"])
    index = InvertedIndex.from_graph(graph)
    assert index.term_frequency("alpha") == 3
    top = index.most_frequent_terms(1)
    assert top[0][0] == "alpha"
    assert top[0][1] == 3


def test_postings_sorted_and_typed():
    graph = _graph(["z alpha", "a alpha", "m alpha"])
    index = InvertedIndex.from_graph(graph)
    postings = index.nodes_for_term("alpha")
    assert postings.dtype == np.int64
    assert list(postings) == sorted(postings)


def test_custom_tokenizer_respected():
    graph = _graph(["Relational Databases"])
    index = InvertedIndex.from_graph(
        graph, Tokenizer(TokenizerConfig(stem=False))
    )
    assert list(index.nodes_for_term("databases")) == [0]
    assert len(index.nodes_for_term("database")) == 0


def test_nbytes_and_counts(tiny_graph):
    index = InvertedIndex.from_graph(tiny_graph)
    assert index.n_terms > 50
    assert index.n_nodes == tiny_graph.n_nodes
    assert index.nbytes() > 0


# ---------------------------------------------------------------------------
# The per-build token memo against normalizing every token of every text
# ---------------------------------------------------------------------------
_MIXED_TEXTS = [
    "The Relational DATABASES of 1999 and 2013",
    "relational database indexing; Indexing indexes indexed",
    "a as is it",  # one-letter tokens and stopwords only
    "as bs cs",  # stems "a" (stopword), "b", "c": below min_length
    "İstanbul Kelvin K 300K neo4j R2D2",  # İ lowers to i + U+0307, K to k
    "",
    "naïve café über straße résumé",
    "SQL sql Sql 42 007 x86 the THE",
    "running runs ran runner relational",
]

_CONFIGS = [
    TokenizerConfig(),
    TokenizerConfig(stem=False),
    TokenizerConfig(remove_stopwords=False, min_length=1),
    TokenizerConfig(keep_numbers=True, min_length=3),
]


def _normalize_every_token(text, config):
    """The tokenizer pipeline spelled out, with no sharing across tokens."""
    terms = []
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        if not config.keep_numbers and token.isdigit():
            continue
        if config.remove_stopwords and is_stopword(token):
            continue
        if config.stem:
            token = porter_stem(token)
        if len(token) < config.min_length:
            continue
        if token not in terms:
            terms.append(token)
    return terms


def _postings_token_by_token(texts, config):
    term_to_nodes = {}
    for node, text in enumerate(texts):
        for term in _normalize_every_token(text, config):
            term_to_nodes.setdefault(term, []).append(node)
    return {
        term: np.asarray(nodes, dtype=np.int64)
        for term, nodes in sorted(term_to_nodes.items())
    }


def _assert_index_equals(index, expected):
    assert list(index.terms) == list(expected)
    for term_id, (term, nodes) in enumerate(expected.items()):
        assert index.terms.get(term) == term_id
        postings = index.nodes_for_normalized_term(term)
        assert postings.dtype == np.int64
        assert postings.tolist() == nodes.tolist(), term


@pytest.mark.parametrize("config", _CONFIGS, ids=repr)
def test_memoised_build_and_extend_equal_token_by_token(config):
    texts = _MIXED_TEXTS * 3  # every token is met again after its first use
    tokenizer = Tokenizer(config)
    for text in texts:
        assert tokenizer.unique_terms(text) == _normalize_every_token(text, config)
    expected = _postings_token_by_token(texts, config)

    built = InvertedIndex(tokenizer)
    built.build(texts)
    _assert_index_equals(built, expected)
    assert built.n_nodes == len(texts)

    # Grown in two steps: a term's id is its position at first sight, so
    # compare per term rather than by position.
    grown = InvertedIndex(tokenizer)
    grown.build(texts[:4])
    assert grown.extend(texts[4:11]) == 4
    assert grown.extend(texts[11:]) == 11
    assert sorted(grown.terms) == list(expected)
    for term, nodes in expected.items():
        postings = grown.nodes_for_normalized_term(term)
        assert postings.dtype == np.int64
        assert postings.tolist() == nodes.tolist(), term


def test_tokenizer_keeps_no_cache_between_calls():
    tokenizer = Tokenizer()
    memo = {}
    assert tokenizer.unique_terms("Relational databases", memo) == ["relat", "databas"]
    assert memo == {"relational": "relat", "databases": "databas"}
    # A memo is the caller's: nothing carries over without one.
    assert set(vars(tokenizer)) == {"config"}
    assert tokenizer.tokenize("the databases") == ["databas"]
