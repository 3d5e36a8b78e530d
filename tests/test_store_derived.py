"""Derived sections of a version-2 ``.csrstore``: the inverted index, the
Eq. 2 weights and Table II's sampled A, stored beside the CSR.

The contract is that a restart reads what it would otherwise compute, and
nothing else changes: a graph in RAM (built, or loaded from a legacy NPZ
bundle), a version-1 store (CSR only, computed in memory) and a
version-2 store give equal postings, bitwise-equal
weights, equal ``DistanceEstimate`` s and ``==`` ranked answers and
scores. A request the stored results were not made for — another
tokenizer config, another ``(n_pairs, seed)`` — is computed, and a
version-1 file still opens, with one warning per process.
"""

import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import weights as weights_module
from repro.core.engine import EngineConfig, KeywordSearchEngine
from repro.eval.queries import KeywordWorkload
from repro.graph import algorithms
from repro.graph import store as store_module
from repro.graph.builder import GraphBuilder, StreamingGraphBuilder
from repro.graph.io import load_graph, save_graph
from repro.graph.sampling import estimate_average_distance
from repro.graph.store import (
    DERIVED_SECTION_DTYPES,
    SECTION_DTYPES,
    CSRStoreError,
    open_store,
    read_info,
    save_store,
    stored_json,
    stored_section,
)
from repro.parallel import vectorized
from repro.text.index_io import encode_index, load_index, save_index
from repro.text.inverted_index import InvertedIndex
from repro.text.tokenizer import Tokenizer, TokenizerConfig

from test_fused_kernel import _fuzz_kb

#: Written by the version-1 ``save_store`` (the format before derived
#: sections): 48 nodes, 180 edges, one ``venue`` hub.
V1_STORE = Path(__file__).parent / "data" / "v1-tiny.csrstore"
#: The same graph as the NPZ bundle ``save_graph`` wrote before the store.
LEGACY_NPZ = str(Path(__file__).parent / "data" / "legacy-tiny")
DERIVED = [name for name, _ in DERIVED_SECTION_DTYPES]


def _save_v1(graph, path, monkeypatch):
    """``save_store`` as it was before derived sections existed."""
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "write_derived_sections", lambda info: info)
        info = save_store(graph, path)
    assert info.version == 1
    return str(path)


def _quiet_open(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return open_store(path)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _answers(engine, queries, k=5):
    """Ranked answers with their scores, for ``==`` comparison."""
    out = []
    for query in queries:
        result = engine.search(query, k=k, alpha=0.1)
        out.append(
            [
                (a.graph.central_node, a.score, sorted(a.graph.nodes), a.graph.depth)
                for a in result.answers
            ]
        )
    return out


def _queries(index, seed, n=6):
    stream = KeywordWorkload(index, seed=seed)
    return [stream.sample_query(2 + i % 3) for i in range(n)]


def _assert_same_index(actual, expected):
    assert list(actual.terms) == list(expected.terms)
    assert actual.n_nodes == expected.n_nodes
    assert actual.tokenizer.config == expected.tokenizer.config
    for term in expected.terms:
        ours = actual.nodes_for_normalized_term(term)
        theirs = expected.nodes_for_normalized_term(term)
        assert ours.dtype == theirs.dtype == np.int64
        assert np.array_equal(ours, theirs), term


def _spy(monkeypatch):
    """Record calls to the three computations a stored section replaces."""
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(InvertedIndex, "build", wrap("build", InvertedIndex.build))
    monkeypatch.setattr(
        weights_module,
        "raw_degree_of_summary",
        wrap("raw_degree_of_summary", weights_module.raw_degree_of_summary),
    )
    monkeypatch.setattr(
        vectorized,
        "lane_bfs_levels",
        wrap("lane_bfs_levels", vectorized.lane_bfs_levels),
    )
    return calls


# ---------------------------------------------------------------------------
# Version 1: a committed file from the CSR-only writer
# ---------------------------------------------------------------------------
def test_version_1_store_opens_warns_once_and_answers_identically(tmp_path, monkeypatch):
    before = _digest(V1_STORE)
    assert read_info(V1_STORE).version == 1
    monkeypatch.setattr(store_module, "_warned_rebuild", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v1 = open_store(V1_STORE)
        load_graph(str(V1_STORE))
        open_store(V1_STORE, mmap=False)
    rebuild = [w for w in caught if "version-1" in str(w.message)]
    assert len(rebuild) == 1, [str(w.message) for w in caught]
    assert "rebuild" in str(rebuild[0].message)

    v2_path = tmp_path / "v2.csrstore"
    save_store(v1, v2_path)
    v2 = open_store(v2_path)
    npz = load_graph(LEGACY_NPZ)

    engines = [KeywordSearchEngine(graph) for graph in (npz, v1, v2)]
    queries = ["graph keyword", "parallel index query", "summary weight central", "node item3"]
    reference = _answers(engines[0], queries)
    assert any(reference)
    for engine in engines[1:]:
        assert engine.average_distance == engines[0].average_distance
        assert engine.weights.tobytes() == engines[0].weights.tobytes()
        assert _answers(engine, queries) == reference
    # Opening (and searching) never writes to the store.
    assert _digest(V1_STORE) == before


# ---------------------------------------------------------------------------
# In RAM = version 1 = version 2, on the fuzz graphs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_npz_v1_and_v2_agree_bitwise(tmp_path, monkeypatch, seed):
    graph = _fuzz_kb(seed)
    v1 = _quiet_open(_save_v1(graph, tmp_path / "v1.csrstore", monkeypatch))
    v2_path = save_graph(graph, str(tmp_path / "v2"))
    assert read_info(v2_path).version == 2
    before = _digest(v2_path)
    v2 = open_store(v2_path)

    config = EngineConfig()
    pairs, sample_seed = config.distance_sample_pairs, config.seed
    expected_index = InvertedIndex.from_graph(graph)
    expected_weights = weights_module.node_weights(graph)
    expected_distance = estimate_average_distance(graph, n_pairs=pairs, seed=sample_seed)
    for graph_ in (v1, v2):
        _assert_same_index(InvertedIndex.from_graph(graph_), expected_index)
        weights = weights_module.node_weights(graph_)
        assert weights.dtype == np.float64
        assert weights.tobytes() == expected_weights.tobytes()
        assert (
            estimate_average_distance(graph_, n_pairs=pairs, seed=sample_seed)
            == expected_distance
        )

    queries = _queries(expected_index, seed)
    reference = _answers(KeywordSearchEngine(graph), queries)
    assert any(reference)
    for graph_ in (v1, v2):
        assert _answers(KeywordSearchEngine(graph_), queries) == reference
    assert _digest(v2_path) == before


def test_engine_over_a_version_2_store_computes_nothing(tmp_path, monkeypatch):
    graph = _fuzz_kb(5)
    v2_path = tmp_path / "v2.csrstore"
    save_store(graph, v2_path)
    v1_path = _save_v1(graph, tmp_path / "v1.csrstore", monkeypatch)
    calls = _spy(monkeypatch)

    engine = KeywordSearchEngine(open_store(v2_path))
    assert calls == []
    queries = _queries(engine.index, 5, n=3)
    _answers(engine, queries)
    assert calls == []

    # The spies are armed: a version-1 store runs all three.
    KeywordSearchEngine(_quiet_open(v1_path))
    assert {"build", "raw_degree_of_summary", "lane_bfs_levels"} <= set(calls)


def test_other_tokenizer_pairs_or_seed_are_computed(tmp_path, monkeypatch):
    graph = _fuzz_kb(2)
    path = tmp_path / "v2.csrstore"
    save_store(graph, path)
    stored = open_store(path)
    calls = _spy(monkeypatch)

    custom = Tokenizer(TokenizerConfig(stem=False, min_length=3))
    index = InvertedIndex.from_graph(stored, custom)
    assert calls == ["build"]
    assert index.tokenizer is custom
    _assert_same_index(index, InvertedIndex.from_graph(graph, custom))

    class Shouting(Tokenizer):
        def normalize(self, token):
            term = super().normalize(token)
            return None if term is None else term.upper()

    del calls[:]
    shouting = InvertedIndex.from_graph(stored, Shouting())
    assert calls == ["build"]
    assert all(term.isupper() for term in shouting.terms)

    config = EngineConfig()
    for n_pairs, seed in ((300, config.seed), (config.distance_sample_pairs, 5)):
        del calls[:]
        estimate = estimate_average_distance(stored, n_pairs=n_pairs, seed=seed)
        assert "lane_bfs_levels" in calls
        assert estimate == estimate_average_distance(graph, n_pairs=n_pairs, seed=seed)
    del calls[:]
    estimate_average_distance(
        stored, n_pairs=config.distance_sample_pairs, rng=np.random.default_rng(0)
    )
    assert "lane_bfs_levels" in calls


def test_sections_from_another_revision_are_computed_not_read(tmp_path, monkeypatch):
    graph = _fuzz_kb(9)
    path = tmp_path / "g.csrstore"
    save_store(graph, path)
    assert read_info(path).derived_revision == store_module.DERIVED_REVISION
    before = _digest(path)
    # As if the tokenizer, Eq. 2 or the sampler had changed since the build.
    monkeypatch.setattr(store_module, "DERIVED_REVISION", store_module.DERIVED_REVISION + 1)
    monkeypatch.setattr(store_module, "_warned_rebuild", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stale = open_store(path)
        open_store(path, mmap=False)
    rebuild = [w for w in caught if "revision" in str(w.message)]
    assert len(rebuild) == 1, [str(w.message) for w in caught]
    assert "rebuild" in str(rebuild[0].message)
    assert all(stored_section(stale, name) is None for name in DERIVED)

    calls = _spy(monkeypatch)
    engine = KeywordSearchEngine(stale)
    assert {"build", "raw_degree_of_summary", "lane_bfs_levels"} <= set(calls)
    reference = KeywordSearchEngine(graph)
    queries = _queries(reference.index, 9)
    assert _answers(engine, queries) == _answers(reference, queries)
    assert _digest(path) == before


def test_sections_come_from_the_file_that_was_opened(tmp_path):
    """A store rebuilt in place (new file renamed over the path) under a
    running process: an engine built afterwards still reads the index,
    weights and A of the graph it was opened with."""
    first = _fuzz_kb(1)
    path = tmp_path / "g.csrstore"
    save_store(first, path)
    opened = open_store(path)
    save_store(_fuzz_kb(2), tmp_path / "new.csrstore")
    os.replace(tmp_path / "new.csrstore", path)

    engine = KeywordSearchEngine(opened)
    reference = KeywordSearchEngine(first)
    _assert_same_index(engine.index, reference.index)
    assert engine.weights.tobytes() == reference.weights.tobytes()
    assert engine.average_distance == reference.average_distance


# ---------------------------------------------------------------------------
# Bounded memory: windowed scans that release the pages behind them
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 4])
def test_windowed_scans_equal_one_whole_graph_pass(tmp_path, monkeypatch, seed):
    graph = _fuzz_kb(seed)
    sources = np.random.default_rng(seed).choice(graph.n_nodes, size=8, replace=False)
    everywhere = np.zeros(graph.n_nodes, dtype=np.int32)

    def scans(graph_):
        return (
            weights_module.raw_degree_of_summary(graph_).tobytes(),
            algorithms.connected_components(graph_).tolist(),
            algorithms.largest_component_nodes(graph_).tolist(),
            vectorized.lane_bfs_levels(graph_, sources, everywhere).tobytes(),
            # Not the stored (n_pairs, seed): sampled, not read.
            estimate_average_distance(graph_, n_pairs=300, seed=seed),
        )

    whole = scans(graph)  # these graphs fit in one window
    monkeypatch.setattr(weights_module, "_WINDOW_EDGES", 3)
    monkeypatch.setattr(algorithms, "_WINDOW_EDGES", 3)
    monkeypatch.setattr(vectorized, "_LANE_BFS_WINDOW", 3)
    released = []
    release = store_module.StoreHandle.release_pages
    monkeypatch.setattr(
        store_module.StoreHandle,
        "release_pages",
        lambda handle: released.append(1) or release(handle),
    )
    stored = _quiet_open(save_store(graph, tmp_path / "g.csrstore").path)
    del released[:]
    assert scans(graph) == whole
    assert released == []
    assert scans(stored) == whole
    assert len(released) > 10


def test_derived_sections_are_durable_before_the_header_names_them(tmp_path, monkeypatch):
    path = tmp_path / "g.csrstore"
    synced_versions = []
    fsync = os.fsync

    def recording_fsync(fd):
        fsync(fd)
        with open(path, "rb") as handle:
            synced_versions.append(int.from_bytes(handle.read(12)[8:], "little"))

    monkeypatch.setattr(os, "fsync", recording_fsync)
    save_store(_fuzz_kb(3), path)
    # Sections synced under the version-1 header, then the version-2 one.
    assert synced_versions == [1, 2]


# ---------------------------------------------------------------------------
# Layout, damage and edge cases
# ---------------------------------------------------------------------------
def test_derived_sections_follow_the_csr_and_leave_array_bytes_alone(tmp_path, monkeypatch):
    graph = _fuzz_kb(1)
    v1 = read_info(_save_v1(graph, tmp_path / "v1.csrstore", monkeypatch))
    v2 = read_info(save_store(graph, tmp_path / "v2.csrstore").path)
    assert v2.version == 2
    assert list(v2.sections) == [name for name, _ in SECTION_DTYPES] + DERIVED
    assert {name: v2.sections[name] for name in v1.sections} == v1.sections
    assert v2.array_bytes == v1.array_bytes
    assert v2.sections["node_weights"].length == graph.n_nodes
    offsets = [section.offset for section in v2.sections.values()]
    assert offsets == sorted(offsets)
    assert all(offset % store_module.SECTION_ALIGN == 0 for offset in offsets)
    assert v2.file_bytes == max(s.offset + s.nbytes for s in v2.sections.values())


def test_index_sidecar_and_store_sections_share_one_codec(tmp_path):
    graph = _fuzz_kb(4)
    save_index(InvertedIndex.from_graph(graph), str(tmp_path / "g.index"))
    lengths, postings, meta = encode_index(load_index(str(tmp_path / "g.index")))
    save_store(graph, tmp_path / "g.csrstore")
    stored = open_store(tmp_path / "g.csrstore")
    assert stored_json(stored, "index_meta") == meta
    assert np.array_equal(stored_section(stored, "index_lengths"), lengths)
    assert np.array_equal(
        stored_section(stored, "index_postings"), np.concatenate(postings)
    )


@pytest.mark.parametrize("cut", ["distance", "index_postings"])
def test_truncated_derived_section_is_rejected_at_open(tmp_path, cut):
    path = tmp_path / "g.csrstore"
    save_store(_fuzz_kb(6), path)
    section = read_info(path).sections[cut]
    clone = tmp_path / "cut.csrstore"
    shutil.copyfile(path, clone)
    with open(clone, "r+b") as handle:
        handle.truncate(section.offset + section.nbytes // 2)
    with pytest.raises(CSRStoreError, match="truncated"):
        open_store(clone)


def _round_trip(graph, path):
    save_store(graph, path)
    stored = open_store(path)
    _assert_same_index(InvertedIndex.from_graph(stored), InvertedIndex.from_graph(graph))
    assert (
        weights_module.node_weights(stored).tobytes()
        == weights_module.node_weights(graph).tobytes()
    )
    return stored


def test_zero_term_index_round_trips(tmp_path):
    builder = GraphBuilder()
    for text in ("the of", "", "1999 42", "a an", "to be"):
        builder.add_node(text)
    builder.add_edge(0, 1, "p")
    builder.add_edge(2, 1, "p")
    graph = builder.build()
    stored = _round_trip(graph, tmp_path / "z.csrstore")
    assert InvertedIndex.from_graph(stored).n_terms == 0
    assert stored_section(stored, "index_postings").shape == (0,)
    assert estimate_average_distance(stored, n_pairs=2000) == estimate_average_distance(
        graph, n_pairs=2000
    )


def test_zero_edge_and_single_node_graphs_round_trip(tmp_path):
    builder = GraphBuilder()
    for text in ("graph search", "keyword graph", "search"):
        builder.add_node(text)
    graph = builder.build()
    stored = _round_trip(graph, tmp_path / "e.csrstore")
    assert stored.n_edges == 0
    assert estimate_average_distance(stored, n_pairs=2000) == estimate_average_distance(
        graph, n_pairs=2000
    )

    single = GraphBuilder()
    single.add_node("lonely graph")
    one = single.build()
    stored_one = _round_trip(one, tmp_path / "one.csrstore")
    assert stored_json(stored_one, "distance")["estimate"] is None
    with pytest.raises(ValueError, match="two nodes"):
        estimate_average_distance(stored_one, n_pairs=2000)


# ---------------------------------------------------------------------------
# Writers: the streaming builder and `repro build-graph`
# ---------------------------------------------------------------------------
def test_streaming_builder_writes_the_same_derived_sections(tmp_path):
    graph = _fuzz_kb(8)
    streaming = StreamingGraphBuilder(chunk_edges=97, window_rows=64)
    for text in graph.node_text:
        streaming.add_node(text)
    for name in graph.predicates:
        streaming.add_predicate(name)
    for source, target, label in graph.edge_list():
        streaming.add_edge(source, target, label)
    info = streaming.finalize(tmp_path / "s.csrstore")
    assert info.version == 2
    save_store(graph, tmp_path / "r.csrstore")
    streamed = open_store(tmp_path / "s.csrstore")
    saved = open_store(tmp_path / "r.csrstore")
    for name in DERIVED:
        assert (
            stored_section(streamed, name).tobytes() == stored_section(saved, name).tobytes()
        ), name


def test_build_graph_cli_reports_derived_ms(tmp_path, capsys):
    out = tmp_path / "w17.csrstore"
    assert main(["build-graph", "--scale", "wiki2017", "--seed", "3",
                 "--out", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < report["derived_ms"] < report["build_ms"]
    info = read_info(out)
    assert set(DERIVED) <= set(info.sections)
    assert report["array_bytes"] == info.array_bytes
