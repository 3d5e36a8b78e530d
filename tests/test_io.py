"""Graph serialization and text-format loaders: ``save_graph`` writes
the one on-disk format, a version-2 ``.csrstore``; ``load_graph`` opens
it, or an NPZ bundle an earlier version wrote."""

import json
import os
import re
import shutil
from pathlib import Path
from urllib.parse import urlencode

import numpy as np
import pytest

from repro.core import weights as weights_module
from repro.core.engine import KeywordSearchEngine
from repro.graph import sampling
from repro.graph.generators import random_graph
from repro.graph.io import (
    dump_tsv_triples,
    load_graph,
    load_tsv_triples,
    save_graph,
)
from repro.graph.store import FORMAT_VERSION, STORE_SUFFIX, memmap_base, read_info
from repro.parallel import vectorized
from repro.service import SearchService
from repro.text.inverted_index import InvertedIndex

#: An NPZ bundle (``.npz`` + ``.meta.json``) as ``save_graph`` wrote it
#: before the store: the 48-node graph of ``v1-tiny.csrstore``.
LEGACY_NPZ = str(Path(__file__).parent / "data" / "legacy-tiny")


def _graphs_equal(a, b):
    assert a.n_nodes == b.n_nodes
    assert a.n_edges == b.n_edges
    assert list(a.node_text) == list(b.node_text)
    assert a.predicates.to_list() == b.predicates.to_list()
    assert np.array_equal(a.adj.indptr, b.adj.indptr)
    assert np.array_equal(a.adj.indices, b.adj.indices)
    assert np.array_equal(a.adj.labels, b.adj.labels)
    assert np.array_equal(a.out.indices, b.out.indices)
    assert np.array_equal(a.inc.indices, b.inc.indices)


def test_npz_roundtrip(tmp_path, random20):
    """A ``.npz`` suffix is dropped: the one file written is the store,
    and the same path finds it again."""
    path = str(tmp_path / "graph.npz")
    written = save_graph(random20, path)
    assert written == str(tmp_path / ("graph" + STORE_SUFFIX))
    assert sorted(os.listdir(tmp_path)) == ["graph" + STORE_SUFFIX]
    _graphs_equal(random20, load_graph(path))


def test_npz_roundtrip_without_extension(tmp_path, random20):
    path = str(tmp_path / "graph")
    written = save_graph(random20, path)
    assert written == path + STORE_SUFFIX
    assert read_info(written).version == FORMAT_VERSION
    loaded = load_graph(path)
    assert loaded.store is not None and loaded.store.mmap
    _graphs_equal(random20, loaded)
    assert load_graph(written).n_edges == random20.n_edges


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_graph(str(tmp_path / "missing.npz"))


def _copy_legacy(tmp_path):
    for suffix in (".npz", ".meta.json"):
        shutil.copy(LEGACY_NPZ + suffix, tmp_path / ("legacy" + suffix))
    return str(tmp_path / "legacy")


def test_load_rejects_bad_version(tmp_path):
    path = _copy_legacy(tmp_path)
    with open(path + ".meta.json") as handle:
        meta = json.load(handle)
    meta["version"] = 99
    with open(path + ".meta.json", "w") as handle:
        json.dump(meta, handle)
    with pytest.raises(ValueError):
        load_graph(path)


def test_legacy_npz_without_its_sidecar_raises(tmp_path):
    path = _copy_legacy(tmp_path)
    os.unlink(path + ".meta.json")
    with pytest.raises(FileNotFoundError):
        load_graph(path + ".npz")


def _bodies(graph, queries):
    """``/search`` bodies with their per-phase ``milliseconds`` zeroed."""
    service = SearchService(KeywordSearchEngine(graph))
    bodies = []
    for query in queries:
        status, _, body = service.handle_path("/search?" + urlencode({"q": query, "k": 5}))
        assert status == 200, body
        bodies.append(
            re.sub(
                r'"milliseconds": \{[^}]*\}',
                lambda timings: re.sub(r": [-0-9][^,}]*", ": 0", timings[0]),
                body,
            )
        )
    return bodies


def test_legacy_npz_answers_like_the_store_save_graph_writes(tmp_path):
    """The committed NPZ bundle (what ``save_graph`` wrote before the
    store) still loads, into RAM, and serves the same ``/search`` bodies
    as the store ``save_graph`` writes from it today."""
    legacy = load_graph(LEGACY_NPZ)
    assert legacy.store is None
    assert (legacy.n_nodes, legacy.n_edges) == (48, 180)
    stored = load_graph(save_graph(legacy, str(tmp_path / "tiny")))
    assert stored.store is not None
    _graphs_equal(legacy, stored)
    queries = ["graph keyword", "parallel index query", "summary weight central", "node item3"]
    bodies = _bodies(legacy, queries)
    assert any('"central_node"' in body for body in bodies)
    assert _bodies(stored, queries) == bodies
    # The same prefix with a store beside the bundle opens the store.
    _copy_legacy(tmp_path)
    save_graph(legacy, str(tmp_path / "legacy"))
    assert load_graph(str(tmp_path / "legacy")).store is not None
    assert load_graph(str(tmp_path / "legacy.npz")).store is not None


def test_an_engine_over_a_saved_graph_reads_a_weights_and_index(tmp_path, monkeypatch):
    """``save_graph`` → ``load_graph`` → engine: A, the Eq. 2 weights and
    the inverted index come from the store, so tokenizing, the weight
    pass and the distance sampler are never called."""
    graph = random_graph(60, 240, seed=4)
    reference = KeywordSearchEngine(graph)
    loaded = load_graph(save_graph(graph, str(tmp_path / "kb")))

    def refuse(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} ran on a saved graph")

        return raiser

    monkeypatch.setattr(InvertedIndex, "build", refuse("tokenizing"))
    monkeypatch.setattr(weights_module, "raw_degree_of_summary", refuse("the weight pass"))
    monkeypatch.setattr(sampling, "largest_component_nodes", refuse("distance sampling"))
    monkeypatch.setattr(vectorized, "lane_bfs_levels", refuse("distance sampling"))
    engine = KeywordSearchEngine(loaded)
    assert engine.average_distance == reference.average_distance
    assert engine.weights.tobytes() == reference.weights.tobytes()
    assert memmap_base(engine.weights) is not None
    assert list(engine.index.terms) == list(reference.index.terms)
    for term in reference.index.terms:
        assert np.array_equal(
            engine.index.nodes_for_normalized_term(term),
            reference.index.nodes_for_normalized_term(term),
        )
    # The patches are armed: a graph without a store computes.
    with pytest.raises(AssertionError, match="ran on a saved graph"):
        KeywordSearchEngine(graph)


def test_save_graph_replaces_the_file_a_graph_is_mapped_from(tmp_path):
    """Saving a mapped graph over its own file writes a new file and
    renames it into place: the old mapping keeps its bytes."""
    path = save_graph(random_graph(30, 90, seed=2), str(tmp_path / "g"))
    mapped = load_graph(path)
    before = mapped.adj.indices.copy()
    assert save_graph(mapped, path) == path
    assert np.array_equal(mapped.adj.indices, before)
    _graphs_equal(mapped, load_graph(path))
    assert sorted(os.listdir(tmp_path)) == ["g" + STORE_SUFFIX]


def test_tsv_load():
    import tempfile, os

    content = (
        "# comment line\n"
        "q1\tinstance of\tq2\n"
        "\n"
        "q3\tcites\tq1\n"
    )
    with tempfile.NamedTemporaryFile(
        "w", suffix=".tsv", delete=False
    ) as handle:
        handle.write(content)
        path = handle.name
    try:
        graph = load_tsv_triples(path)
        assert graph.n_nodes == 3
        assert graph.n_edges == 2
        assert "instance of" in graph.predicates
    finally:
        os.unlink(path)


def test_tsv_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\nbroken line without tabs\n")
    with pytest.raises(ValueError, match=":2:"):
        load_tsv_triples(str(path))


def test_tsv_dump_and_reload(tmp_path):
    graph = random_graph(10, 20, seed=5)
    path = str(tmp_path / "dump.tsv")
    count = dump_tsv_triples(graph, path)
    assert count == graph.n_edges
    reloaded = load_tsv_triples(path)
    assert reloaded.n_edges == graph.n_edges
    assert reloaded.n_nodes == len(
        {n for s, t, _ in graph.edge_list() for n in (s, t)}
    )
