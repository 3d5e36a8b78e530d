"""Out-of-core CSR store: round-trips, streaming build, mmap accounting.

The mmap tier's contract is *behavioral identity*: a graph opened from a
``.csrstore`` file (memory-mapped or materialized) must be bitwise
indistinguishable from the in-RAM build it was saved from — same arrays,
same answers from every backend, same validation. These tests pin that,
plus the failure modes (corrupt / truncated / wrong-version files), the
streaming builder's parity with :class:`GraphBuilder`, and the
mmap-aware memory accounting surfaced through ``/statz``.
"""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro.core.state import SearchState
from repro.graph import store as store_module
from repro.graph.algorithms import largest_component_nodes
from repro.graph.builder import GraphBuilder, StreamingGraphBuilder
from repro.graph.generators import (
    WikiKBConfig,
    build_wiki_kb_store,
    wiki_like_kb,
)
from repro.graph.io import load_graph, save_graph
from repro.graph.sampling import estimate_average_distance
from repro.graph.store import (
    CSRStoreError,
    MAGIC,
    STORE_SUFFIX,
    TextBlob,
    allocated_nbytes,
    memmap_base,
    open_store,
    read_info,
    resident_nbytes,
    save_store,
)
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend
from repro.text.inverted_index import InvertedIndex

from test_fused_kernel import _fuzz_kb, _fuzz_problem, _run_backend


@pytest.fixture(scope="module")
def kb_graph():
    return _fuzz_kb(3)


@pytest.fixture(scope="module")
def store_path(kb_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / ("kb" + STORE_SUFFIX)
    save_store(kb_graph, path, name="fuzz-3", seed=3)
    return str(path)


def _assert_graphs_bitwise_equal(actual, expected):
    for name in ("out", "inc", "adj"):
        left, right = getattr(actual, name), getattr(expected, name)
        for attr in ("indptr", "indices", "labels"):
            assert np.array_equal(
                getattr(left, attr), getattr(right, attr)
            ), f"{name}.{attr} diverged"
        assert getattr(left, attr).dtype == getattr(right, attr).dtype
    assert np.array_equal(
        actual.adj.degree_array, expected.adj.degree_array
    )
    assert list(actual.node_text) == list(expected.node_text)
    assert actual.predicates.to_list() == expected.predicates.to_list()


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mmap", [True, False])
def test_round_trip_bitwise_identical(kb_graph, store_path, mmap):
    reopened = open_store(store_path, mmap=mmap)
    _assert_graphs_bitwise_equal(reopened, kb_graph)
    reopened.validate()
    assert reopened.store is not None
    assert reopened.store.mmap is mmap
    if mmap:
        assert memmap_base(reopened.adj.indices) is not None
    else:
        assert memmap_base(reopened.adj.indices) is None
    # The frozen-array contract holds for both open modes.
    with pytest.raises(ValueError):
        reopened.adj.indices[0] = 1


def test_load_graph_dispatches_on_magic_and_suffix(kb_graph, store_path, tmp_path):
    by_magic = load_graph(store_path)
    assert by_magic.store is not None and by_magic.store.mmap
    # Prefix form: <prefix>.csrstore is found when no NPZ exists.
    prefix = store_path[: -len(STORE_SUFFIX)]
    by_suffix = load_graph(prefix)
    assert by_suffix.store is not None
    # NPZ keeps precedence when both exist at the same prefix.
    both = tmp_path / "both"
    save_graph(kb_graph, str(both))
    save_store(kb_graph, str(both) + STORE_SUFFIX)
    npz_loaded = load_graph(str(both))
    assert npz_loaded.store is None
    _assert_graphs_bitwise_equal(npz_loaded, kb_graph)


def test_read_info_reports_sections(store_path, kb_graph):
    info = read_info(store_path)
    assert info.n_nodes == kb_graph.n_nodes
    assert info.n_edges == kb_graph.n_edges
    assert info.store_bytes == os.path.getsize(store_path)
    assert 0 < info.array_bytes <= info.store_bytes
    assert "adj_indices" in info.sections
    assert info.version == 2
    assert {"index_postings", "node_weights", "distance"} <= set(info.sections)
    # The out-of-core heap cap: the CSR arrays a reader maps, never the
    # derived sections nor the unread int64 copy of adj_indices.
    assert info.array_bytes == sum(
        info.sections[name].nbytes
        for name in ("out_indptr", "out_indices", "out_labels",
                     "inc_indptr", "inc_indices", "inc_labels",
                     "adj_indptr", "adj_indices", "adj_labels",
                     "adj_degree")
    )
    assert "adj_indices64" in info.sections


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------
def test_truncated_store_is_rejected(store_path, tmp_path):
    clone = tmp_path / "trunc.csrstore"
    shutil.copyfile(store_path, clone)
    size = os.path.getsize(clone)
    with open(clone, "r+b") as handle:
        handle.truncate(size // 2)
    with pytest.raises(CSRStoreError, match="truncated"):
        open_store(clone)


def test_bad_magic_is_rejected(store_path, tmp_path):
    clone = tmp_path / "magic.csrstore"
    shutil.copyfile(store_path, clone)
    with open(clone, "r+b") as handle:
        handle.write(b"NOTSTORE")
    with pytest.raises(CSRStoreError, match="magic"):
        read_info(clone)


def test_version_mismatch_is_rejected(store_path, tmp_path):
    clone = tmp_path / "version.csrstore"
    shutil.copyfile(store_path, clone)
    with open(clone, "r+b") as handle:
        handle.seek(len(MAGIC))
        handle.write(struct.pack("<I", 99))
    with pytest.raises(CSRStoreError, match="version"):
        open_store(clone)


def test_corrupt_header_is_rejected(store_path, tmp_path):
    clone = tmp_path / "header.csrstore"
    shutil.copyfile(store_path, clone)
    with open(clone, "r+b") as handle:
        handle.seek(len(MAGIC) + 8)
        handle.write(b"\xff\xff\xff\xff")
    with pytest.raises(CSRStoreError):
        read_info(clone)


# ---------------------------------------------------------------------------
# Streaming builder parity
# ---------------------------------------------------------------------------
def test_streaming_generator_matches_in_ram_build(tmp_path):
    config = WikiKBConfig(
        name="stream-parity", seed=11,
        n_papers=70, n_people=30, n_misc=25, n_venues=6, n_orgs=6,
    )
    expected, _ = wiki_like_kb(config)
    # Tiny chunk/window sizes force many spill runs and merge windows.
    info, _ = build_wiki_kb_store(
        tmp_path / "p.csrstore", config, chunk_edges=97, window_rows=64,
    )
    assert info.n_nodes == expected.n_nodes
    assert info.n_edges == expected.n_edges
    streamed = open_store(tmp_path / "p.csrstore")
    _assert_graphs_bitwise_equal(streamed, expected)
    streamed.validate()


def test_streaming_builder_dedups_like_graphbuilder(tmp_path):
    in_ram = GraphBuilder()
    streaming = StreamingGraphBuilder(chunk_edges=3, window_rows=2)
    for builder in (in_ram, streaming):
        nodes = [builder.add_node(f"node {i}") for i in range(5)]
        for _ in range(3):  # duplicate triples collapse to one edge
            builder.add_edge(nodes[0], nodes[1], "dup")
        builder.add_edge(nodes[1], nodes[0], "dup")  # reverse is distinct
        builder.add_edge(nodes[2], nodes[3], "other")
        builder.add_edge(nodes[3], nodes[2], "dup")
    expected = in_ram.build()
    info = streaming.finalize(tmp_path / "d.csrstore")
    assert info.n_edges == expected.n_edges == 4
    _assert_graphs_bitwise_equal(open_store(tmp_path / "d.csrstore"), expected)


def test_streaming_builder_validation_errors(tmp_path):
    builder = StreamingGraphBuilder()
    try:
        a, b = builder.add_node("a"), builder.add_node("b")
        with pytest.raises(ValueError, match="self-loop"):
            builder.add_edge(a, a, "p")
        with pytest.raises(ValueError, match="out of range"):
            builder.add_edge(a, 99, "p")
        with pytest.raises(ValueError, match="unknown predicate"):
            builder.add_edge(a, b, 7)
        assert builder.add_node("b-again", key="k") == builder.add_node(
            "ignored", key="k"
        )
        builder.finalize(tmp_path / "v.csrstore")
        with pytest.raises(RuntimeError, match="finalized"):
            builder.add_edge(a, b, "p")
        with pytest.raises(RuntimeError, match="once"):
            builder.finalize(tmp_path / "v2.csrstore")
    finally:
        builder.close()


# ---------------------------------------------------------------------------
# Backend parity on mmap-opened graphs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 4, 9])
def test_all_backends_bitwise_identical_on_mmap_store(tmp_path, seed):
    graph = _fuzz_kb(seed)
    path = tmp_path / ("g" + STORE_SUFFIX)
    save_store(graph, path)
    mapped = open_store(path)
    q = 2 + seed % 7
    sets, activation, k = _fuzz_problem(graph, seed * 17 + 5, q)
    reference = _run_backend(SequentialBackend(), graph, sets, activation, k)
    contenders = {
        "sequential": SequentialBackend(),
        "threads": ThreadPoolBackend(n_threads=2),
        "vectorized": VectorizedBackend(),
    }
    for name, backend in contenders.items():
        result = _run_backend(backend, mapped, sets, activation, k)
        assert np.array_equal(
            result.state.matrix, reference.state.matrix
        ), f"{name}: M diverged on mmap store (seed {seed})"
        assert sorted(result.central_nodes) == sorted(reference.central_nodes)
        assert result.depth == reference.depth


# ---------------------------------------------------------------------------
# Text blob
# ---------------------------------------------------------------------------
def test_textblob_sequence_behavior(store_path, kb_graph):
    graph = open_store(store_path)
    blob = graph.node_text
    assert isinstance(blob, TextBlob)
    assert len(blob) == kb_graph.n_nodes
    assert blob[0] == kb_graph.node_text[0]
    assert blob[-1] == kb_graph.node_text[-1]
    assert blob[2:5] == list(kb_graph.node_text[2:5])
    assert list(iter(blob))[:10] == list(kb_graph.node_text[:10])
    with pytest.raises(IndexError):
        blob[len(blob)]


def test_textblob_iterates_in_blocks_like_it_indexes(tmp_path, monkeypatch):
    builder = GraphBuilder()
    texts = ["İstanbul K 300K", "", "naïve café", "日本語 テキスト", "plain ascii"] * 5
    texts.append("")  # an empty entry at the very end of the text section
    for text in texts:
        builder.add_node(text)
    builder.add_edge(0, 1, "p")
    path = tmp_path / ("blob" + STORE_SUFFIX)
    save_store(builder.build(), path)
    blob = open_store(path).node_text
    # Blocks that divide the entries evenly, unevenly, and one block for all.
    for block in (1, 4, len(texts), 8192):
        monkeypatch.setattr(store_module, "_TEXT_ITER_BLOCK", block)
        assert list(blob) == texts
    assert [blob[i] for i in range(len(blob))] == texts
    assert list(TextBlob(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint8))) == []


@pytest.mark.parametrize("mmap", [True, False])
def test_textblob_reads_each_index_as_it_iterates(tmp_path, mmap):
    """Item reads go through memoryviews of the sections: every index,
    negative ones and NumPy integers too, gives the text iteration
    gives; slices are lists; an index out of range raises."""
    builder = GraphBuilder()
    texts = ["İstanbul", "", "naïve café", "日本語 テキスト", "x", "€ 5"] * 3
    for text in texts:
        builder.add_node(text)
    builder.add_edge(0, 1, "p")
    path = tmp_path / ("blob" + STORE_SUFFIX)
    save_store(builder.build(), path)
    blob = open_store(path, mmap=mmap).node_text
    n = len(texts)
    assert list(blob) == texts
    assert [blob[i] for i in range(n)] == texts
    assert [blob[i] for i in range(-n, 0)] == texts
    assert blob[np.int64(3)] == texts[3] and blob[np.int32(-1)] == texts[-1]
    for window in (slice(2, 9), slice(None, None, -2), slice(-4, None), slice(5, 2)):
        assert blob[window] == texts[window]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            blob[index]


def test_opening_a_store_allocates_less_than_a_byte_per_node(tmp_path):
    """Opening maps the sections and checks them; the indptr
    monotonicity check runs block by block, so the open's heap peak
    (tracemalloc) stays under one byte per node. Checked with
    ``np.diff`` it held an int64 and a bool temporary as long as
    ``indptr``: 9 bytes per node, for each of the three adjacencies."""
    import tracemalloc

    from repro.graph.csr import CSRAdjacency, KnowledgeGraph
    from repro.graph.labels import Vocabulary

    n = 150_000
    rng = np.random.default_rng(19)
    sources, targets = rng.integers(0, n, (2, 2 * n))
    labels = np.zeros(2 * n, np.int32)
    both = (
        np.concatenate([sources, targets]),
        np.concatenate([targets, sources]),
        np.concatenate([labels, labels]),
    )
    graph = KnowledgeGraph(
        CSRAdjacency.from_edge_arrays(n, sources, targets, labels),
        CSRAdjacency.from_edge_arrays(n, targets, sources, labels),
        CSRAdjacency.from_edge_arrays(n, *both),
        [""] * n,
        Vocabulary(["p"]),
    )
    path = tmp_path / ("wide" + STORE_SUFFIX)
    save_store(graph, path)
    open_store(path)  # imports and first-use caches outside the window
    tracemalloc.start()
    try:
        opened = open_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opened.n_nodes == n
    assert peak < n, peak


def test_a_decreasing_indptr_is_refused_in_any_block():
    """The blockwise check finds a decrease inside a block and across a
    block boundary."""
    from repro.graph.csr import _MONOTONE_BLOCK, CSRAdjacency

    n = 2 * _MONOTONE_BLOCK + 10
    for at in (5, _MONOTONE_BLOCK, _MONOTONE_BLOCK + 1, n - 1):
        indptr = np.arange(n + 1, dtype=np.int64)
        indptr[at] = indptr[at - 1] - 1 if at > 1 else 0
        indptr[-1] = n
        indices = np.zeros(n, np.int32)
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRAdjacency(indptr, indices, np.zeros(n, np.int32))
    CSRAdjacency(
        np.arange(n + 1, dtype=np.int64), np.zeros(n, np.int32),
        np.zeros(n, np.int32),
    )


def test_npz_and_store_give_the_same_index_and_distance(kb_graph, store_path, tmp_path):
    npz_path = str(tmp_path / "kb")
    save_graph(kb_graph, npz_path)
    from_npz = load_graph(npz_path)
    from_store = load_graph(store_path)
    assert from_store.store is not None and from_npz.store is None

    npz_index = InvertedIndex.from_graph(from_npz)
    store_index = InvertedIndex.from_graph(from_store)
    assert list(store_index.terms) == list(npz_index.terms)
    assert store_index.n_nodes == npz_index.n_nodes
    for term in npz_index.terms:
        ours = store_index.nodes_for_normalized_term(term)
        theirs = npz_index.nodes_for_normalized_term(term)
        assert ours.dtype == theirs.dtype == np.int64
        assert np.array_equal(ours, theirs)

    assert np.array_equal(
        largest_component_nodes(from_store), largest_component_nodes(from_npz)
    )
    for seed in (0, 5):
        assert estimate_average_distance(
            from_store, n_pairs=300, seed=seed
        ) == estimate_average_distance(from_npz, n_pairs=300, seed=seed)


# ---------------------------------------------------------------------------
# Memory accounting (satellite: resident-estimate, not on-disk-as-heap)
# ---------------------------------------------------------------------------
def test_memory_report_distinguishes_mmap_from_heap(kb_graph, store_path):
    in_ram = kb_graph.memory_report()
    assert in_ram["mmap"] is False
    assert in_ram["resident_nbytes"] == in_ram["csr_nbytes"]
    # The CSR arrays and the degree view: no int64 copy of the indices.
    assert in_ram["csr_nbytes"] == (
        kb_graph.out.nbytes + kb_graph.inc.nbytes + kb_graph.adj.nbytes
        + kb_graph.adj.degree_array.nbytes
    )
    assert in_ram["store_path"] is None

    mapped = open_store(store_path).memory_report()
    assert mapped["mmap"] is True
    assert mapped["store_path"] == str(store_path)
    assert mapped["store_bytes"] == os.path.getsize(store_path)
    assert 0 <= mapped["resident_nbytes"] <= mapped["csr_nbytes"]
    assert mapped["csr_nbytes"] == in_ram["csr_nbytes"]


def test_resident_and_allocated_nbytes_helpers(store_path):
    plain = np.arange(1024, dtype=np.int64)
    assert resident_nbytes(plain) is None
    assert allocated_nbytes(plain) == plain.nbytes

    graph = open_store(store_path)
    mapped = graph.adj.indices
    estimate = resident_nbytes(mapped)
    if estimate is not None:  # mincore may be unavailable on some libcs
        assert 0 <= estimate <= mapped.nbytes
        assert allocated_nbytes(mapped) == estimate
    # Touch every page: the whole array must then be resident.
    mapped.sum()
    touched = resident_nbytes(mapped)
    if touched is not None:
        assert touched == mapped.nbytes


def test_search_state_nbytes_counts_heap_exactly():
    state = SearchState.initialize(
        64,
        [np.array([0, 1], dtype=np.int64), np.array([5], dtype=np.int64)],
        np.zeros(64, dtype=np.int32),
    )
    expected = sum(
        a.nbytes
        for a in (
            state.matrix, state.f_identifier, state.c_identifier,
            state.keyword_node, state.central_level, state.activation,
            state.finite_count, state.frontier,
        )
    )
    assert state.nbytes() == expected


def test_a_mapped_activation_is_charged_at_its_resident_bytes(tmp_path):
    """M and the per-node arrays are the arena's and charged from it;
    an activation array that is a store map is still looked at, and
    charged at its resident page estimate, not its size."""
    n = 64 * 1024  # 256 KiB of int32: many pages
    path = tmp_path / "activation.i32"
    np.zeros(n, np.int32).tofile(path)
    activation = np.memmap(path, dtype=np.int32, mode="r", shape=(n,))
    state = SearchState.initialize(
        n, [np.array([0]), np.array([5, 9])], activation, max_activation=0
    )
    heap, mapped = state.fixed_nbytes()
    assert len(mapped) == 1 and mapped[0] is state.activation
    assert memmap_base(state.activation) is activation
    assert heap == state.arena.state_nbytes == sum(
        a.nbytes
        for a in (
            state.matrix, state.f_identifier, state.c_identifier,
            state.keyword_node, state.central_level, state.finite_count,
        )
    )
    assert state.nbytes() == heap + allocated_nbytes(state.activation)
    estimate = resident_nbytes(state.activation)
    if estimate is not None:  # mincore may be unavailable on some libcs
        assert allocated_nbytes(state.activation) == estimate
        assert estimate <= activation.nbytes


def test_statz_reports_storage_section(store_path):
    from repro.core.engine import KeywordSearchEngine
    from repro.obs.metrics import MetricsRegistry
    from repro.service import SearchService
    from repro.text.inverted_index import InvertedIndex

    graph = open_store(store_path)
    engine = KeywordSearchEngine(
        graph,
        index=InvertedIndex.from_graph(graph),
    )
    service = SearchService(engine, registry=MetricsRegistry())
    status, content_type, body = service.handle_path("/statz")
    assert status == 200
    payload = json.loads(body)
    storage = payload["storage"]
    assert storage["mmap"] is True
    assert storage["store_path"] == str(store_path)
    assert storage["resident_nbytes"] <= storage["csr_nbytes"]


# ---------------------------------------------------------------------------
# The sections the kernel reads in place: their dtypes and alignment
# ---------------------------------------------------------------------------
def _kernel_view_problems():
    """What breaks the store sections the kernel is handed as raw
    pointers: the CSR sections must hold the element types the kernel
    declares for ``indptr`` / ``indices`` (``adj_indices64``, written
    for format 2 and never read, and ``adj_degree`` are int64),
    little-endian, and every section must start aligned to its items."""
    from repro.parallel._native import KERNEL_EXPORTS, _ctype

    declared = dict(KERNEL_EXPORTS["fused_expand"][1])
    expected = {
        "adj_indptr": np.dtype(_ctype(declared["indptr"])._dtype_),
        "adj_indices": np.dtype(_ctype(declared["indices"])._dtype_),
        "adj_indices64": np.dtype(np.int64),
        "adj_degree": np.dtype(np.int64),
    }
    problems = []
    dtypes = dict(store_module.SECTION_DTYPES)
    for section, want in expected.items():
        if section not in dtypes:
            problems.append(f"{section} is missing from SECTION_DTYPES")
            continue
        stored = np.dtype(dtypes[section])
        if (stored.kind, stored.itemsize) != (want.kind, want.itemsize):
            problems.append(f"{section} is {stored} on disk, the kernel reads {want}")
        if stored.byteorder == ">":
            problems.append(f"{section} is big-endian on disk")
    every = {**dtypes, **dict(store_module.DERIVED_SECTION_DTYPES)}
    for section, declared_dtype in every.items():
        itemsize = np.dtype(declared_dtype).itemsize
        if store_module.SECTION_ALIGN % itemsize or store_module.HEADER_BLOCK % itemsize:
            problems.append(f"{section} ({itemsize}-byte items) is not kept aligned")
    sections, _ = store_module._section_plan(1000, 5000, 4096, 512)
    for name, section in sections.items():
        if section.offset % store_module.SECTION_ALIGN:
            problems.append(f"_section_plan places {name} at {section.offset}")
    return problems


def test_store_contract_sections_match_kernel_views():
    assert _kernel_view_problems() == []


def test_store_contract_violation_detected(monkeypatch):
    drifted = tuple(
        (name, "<i4" if name == "adj_indptr" else dtype)
        for name, dtype in store_module.SECTION_DTYPES
    )
    monkeypatch.setattr(store_module, "SECTION_DTYPES", drifted)
    problems = _kernel_view_problems()
    assert problems and "adj_indptr" in problems[0]
