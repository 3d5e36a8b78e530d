"""End-to-end KeywordSearchEngine behaviour."""

import numpy as np
import pytest

from repro.core.engine import (
    ACTIVATION_CACHE_SIZE,
    EmptyQueryError,
    EngineConfig,
    KeywordSearchEngine,
)
from repro.core.state import MAX_KEYWORDS, TooManyKeywordsError
from repro.parallel import (
    NativeKernelUnavailable,
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)

from conftest import keyword_star, zero_activation


@pytest.fixture(scope="module")
def engine(request):
    tiny_kb = request.getfixturevalue("tiny_kb")
    graph, _ = tiny_kb
    return KeywordSearchEngine(graph)


def test_fig1_end_to_end(fig1):
    engine = KeywordSearchEngine(fig1.graph, backend=SequentialBackend())
    result = engine.search(
        "xml rdf sql", k=1, activation_override=fig1.activation
    )
    assert result.keywords == ("xml", "rdf", "sql")
    assert result.depth == fig1.expected_depth
    top = result.answers[0].graph
    assert top.central_node == fig1.central_node
    assert 9 in top.nodes and 4 in top.nodes and 5 in top.nodes


def test_default_engine_runs_the_production_route(engine):
    """No backend argument means the vectorized backend — and the same
    ranked answers as the per-node reference named explicitly."""
    assert type(engine.backend) is VectorizedBackend
    reference = KeywordSearchEngine(
        engine.graph,
        backend=SequentialBackend(),
        config=EngineConfig(top_down_native=False),
        index=engine.index,
        weights=engine.weights,
        average_distance=engine.average_distance,
    )
    for query in ("machine learning data", "knowledge graph query database"):
        got = engine.search(query, k=5)
        want = reference.search(query, k=5)
        assert got.answers, query
        assert (got.depth, got.n_central_nodes) == (
            want.depth, want.n_central_nodes
        )
        assert [
            (a.graph.central_node, a.score, a.graph.nodes, a.graph.edges)
            for a in got.answers
        ] == [
            (a.graph.central_node, a.score, a.graph.nodes, a.graph.edges)
            for a in want.answers
        ]


def test_unknown_terms_dropped(engine):
    result = engine.search("database xyzzyplugh", k=3)
    assert "xyzzyplugh" in result.dropped_terms
    assert result.keywords == ("databas",)


def test_all_terms_unknown_raises(engine):
    with pytest.raises(EmptyQueryError):
        engine.search("qqqq zzzz")


def test_empty_query_raises(engine):
    with pytest.raises(EmptyQueryError):
        engine.search("the of and")  # all stopwords


def test_k_limits_answer_count(engine):
    result = engine.search("machine learning data", k=4)
    assert len(result.answers) <= 4
    assert len(result) == len(result.answers)


def test_answers_sorted_by_score(engine):
    result = engine.search("knowledge graph query", k=10)
    scores = [answer.score for answer in result.answers]
    assert scores == sorted(scores)


def test_every_answer_covers_all_keywords(engine):
    result = engine.search("machine learning translation", k=10)
    q = len(result.keywords)
    for answer in result.answers:
        assert answer.graph.covers_all(q)
        assert answer.graph.all_nodes_reach_central()


def test_search_terms_equivalent_to_search(engine):
    a = engine.search("knowledge base sparql", k=5)
    b = engine.search_terms(["knowledge", "base", "sparql"], k=5)
    assert [x.graph.central_node for x in a.answers] == [
        x.graph.central_node for x in b.answers
    ]


def test_alpha_cache_reused(engine):
    first = engine.activation_for(0.1)
    second = engine.activation_for(0.1)
    assert first is second
    other = engine.activation_for(0.4)
    assert other is not first
    assert (other <= first).all()


def test_alpha_cache_is_bounded_and_read_only(tiny_kb):
    """``alpha`` is a free request parameter and each mapping is 4·|V|
    bytes: the cache keeps the most recently used few, read-only because
    every query at that α shares the array."""
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph, average_distance=3.0)
    default = engine.activation_for(0.1)
    for alpha in np.linspace(0.01, 0.99, 50):
        levels = engine.activation_for(float(alpha))
        engine.activation_for(0.1)  # keeps being used: never evicted
        assert not levels.flags.writeable
        assert len(engine._activation_cache) <= ACTIVATION_CACHE_SIZE
    assert len(engine._activation_cache) == ACTIVATION_CACHE_SIZE
    assert engine.activation_for(0.1) is default
    with pytest.raises(ValueError):
        default[0] = 7
    # The oldest values were evicted and are recomputed equal.
    assert 0.01 not in engine._activation_cache
    again = engine.activation_for(0.01)
    fresh = KeywordSearchEngine(
        graph, index=engine.index, weights=engine.weights, average_distance=3.0
    )
    assert np.array_equal(again, fresh.activation_for(0.01))


def test_state_takes_the_activation_maximum_cached_per_alpha(
    engine, monkeypatch
):
    """A query's state is handed the maximum cached beside its α's levels
    (no per-query pass over |V|); an override still gets it computed."""
    from repro.core.state import SearchState

    passed = []
    real = SearchState.initialize.__func__

    def spy(cls, n_nodes, sets, activation, max_activation=None, **arena):
        passed.append(max_activation)
        return real(cls, n_nodes, sets, activation, max_activation, **arena)

    monkeypatch.setattr(SearchState, "initialize", classmethod(spy))
    for alpha in (0.1, 0.4, 0.1):
        result = engine.search("machine learning", k=3, alpha=alpha)
        levels = engine.activation_for(alpha)
        assert passed[-1] == int(levels.max()) > 0
        assert result.answers
    override = np.zeros(engine.graph.n_nodes, dtype=np.int32)
    engine.search("machine learning", k=3, activation_override=override)
    assert passed[-1] is None


def test_threads_missing_the_same_alpha_get_equal_arrays(tiny_kb):
    import threading

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(
        graph, average_distance=3.0
    )
    expected = engine.search("machine learning", k=3, alpha=0.3)
    for alpha in (0.37, 0.42, 0.58):  # none cached yet
        barrier = threading.Barrier(2)
        got, errors = [None, None], []

        def client(i, alpha=alpha, barrier=barrier, got=got):
            try:
                barrier.wait(timeout=30)
                levels = engine.activation_for(alpha)
                result = engine.search("machine learning", k=3, alpha=0.3)
                got[i] = (levels, result)
            except Exception as error:  # reported by the main thread
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert np.array_equal(got[0][0], got[1][0])
        assert not got[0][0].flags.writeable
        for _, result in got:
            assert [a.graph.central_node for a in result.answers] == [
                a.graph.central_node for a in expected.answers
            ]
            assert [a.graph.score for a in result.answers] == [
                a.graph.score for a in expected.answers
            ]


def test_a_fresh_service_reports_no_kernel_metrics_before_its_first_search(
    tiny_kb,
):
    """Distance sampling drives the expansion kernel at set-up; that is
    not query work and must not show up in ``repro_kernel_*``: a fresh
    service's ``/metrics`` has none until it serves a ``/search``."""
    from repro.service import SearchService

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(graph)
    assert engine.average_distance > 0  # the sampler did run
    service = SearchService(engine)
    assert "repro_kernel_" not in service.handle_path("/metrics")[2]
    status, _, _ = service.handle_path("/search?q=machine+learning&k=60")
    assert status == 200
    text = service.handle_path("/metrics")[2]
    assert "repro_kernel_edges_gathered_total" in text
    assert "repro_kernel_pairs_hit_total" in text


def test_duplicate_terms_collapse(engine):
    result = engine.search("learning learning learning", k=2)
    assert result.keywords == ("learn",)


def test_timer_has_all_phases(engine):
    result = engine.search("graph database", k=3)
    ms = result.milliseconds()
    for phase in (
        "initialization",
        "enqueuing_frontiers",
        "identifying_central_nodes",
        "expansion",
        "top_down_processing",
        "total",
    ):
        assert phase in ms
    assert ms["total"] >= ms["expansion"]


@pytest.mark.parametrize(
    "route", [SequentialBackend, VectorizedBackend, ThreadPoolBackend]
)
def test_every_route_times_all_six_phases(tiny_kb, route):
    """Every completed search's timer carries each of ``ALL_PHASES`` on
    each stage-one route, a search that stops at level 0 included: so
    a per-phase mean over search timers never mixes absent with 0 ms."""
    from repro.instrumentation import ALL_PHASES

    graph, _ = tiny_kb
    backend = route()
    engine = KeywordSearchEngine(graph, backend=backend)
    with backend:
        for query, k in (("machine", 1), ("graph database", 3),
                         ("machine learning", 60)):
            result = engine.search(query, k=k)
            assert set(result.timer.seconds) == set(ALL_PHASES), route


def test_storage_report_scales_with_knum(engine):
    small = engine.storage_report(knum=2)
    large = engine.storage_report(knum=10)
    assert small.pre_storage == large.pre_storage
    assert large.max_running_storage > small.max_running_storage
    assert large.overhead_ratio > 1.0
    mb = large.as_megabytes()
    assert mb["pre_storage_mb"] > 0


def test_weights_length_validated(tiny_graph):
    with pytest.raises(ValueError):
        KeywordSearchEngine(
            tiny_graph, weights=np.zeros(3), average_distance=3.0
        )


@pytest.mark.parametrize(
    "make_weights",
    [lambda w: w.astype(np.float32), lambda w: np.repeat(w, 2)[::2]],
    ids=["float32", "strided"],
)
def test_weights_of_any_dtype_and_layout_are_normalised_once(
    tiny_kb, make_weights
):
    """The batch kernel reads ``weights`` as ``double*``: whatever the
    caller hands over becomes one C-contiguous float64 array at
    construction, and the answers are the reference route's."""
    graph, _ = tiny_kb
    given = make_weights(KeywordSearchEngine(graph).weights)
    engine, reference = (
        KeywordSearchEngine(
            graph,
            weights=given,
            average_distance=3.0,
            config=EngineConfig(top_down_native=native),
        )
        for native in (None, False)
    )
    assert engine.weights.dtype == np.float64
    assert engine.weights.flags.c_contiguous
    assert np.array_equal(engine.weights, given)
    got = engine.search("machine learning data", k=5)
    want = reference.search("machine learning data", k=5)
    assert [(a.graph.central_node, a.score, a.graph.nodes) for a in got.answers] == [
        (a.graph.central_node, a.score, a.graph.nodes) for a in want.answers
    ]


def test_engine_accepts_precomputed_artifacts(tiny_kb):
    graph, _ = tiny_kb
    base = KeywordSearchEngine(graph)
    clone = KeywordSearchEngine(
        graph,
        index=base.index,
        weights=base.weights,
        average_distance=base.average_distance,
    )
    a = base.search("machine learning", k=3)
    b = clone.search("machine learning", k=3)
    assert [x.graph.central_node for x in a.answers] == [
        x.graph.central_node for x in b.answers
    ]


def test_config_defaults_applied(tiny_kb):
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(
        graph, config=EngineConfig(topk=2, alpha=0.4)
    )
    result = engine.search("machine learning data")
    assert len(result.answers) <= 2


@pytest.mark.parametrize(
    "backend",
    [VectorizedBackend, lambda: ThreadPoolBackend(n_threads=2), SequentialBackend],
    ids=["vectorized", "threads", "sequential"],
)
def test_a_query_may_have_64_keywords_but_not_65(backend):
    """q = 64 fills the kernel's eight lane words and every bit of a
    live-lane mask; one more keyword group is refused with a message,
    on every route, before any state is built."""
    assert MAX_KEYWORDS == 64
    graph, words = keyword_star(65)
    with backend() as chosen:
        engine = KeywordSearchEngine(graph, backend=chosen, average_distance=2.0)
        result = engine.search(" ".join(words[:64]), k=1)
        assert len(result.keywords) == 64
        assert [a.graph.central_node for a in result.answers] == [0]
        assert result.answers[0].graph.n_nodes == 65
        assert result.level_profile[0].live_lanes == (1 << 64) - 1
        with pytest.raises(TooManyKeywordsError, match="at most 64 keywords"):
            engine.search(" ".join(words), k=1)
    assert issubclass(TooManyKeywordsError, ValueError)


def test_a_host_without_the_kernel_fails_at_construction(
    monkeypatch, tiny_kb, tmp_path
):
    """Every route needs the compiled kernel: with none to load, building
    an engine raises one error that names the compilers it tried."""
    from repro.parallel import _native, vectorized

    monkeypatch.setattr(vectorized, "_NATIVE_KERNEL", None)
    # Nothing cached, and a source no compiler can build.
    monkeypatch.setattr(_native, "_BUILD_DIR", tmp_path)
    broken = tmp_path / "_kernel.c"
    broken.write_text("this is not C\n", encoding="utf-8")
    monkeypatch.setattr(_native, "_SOURCE_PATH", broken)
    monkeypatch.setenv("CC", "no-such-cc")
    graph, _ = tiny_kb
    with pytest.raises(NativeKernelUnavailable) as raised:
        KeywordSearchEngine(graph, average_distance=3.0)
    message = str(raised.value)
    for compiler in ("no-such-cc", "cc", "gcc", "clang"):
        assert compiler in message
    assert isinstance(raised.value, RuntimeError)
