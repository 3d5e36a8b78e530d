"""Batch query executor."""

import pytest

from repro.core.batch import BatchSearcher
from repro.core.engine import KeywordSearchEngine


@pytest.fixture(scope="module")
def engine(request):
    graph, _ = request.getfixturevalue("tiny_kb")
    return KeywordSearchEngine(graph)


def test_batch_preserves_order_and_length(engine):
    queries = ["machine learning", "knowledge graph", "machine learning"]
    report = BatchSearcher(engine).run(queries, k=3)
    assert len(report.results) == 3
    assert report.unique_queries == 2
    assert report.n_answered == 3


def test_duplicate_queries_share_one_result_object(engine):
    queries = ["machine learning", "machine learning"]
    report = BatchSearcher(engine).run(queries, k=2)
    assert report.results[0] is report.results[1]


def test_failures_recorded_not_raised(engine):
    report = BatchSearcher(engine).run(
        ["machine learning", "zzzz qqqq"], k=2
    )
    assert report.results[1] is None
    assert "zzzz qqqq" in report.failures
    assert report.n_answered == 1


def test_parallel_matches_serial(engine):
    queries = ["machine learning", "knowledge graph", "data mining",
               "gradient descent"]
    serial = BatchSearcher(engine, n_workers=1).run(queries, k=5)
    parallel = BatchSearcher(engine, n_workers=4).run(queries, k=5)
    for a, b in zip(serial.results, parallel.results):
        assert [x.graph.central_node for x in a.answers] == [
            x.graph.central_node for x in b.answers
        ]


def test_report_timing_helpers(engine):
    report = BatchSearcher(engine).run(["machine learning"], k=2)
    assert report.total_milliseconds() > 0
    assert report.mean_milliseconds() == report.total_milliseconds()
    empty = BatchSearcher(engine).run(["zzzz"], k=2)
    assert empty.mean_milliseconds() == 0.0


def test_invalid_worker_count(engine):
    with pytest.raises(ValueError):
        BatchSearcher(engine, n_workers=0)
