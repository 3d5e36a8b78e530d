"""Per-layer spans recorded from outside the program.

The traced pass installs timing wrappers on the module attributes the
program's own callers resolve, so the real ``engine.search`` /
``SearchService.handle_path`` path is timed, not a re-implementation,
and no file under ``src/`` changes. Spans (name, start, end, parent, op)
stay in memory until the pass ends; a layer's self time is its span minus
the part its direct children cover. Counts are taken from the values the
wrapped calls return (``LevelOutcome.counters``, ``SearchResult``), so
ratios are measured where the work happens and repeat exactly.
"""

from __future__ import annotations

import functools
import statistics
import types
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

SETUP_OP = -1


class Recorder:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, int]] = {}
        self.op = SETUP_OP
        #: Off = installed wrappers call straight through.
        self.on = True
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        counts = self.counts.setdefault(self.op, {})
        counts[name] = counts.get(name, 0) + int(value)


def timed(
    recorder: Recorder,
    name: str,
    fn: Callable,
    tally: Optional[Callable[[Recorder, object], None]] = None,
) -> Callable:
    """``fn`` inside a span; ``tally`` reads counts off its return value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.on:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if tally is not None:
            tally(recorder, result)
        return result

    return wrapper


def _wrap_classmethod(cls, attr: str, recorder: Recorder, name: str) -> None:
    setattr(cls, attr, staticmethod(timed(recorder, name, getattr(cls, attr))))


def install_setup(recorder: Recorder) -> None:
    """Spans around the set-up calls the engine constructor and the first
    query make. ``load_graph`` / ``load_index`` are called by the
    benchmark's own child and wrapped there."""
    import repro.core.engine as engine_module
    import repro.parallel._native as native_module
    from repro.core.activation import ActivationModel
    from repro.text.inverted_index import InvertedIndex

    _wrap_classmethod(InvertedIndex, "from_graph", recorder, "text.index_build")
    _wrap_classmethod(ActivationModel, "from_weights", recorder, "activation.build")
    engine_module.node_weights = timed(
        recorder, "weights.build", engine_module.node_weights
    )
    engine_module.estimate_average_distance = timed(
        recorder, "graph.distance_sample", engine_module.estimate_average_distance
    )
    native_module.load_kernel = timed(
        recorder, "parallel.kernel_load", native_module.load_kernel
    )


def _tally_resolve(recorder: Recorder, pairs) -> None:
    recorder.count("text.postings", sum(len(nodes) for _, nodes in pairs))


def _tally_level(recorder: Recorder, outcome) -> None:
    recorder.count("parallel.levels", 1)
    counters = outcome.counters
    if counters is not None:
        recorder.count("parallel.edges_gathered", counters.edges_gathered)
        recorder.count("parallel.pairs_hit", counters.pairs_hit)
        recorder.count("parallel.duplicates_elided", counters.duplicates_elided)


def _tally_extract(recorder: Recorder, central_graph) -> None:
    recorder.count("top_down.extracted_graphs", 1)
    recorder.count("top_down.extracted_nodes", central_graph.n_nodes)


def _tally_search(recorder: Recorder, result) -> None:
    recorder.count("top_down.central_nodes", result.n_central_nodes)
    recorder.count("top_down.answers", len(result.answers))
    recorder.count("bottom_up.depth", result.depth)
    recorder.count("state.nbytes", result.peak_state_nbytes)


def _tally_response(recorder: Recorder, response) -> None:
    recorder.count("service.response_bytes", len(response[2].encode("utf-8")))


def install_query(recorder: Recorder, engine) -> None:
    """Spans on the query path of ``engine`` (and every engine's stage two)."""
    import repro.core.engine as engine_module
    import repro.core.top_down as top_down
    import repro.text.query_parser as query_parser
    from repro.core.bottom_up import BottomUpSearch
    from repro.core.state import SearchState

    engine.search = timed(recorder, "engine.search", engine.search, _tally_search)
    # ``search`` imports these two at call time, from this module.
    query_parser.parse_query = timed(
        recorder, "text.parse", query_parser.parse_query
    )
    query_parser.resolve_keyword_groups = timed(
        recorder, "text.parse", query_parser.resolve_keyword_groups, _tally_resolve
    )
    BottomUpSearch.run = timed(recorder, "bottom_up", BottomUpSearch.run)
    _wrap_classmethod(SearchState, "initialize", recorder, "state.init")
    engine.backend.run_level = timed(
        recorder, "parallel.run_level", engine.backend.run_level, _tally_level
    )
    engine_module.process_top_down = timed(
        recorder, "top_down", engine_module.process_top_down
    )
    for attr, name, tally in (
        ("HittingDAG", "top_down.dag_build", None),
        ("extract_central_graph", "top_down.extract", _tally_extract),
        ("level_cover_prune", "top_down.level_cover", None),
        ("deduplicate_by_containment", "top_down.dedup", None),
        ("central_graph_score", "top_down.score", None),
    ):
        setattr(top_down, attr, timed(recorder, name, getattr(top_down, attr), tally))


def install_service(recorder: Recorder) -> None:
    import json

    import repro.service as service_module

    cls = service_module.SearchService
    cls.handle_path = timed(
        recorder, "service.handle_path", cls.handle_path, _tally_response
    )
    cls.answer_payload = timed(recorder, "service.payload", cls.answer_payload)
    service_module.json = types.SimpleNamespace(
        dumps=timed(recorder, "service.json", json.dumps), loads=json.loads
    )


class Rollup:
    """Per-op totals and self times by span name."""

    def __init__(self, recorder: Recorder) -> None:
        spans = recorder.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.total: Dict[int, Dict[str, float]] = {}
        self.self_time: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, _, op) in enumerate(spans):
            duration = end - start
            totals = self.total.setdefault(op, {})
            totals[name] = totals.get(name, 0.0) + duration
            selfs = self.self_time.setdefault(op, {})
            selfs[name] = selfs.get(name, 0.0) + duration - covered[index]
        self.counts = recorder.counts

    def median_ms(
        self, ops: range, n_queries: int, name: str, self_only: bool = False
    ) -> float:
        """Median over queries of the best per-op time any pass gave
        (``ops`` cycles through ``n_queries`` queries in order): the
        undisturbed time, see :mod:`noise`."""
        table = self.self_time if self_only else self.total
        best = [float("inf")] * min(n_queries, len(ops))
        for offset, op in enumerate(ops):
            query = offset % n_queries
            best[query] = min(best[query], table[op].get(name, 0.0))
        return 1e3 * statistics.median(best)

    def sum_s(self, ops: Iterable[int], name: str, self_only: bool = False) -> float:
        table = self.self_time if self_only else self.total
        return sum(table[op].get(name, 0.0) for op in ops)

    def median_count(self, ops: Iterable[int], name: str) -> float:
        return statistics.median(self.counts[op].get(name, 0) for op in ops)

    def sum_count(self, ops: Iterable[int], name: str) -> int:
        return sum(self.counts[op].get(name, 0) for op in ops)

    def setup_ms(self, name: str) -> float:
        return 1e3 * self.total.get(SETUP_OP, {}).get(name, 0.0)
