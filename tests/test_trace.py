"""The per-level account of the bottom-up loop (``level_profile``) and
its Fig. 4-style text (``describe_levels``).

The expected values were recorded from the per-level observer the loop
used to feed, before it was deleted: the loop's own records must tell
the same story, text included.
"""

import numpy as np

from repro.core.bottom_up import BottomUpSearch, describe_levels
from repro.core.results import SearchResult
from repro.graph.generators import chain_graph
from repro.instrumentation import KernelCounters
from repro.obs.tracing import render_chrome_trace
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend

from conftest import zero_activation


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def _rows(result):
    return [
        (o.level, o.frontier_size, o.new_hits, o.new_central)
        for o in result.level_profile
    ]


def _kernel_rows(result):
    return [
        None
        if o.counters is None
        else (
            o.counters.sources_pruned,
            o.counters.edges_gathered,
            o.counters.pairs_hit,
            o.counters.duplicates_elided,
        )
        for o in result.level_profile
    ]


_BACKENDS = {
    "sequential": SequentialBackend,
    "native": VectorizedBackend,
    "threads": lambda: ThreadPoolBackend(n_threads=1),
}

CHAIN_ROWS = [(0, 2, 2, []), (1, 2, 2, []), (2, 1, 0, [(2, 2)])]
CHAIN_KERNEL = [(0, 2, 2, 0), (0, 4, 2, 0), None]
CHAIN_TEXT = (
    "level  frontier  new_hits  central_nodes\n"
    "    0         2         2  -\n"
    "    1         2         2  -\n"
    "    2         1         0  v2(d=2)"
)

FIG1_ROWS = [
    (0, 4, 0, []),
    (1, 4, 4, []),
    (2, 7, 0, []),
    (3, 7, 4, []),
    (4, 2, 0, [(2, 4)]),
]
FIG1_KERNEL = [(0, 1, 0, 0), (0, 6, 4, 0), (0, 10, 0, 0), (0, 12, 4, 4), None]
FIG1_TEXT = (
    "level  frontier  new_hits  central_nodes\n"
    "    0         4         0  -\n"
    "    1         4         4  -\n"
    "    2         7         0  -\n"
    "    3         7         4  -\n"
    "    4         2         0  v2(d=4)"
)


def test_trace_on_chain():
    chain = chain_graph(5)
    for name, make in _BACKENDS.items():
        result = BottomUpSearch(chain, backend=make()).run(
            _sets([0], [4]), zero_activation(chain), k=1
        )
        # Levels 0, 1, 2 (central found at 2); level-0 expansion hits v1
        # and v3 (2 cells); level-1 hits v2 twice.
        assert _rows(result) == CHAIN_ROWS, name
        assert describe_levels(result.level_profile) == CHAIN_TEXT, name
        expected = [None] * 3 if name == "sequential" else CHAIN_KERNEL
        assert _kernel_rows(result) == expected, name


def test_trace_fig1(fig1):
    for name, make in _BACKENDS.items():
        result = BottomUpSearch(fig1.graph, backend=make()).run(
            _sets(*fig1.keyword_nodes), fig1.activation, k=1
        )
        # Example 4: no hits at level 0 (v3 inactive), hits start at
        # level 1.
        assert _rows(result) == FIG1_ROWS, name
        expected = [None] * 5 if name == "sequential" else FIG1_KERNEL
        assert _kernel_rows(result) == expected, name
        # Counting backends report the kernel's exact gather, the
        # reference the frontier's degree sum.
        for outcome in result.level_profile:
            if outcome.counters is not None:
                assert outcome.edges_scanned == outcome.counters.edges_gathered
                assert outcome.new_hits == outcome.counters.pairs_hit
            assert outcome.expanded or outcome.edges_scanned == 0


def test_trace_describe_format(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    text = describe_levels(result.level_profile)
    assert text == FIG1_TEXT
    assert len(text.splitlines()) == len(result.level_profile) + 1


def test_describe_levels_collapses_long_central_lists():
    from repro.parallel.backend import LevelOutcome

    found = [(node, 3) for node in range(9)]
    text = describe_levels([LevelOutcome(3, 12, found)], max_centrals_shown=2)
    assert text.splitlines()[1] == (
        "    3        12         0  v0(d=3), v1(d=3) (+7 more)"
    )


def test_level_spans_carry_the_level_profile(fig1):
    """The trace's ``level`` events are a view of ``level_profile``:
    same rows, same keys, kernel counters appended on counting
    backends."""
    run = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    result = SearchResult(
        answers=[],
        keywords=tuple(f"k{i}" for i in range(len(fig1.keyword_nodes))),
        dropped_terms=(),
        depth=run.depth,
        n_central_nodes=run.state.n_central_nodes,
        terminated=run.terminated,
        timer=run.timer,
        peak_state_nbytes=run.peak_state_nbytes,
        level_profile=run.level_profile,
    )
    events = [
        e for e in render_chrome_trace(result)["traceEvents"]
        if e["name"] == "level"
    ]
    assert len(events) == len(run.level_profile)
    for event, outcome in zip(events, run.level_profile):
        expected = {"level": outcome.level, **outcome.account()}
        if outcome.counters is not None:
            expected.update(outcome.counters.as_dict())
        assert event["args"] == expected
        assert list(event["args"])[:5] == [
            "level", "frontier_size", "edges_scanned", "new_hits", "new_central",
        ]
    assert KernelCounters().as_dict().keys() <= events[0]["args"].keys()