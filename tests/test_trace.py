"""The per-level account of the bottom-up loop (``level_profile``) and
its Fig. 4-style text (``describe_levels``).

The expected values were recorded from the per-level observer the loop
used to feed, before it was deleted: the loop's own records must tell
the same story, text included.
"""

import numpy as np

from repro.core.bottom_up import BottomUpSearch, describe_levels
from repro.graph.generators import chain_graph
from repro.instrumentation import KernelCounters, PhaseTimer
from repro.obs.tracing import Tracer
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


def test_tracer_on_the_timer_changes_nothing(fig1):
    plain = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    traced = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1,
        timer=PhaseTimer(tracer=Tracer(enabled=True)),
    )
    assert plain.central_nodes == traced.central_nodes
    assert np.array_equal(plain.state.matrix, traced.state.matrix)
    assert plain.level_profile == traced.level_profile
    assert list(plain.timer.seconds) == list(traced.timer.seconds)


def test_describe_levels_collapses_long_central_lists():
    from repro.parallel.backend import LevelOutcome

    found = [(node, 3) for node in range(9)]
    text = describe_levels([LevelOutcome(3, 12, found)], max_centrals_shown=2)
    assert text.splitlines()[1] == (
        "    3        12         0  v0(d=3), v1(d=3) (+7 more)"
    )


def test_level_spans_carry_the_level_profile(fig1):
    """The ``level`` spans are a view of ``level_profile``: same rows,
    same keys, kernel counters appended on counting backends."""
    tracer = Tracer(enabled=True)
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes),
        fig1.activation,
        k=1,
        timer=PhaseTimer(tracer=tracer),
    )
    spans = [s for s in tracer.finished_spans() if s.name == "level"]
    assert len(spans) == len(result.level_profile)
    for span, outcome in zip(spans, result.level_profile):
        expected = {"level": outcome.level, **outcome.as_span_attributes()}
        if outcome.counters is not None:
            expected.update(outcome.counters.as_dict())
        assert span.attrs == expected
        assert list(span.attrs)[:5] == [
            "level", "frontier_size", "edges_scanned", "new_hits", "new_central",
        ]
    assert KernelCounters().as_dict().keys() <= spans[0].attrs.keys()
