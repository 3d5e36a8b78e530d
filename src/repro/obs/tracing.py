"""A query's Chrome trace, rendered from its :class:`SearchResult`.

The engine carries no tracer: every query already keeps its one account
in the :class:`~repro.core.results.SearchResult` it returns — each phase
entry's window on the ``PhaseTimer``, each BFS level's
:class:`~repro.parallel.backend.LevelOutcome`, stage two's counts. This
module renders that account as **Chrome trace-event JSON** (open it in
Perfetto or ``chrome://tracing``) after the search has returned, so a
traced query runs exactly the code an untraced one runs.

Typical use (what ``repro profile --trace`` does)::

    result = engine.search("xml rdf sql")
    payload = render_chrome_trace(result, k=20)
    validate_chrome_trace(payload)
    with open("query.trace.json", "w") as handle:
        json.dump(payload, handle)
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List

from ..instrumentation import (
    PHASE_ENQUEUE,
    PHASE_EXPANSION,
    PHASE_IDENTIFY,
    PHASE_TOP_DOWN,
    PHASE_TOTAL,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import SearchResult

#: The phases a bottom-up level enters; a level's first window opens it.
_LEVEL_PHASES = frozenset((PHASE_ENQUEUE, PHASE_IDENTIFY, PHASE_EXPANSION))


def _event(name: str, start: float, end: float, epoch: float, args: dict) -> dict:
    return {
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": (start - epoch) * 1e6,
        "dur": (end - start) * 1e6,
        "pid": os.getpid(),
        "tid": 0,
        "args": args,
    }


def render_chrome_trace(
    result: "SearchResult", **query_args: object
) -> Dict[str, object]:
    """``result`` as one Chrome trace-event JSON object.

    Complete (``"ph": "X"``) events, microseconds from the query's first
    phase entry:

    * ``query`` — over the ``total`` window, with the result's depth,
      Central Node and answer counts, termination reason, and
      ``query_args`` (what the caller asked, e.g. ``k``);
    * ``phase:<name>`` — one per timer window, so each phase's
      durations sum to ``result.timer.seconds[name]``;
      ``phase:top_down_processing`` carries stage two's counts;
    * ``level`` — one per ``result.level_profile`` entry, with the
      level's account and kernel counters as ``args``. A level starts
      at its first phase window and lasts its ``seconds``, cut short at
      the next level's first window.
    """
    windows = result.timer.windows
    epoch = min((start for _, start, _ in windows), default=0.0)
    events: List[dict] = []
    stage_two = result.stage_two.as_dict()
    for name, start, end in windows:
        if name == PHASE_TOTAL:
            events.append(
                _event(
                    "query",
                    start,
                    end,
                    epoch,
                    {
                        "knum": len(result.keywords),
                        "depth": result.depth,
                        "n_central_nodes": result.n_central_nodes,
                        "n_answers": len(result.answers),
                        "terminated": result.terminated,
                        **query_args,
                    },
                )
            )
        args = dict(stage_two) if name == PHASE_TOP_DOWN else {}
        events.append(_event("phase:" + name, start, end, epoch, args))

    level_starts = sorted(
        start for name, start, _ in windows if name in _LEVEL_PHASES
    )
    n_starts = len(level_starts)
    cursor = 0
    for outcome in result.level_profile:
        if cursor == n_starts:
            break
        start = level_starts[cursor]
        end = start + outcome.seconds
        cursor += 1
        while cursor < n_starts and level_starts[cursor] < end:
            cursor += 1
        if cursor < n_starts:
            end = min(end, level_starts[cursor])
        args = {"level": outcome.level, **outcome.account()}
        if outcome.counters is not None:
            args.update(outcome.counters.as_dict())
        events.append(_event("level", start, end, epoch, args))

    # Parents before children: earlier first, longer first on a tie.
    events.sort(key=lambda event: (event["ts"], -event["dur"]))
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": os.getpid(),
            "tid": 0,
            "args": {"name": "query"},
        }
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Dict[str, object]) -> None:
    """Schema-check one Chrome trace-event JSON object.

    Raises:
        ValueError: on a malformed payload — missing ``traceEvents``,
            events without the required keys, negative durations, or
            ``parent_id`` references to spans that do not exist.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    span_ids = set()
    parent_refs = []
    for event in events:
        if not isinstance(event, dict):
            raise ValueError("every trace event must be an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        if event["ph"] == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"complete event {key!r} must be non-negative"
                    )
            args = event.get("args", {})
            if not isinstance(args, dict):
                raise ValueError("event args must be an object")
            if "span_id" in args:
                span_ids.add(args["span_id"])
                parent_refs.append(args.get("parent_id", 0))
    for parent_id in parent_refs:
        if parent_id and parent_id not in span_ids:
            raise ValueError(f"parent_id {parent_id} references no span")
