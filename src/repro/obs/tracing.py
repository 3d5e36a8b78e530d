"""Span tracing: nested, thread-aware timing with Chrome-trace export.

The paper's evaluation lives on per-phase wall-clock breakdowns; this
module generalizes that to arbitrary *spans* — named, nested, attributed
intervals — so "where inside a phase does the time go" has an answer.

Design:

* :class:`Tracer` owns a thread-local span stack. ``tracer.span(name)``
  opens a child of the current thread's innermost open span; worker
  threads (thread-pool expansion chunks) attach to the coordinator's
  span by passing ``parent=`` explicitly, so cross-thread parentage is
  never guessed from the stack.
* Spans are cheap records (perf-counter nanoseconds relative to the
  tracer's epoch, thread id, attribute dict). Finished spans accumulate
  under one lock; nothing is exported until asked.
* Export targets: **Chrome trace-event JSON** (open in Perfetto /
  ``chrome://tracing``) via :meth:`Tracer.to_chrome_trace`, and a
  human-readable **flame summary** via :meth:`Tracer.flame_summary`.
* A disabled tracer (``Tracer(enabled=False)``, and the process-global
  default until one is installed) short-circuits ``span()`` to a
  reusable no-op context manager, so the disabled path costs one
  branch.

Typical use::

    tracer = Tracer(enabled=True)
    engine = KeywordSearchEngine(graph, tracer=tracer)
    engine.search("xml rdf sql")
    tracer.write_chrome_trace("query.trace.json")
    print(tracer.flame_summary())
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from types import TracebackType
from typing import Any, ContextManager, Dict, List, Optional, Type

class Span:
    """One finished (or open) named interval.

    Attributes:
        name: span label; hierarchical names use ``:`` (``phase:total``).
        span_id: tracer-unique positive id.
        parent_id: enclosing span's id, or 0 for a root span.
        tid: OS thread ident of the opening thread.
        thread_name: ``threading.Thread.name`` of the opening thread.
        start_ns / duration_ns: perf-counter nanoseconds relative to the
            owning tracer's epoch.
        attrs: attribute mapping (JSON-serializable values).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "tid",
        "thread_name",
        "start_ns",
        "duration_ns",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int,
        tid: int,
        thread_name: str,
        start_ns: int,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.thread_name = thread_name
        self.start_ns = start_ns
        self.duration_ns = 0
        self.attrs = dict(attrs) if attrs else {}

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def set_attrs(self, mapping: Dict[str, object]) -> None:
        self.attrs.update(mapping)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, ms={self.duration_ms:.3f})"
        )


class _NullSpan:
    """Attribute sink for disabled tracers; every operation is a no-op."""

    __slots__ = ()
    name = "<null>"
    span_id = 0
    parent_id = 0
    attrs: Dict[str, object] = {}
    duration_ns = 0
    duration_ms = 0.0

    def set_attr(self, key: str, value: object) -> None:
        pass

    def set_attrs(self, mapping: Dict[str, object]) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable, reentrant context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects nested spans; exports Chrome traces and flame summaries.

    Args:
        enabled: ``False`` builds a tracer that records nothing and
            costs one branch per ``span()`` call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()
        self._epoch_ns = time.perf_counter_ns()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> ContextManager[Any]:
        """Open a span as a context manager yielding the :class:`Span`.

        Args:
            name: span label.
            parent: explicit parent span — required for correct nesting
                when opening spans from a different thread than the
                logical parent (pool workers); defaults to the calling
                thread's innermost open span.
            **attrs: initial span attributes.
        """
        if not self.enabled:
            return NULL_CONTEXT
        return _SpanContext(self, name, parent, attrs)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Completed spans in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def to_chrome_trace(self) -> Dict[str, object]:
        """The collected spans as a Chrome trace-event JSON object.

        Complete (``"ph": "X"``) events carry microsecond timestamps
        relative to the tracer epoch plus the span attributes (and span
        ids) under ``args``; thread-name metadata events label each
        participating thread. Load the serialized form in Perfetto
        (https://ui.perfetto.dev) or ``chrome://tracing``.
        """
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        threads: Dict[int, str] = {}
        for span in self.finished_spans():
            threads.setdefault(span.tid, span.thread_name)
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start_ns / 1e3,
                    "dur": span.duration_ns / 1e3,
                    "pid": pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        for tid, thread_name in sorted(threads.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` (validated)."""
        payload = self.to_chrome_trace()
        validate_chrome_trace(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")

    def flame_summary(self, min_ms: float = 0.0) -> str:
        """A text flame view: the span tree with inclusive milliseconds.

        Sibling spans sharing a name are aggregated into one line with a
        call count, so per-level loops read as one row.

        Args:
            min_ms: hide aggregated rows whose total is below this.
        """
        spans = self.finished_spans()
        children: Dict[int, List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        lines = ["span                                      total_ms  calls"]

        def emit(parent_id: int, depth: int) -> None:
            group: Dict[str, List[Span]] = {}
            for span in sorted(children.get(parent_id, []), key=lambda s: s.start_ns):
                group.setdefault(span.name, []).append(span)
            for name, members in sorted(
                group.items(),
                key=lambda item: -sum(s.duration_ns for s in item[1]),
            ):
                total_ms = sum(s.duration_ns for s in members) / 1e6
                if total_ms < min_ms:
                    continue
                label = "  " * depth + name
                lines.append(f"{label:40}  {total_ms:8.2f}  {len(members):5d}")
                for member in members:
                    emit(member.span_id, depth + 1)

        emit(0, 0)
        return "\n".join(lines)


class _SpanContext:
    """One ``Tracer.span(...)`` entry: opens the :class:`Span` on enter,
    files it with the tracer on exit (also when the body raises)."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span", "_stack")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        parent: Optional[Span],
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        parent = self._parent
        if parent is None and stack:
            parent = stack[-1]
        thread = threading.current_thread()
        span = Span(
            name=self._name,
            span_id=next(tracer._ids),
            parent_id=parent.span_id if parent is not None else 0,
            tid=thread.ident or 0,
            thread_name=thread.name,
            start_ns=time.perf_counter_ns() - tracer._epoch_ns,
            attrs=self._attrs,
        )
        stack.append(span)
        self._span = span
        self._stack = stack
        return span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        tracer = self._tracer
        span = self._span
        span.duration_ns = (
            time.perf_counter_ns() - tracer._epoch_ns - span.start_ns
        )
        self._stack.pop()
        with tracer._lock:
            tracer._finished.append(span)
        return False


#: Shared permanently-disabled tracer (the default when none is given);
#: safe to hand to any number of engines and timers.
NULL_TRACER = Tracer(enabled=False)

_GLOBAL_TRACER: Tracer = NULL_TRACER


def install_global_tracer(tracer: Tracer) -> None:
    """Make ``tracer`` the process default (engines built without an
    explicit tracer will record into it). One reference store: a
    concurrent reader sees the old tracer or the new one."""
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer


def uninstall_global_tracer() -> None:
    """Restore the no-op default tracer."""
    install_global_tracer(NULL_TRACER)


def get_global_tracer() -> Tracer:
    """The process-default tracer (:data:`NULL_TRACER` until installed)."""
    return _GLOBAL_TRACER


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
