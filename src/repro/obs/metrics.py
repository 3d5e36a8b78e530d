"""Metrics: lock-protected counters and log-bucket histograms.

The service and kernel layers record operational numbers here —
request latencies, error counts, fused-kernel work totals — and two
renderers expose them: Prometheus text exposition
(:meth:`MetricsRegistry.render_prometheus`, served at ``GET /metrics``)
and a JSON snapshot (:meth:`MetricsRegistry.snapshot`, served at
``GET /statz``).

Naming scheme (documented in ``docs/OBSERVABILITY.md``):

* every metric is prefixed ``repro_``;
* counters end in ``_total``; histograms carry a base unit suffix
  (``_seconds``);
* bounded label sets only (``endpoint``, ``tier``) — never raw queries.

Every instrument takes its own lock around updates, so concurrent
recording from pool workers loses no increments (a test hammers this
from a ``ThreadPoolExecutor`` and asserts exact totals).
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..instrumentation import KernelCounters

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed log-spaced latency buckets: 100 µs … ~209 s, factor 2. One
#: shared geometry keeps histograms mergeable across processes.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    1e-4 * 2.0 ** i for i in range(22)
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(items: LabelItems, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(items)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared bookkeeping: identity, help text, per-instrument lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: LabelItems) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: LabelItems) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labels)} "
            f"{_format_value(self.value)}"
        ]

    def snapshot(self) -> object:
        return self.value


class Histogram(_Instrument):
    """Fixed log-bucket histogram with quantile summaries.

    Bucket upper bounds default to :data:`DEFAULT_BUCKETS` (100 µs to
    ~209 s, factor 2); values above the last bound land in the implicit
    ``+Inf`` bucket. Quantiles are estimated by linear interpolation
    inside the containing bucket — exact enough for p50/p95/p99 latency
    reporting at log-2 resolution.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: LabelItems,
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _state(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0.5 = p50) of observations."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must lie in [0, 1]")
        counts, _, total = self._state()
        if total == 0:
            return 0.0
        rank = fraction * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                within = (rank - previous) / count
                return lower + (upper - lower) * within
        return self.bounds[-1]  # pragma: no cover - cumulative covers total

    def summary(self) -> Dict[str, float]:
        """p50/p95/p99 plus count/sum/mean, one consistent snapshot."""
        counts, total_sum, total = self._state()
        mean = total_sum / total if total else 0.0
        return {
            "count": total,
            "sum": total_sum,
            "mean": mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def render(self) -> List[str]:
        counts, total_sum, total = self._state()
        lines = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labels, ('le', _format_value(bound)))}"
                f" {cumulative}"
            )
        lines.append(
            f"{self.name}_bucket"
            f"{_render_labels(self.labels, ('le', '+Inf'))} {total}"
        )
        lines.append(
            f"{self.name}_sum{_render_labels(self.labels)} "
            f"{_format_value(total_sum)}"
        )
        lines.append(
            f"{self.name}_count{_render_labels(self.labels)} {total}"
        )
        return lines

    def snapshot(self) -> object:
        return self.summary()


class MetricsRegistry:
    """Thread-safe instrument store with Prometheus/JSON renderers.

    Instruments are get-or-create by ``(name, labels)``: the first call
    registers, later calls return the same object, and a name reused
    with a different instrument kind raises.

    A repeated lookup takes a fast path: a dict from (instrument class,
    name, labels in the order passed) to the instrument, filled only
    after a get-or-create succeeded. So a name, its labels and its kind
    are validated on first use, and the hot loops' per-level and
    per-request lookups skip the validation, the label sort and the
    lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[tuple, _Instrument]" = {}
        self._kinds: Dict[str, str] = {}
        self._helps: Dict[str, str] = {}
        self._resolved: "Dict[tuple, _Instrument]" = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Dict[str, str],
        **kwargs: object,
    ) -> "_Instrument":
        resolved_key = (cls, name, tuple(labels.items()))
        instrument = self._resolved.get(resolved_key)
        if instrument is not None:
            return instrument
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        items = _label_items(labels)
        key = (name, items)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                if not isinstance(instrument, cls):
                    raise ValueError(
                        f"{name!r} already registered as {instrument.kind}"
                    )
                self._resolved[resolved_key] = instrument
                return instrument
            if self._kinds.get(name, cls.kind) != cls.kind:
                raise ValueError(
                    f"{name!r} already registered as {self._kinds[name]}"
                )
            instrument = cls(name, help, items, **kwargs)
            self._instruments[key] = instrument
            self._kinds[name] = cls.kind
            if help or name not in self._helps:
                self._helps[name] = help
            self._resolved[resolved_key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._helps.clear()
            self._resolved.clear()

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 of every instrument."""
        by_name: Dict[str, List[_Instrument]] = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines: List[str] = []
        for name in sorted(by_name):
            family = by_name[name]
            help_text = self._helps.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family[0].kind}")
            for instrument in sorted(family, key=lambda i: i.labels):
                lines.extend(instrument.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view: name → {labels-str → value/summary}."""
        out: Dict[str, object] = {}
        for instrument in self.instruments():
            family = out.setdefault(instrument.name, {})
            label_key = _render_labels(instrument.labels) or "{}"
            family[label_key] = instrument.snapshot()  # type: ignore[index]
        return out


#: Process-default registry: kernel work counters and anything else not
#: given an explicit registry records here.
_DEFAULT_REGISTRY = MetricsRegistry()

#: Kernel counter-field → metric name, materialized once at module
#: import so the hot loop below registers metrics by constant reference
#: (lint RPR012: no f-string metric names in hot paths).
KERNEL_COUNTER_METRICS: Dict[str, str] = {
    field: "repro_kernel_" + field + "_total"
    for field in (
        "sources_pruned",
        "edges_gathered",
        "pairs_hit",
        "duplicates_elided",
    )
}


def get_registry() -> MetricsRegistry:
    """The process-default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY


def record_kernel_counters(
    counters: "KernelCounters",
    tier: str,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Accumulate a query's :class:`~repro.instrumentation.KernelCounters`,
    summed over its levels by the bottom-up loop.

    Args:
        counters: the work counters to add.
        tier: which kernel produced them (``whole-level`` / ``threads``
            — a bounded label set).
        registry: target registry (default: the process registry).
    """
    registry = registry or _DEFAULT_REGISTRY
    for field, value in counters.as_dict().items():
        if value:
            # setdefault keeps a future counter field working while the
            # steady state stays a dict hit (no per-level formatting).
            name = KERNEL_COUNTER_METRICS.setdefault(
                field, "repro_kernel_" + field + "_total"
            )
            registry.counter(
                name,
                "fused expansion kernel work counter",
                tier=tier,
            ).inc(value)
