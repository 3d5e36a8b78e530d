"""repro.obs — the unified observability layer.

One API for all telemetry:

* :mod:`repro.obs.tracing` — nested, thread-aware spans; Chrome
  trace-event export (Perfetto / ``chrome://tracing``) and text flame
  summaries.
* :mod:`repro.obs.metrics` — lock-protected counters and log-bucket
  histograms; Prometheus text exposition and JSON snapshots. Each
  search service owns its registry; there is no process-global one.
* :mod:`repro.obs.config` — every ``REPRO_*`` switch, the
  ``REPRO_TRACE`` bench-run trace hook among them.
* :mod:`repro.obs.flight` — the query flight recorder: a ring buffer of
  the last N served :class:`~repro.obs.flight.QueryRecord`\\ s, each a
  view of one query's ``SearchResult``, plus a slow-query log
  (``REPRO_FLIGHT_N`` / ``REPRO_SLOW_MS``).

See ``docs/OBSERVABILITY.md`` for the span model, metric naming scheme,
and how to scrape/open the exports.
"""

from .config import (
    ENV_FLIGHT_N,
    ENV_SLOW_MS,
    ENV_TRACE,
    flight_recorder_size,
    maybe_install_env_tracer,
    slow_query_threshold_ms,
)
from .flight import FlightRecorder, QueryRecord
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    record_kernel_counters,
)
from .tracing import (
    NULL_TRACER,
    Span,
    Tracer,
    get_global_tracer,
    install_global_tracer,
    uninstall_global_tracer,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "ENV_FLIGHT_N",
    "ENV_SLOW_MS",
    "ENV_TRACE",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "QueryRecord",
    "Span",
    "Tracer",
    "flight_recorder_size",
    "get_global_tracer",
    "install_global_tracer",
    "maybe_install_env_tracer",
    "record_kernel_counters",
    "slow_query_threshold_ms",
    "uninstall_global_tracer",
    "validate_chrome_trace",
]
