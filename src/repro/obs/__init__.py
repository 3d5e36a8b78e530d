"""repro.obs — the unified observability layer.

One API for all telemetry:

* :mod:`repro.obs.tracing` — a query's Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``), rendered from its
  ``SearchResult`` after the search returns; imported by ``repro
  profile`` only, not by this package.
* :mod:`repro.obs.metrics` — lock-protected counters and log-bucket
  histograms; Prometheus text exposition and JSON snapshots. Each
  search service owns its registry; there is no process-global one.
* :mod:`repro.obs.config` — every ``REPRO_*`` switch.
* :mod:`repro.obs.flight` — the query flight recorder: a ring buffer of
  the last N served :class:`~repro.obs.flight.QueryRecord`\\ s, each a
  view of one query's ``SearchResult``, plus a slow-query log
  (``REPRO_FLIGHT_N`` / ``REPRO_SLOW_MS``).

See ``docs/OBSERVABILITY.md`` for the trace events, metric naming
scheme, and how to scrape/open the exports.
"""

from .config import (
    ENV_FLIGHT_N,
    ENV_SLOW_MS,
    flight_recorder_size,
    slow_query_threshold_ms,
)
from .flight import FlightRecorder, QueryRecord
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    record_kernel_counters,
)

__all__ = [
    "Counter",
    "ENV_FLIGHT_N",
    "ENV_SLOW_MS",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "QueryRecord",
    "flight_recorder_size",
    "record_kernel_counters",
    "slow_query_threshold_ms",
]
