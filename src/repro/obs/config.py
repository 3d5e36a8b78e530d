"""Observability configuration: one place for every telemetry switch.

Every ``REPRO_*`` environment variable is registered and read through
this module so spelling, ownership, and defaults live in exactly one
place (the ``RPR004`` lint rule in :mod:`repro.analysis.lint` enforces
registration):

* ``REPRO_SANITIZE`` — comma-separated sanitizer selection
  (``address``, ``undefined``) for the compiled kernel, which every
  search route runs on; read by :mod:`repro.parallel._native` (an
  unknown name raises), set by :mod:`repro.analysis.sanitize`.
* ``REPRO_DATASET_CACHE`` — dataset cache directory override for the
  benchmark harness; read by :mod:`repro.bench.datasets`.
* ``REPRO_SLOW_MS`` — slow-query threshold (milliseconds) for the query
  flight recorder (:mod:`repro.obs.flight`): a completed query slower
  than this is also kept in the slow-query log. ``0`` disables the slow
  log.
* ``REPRO_FLIGHT_N`` — ring-buffer capacity of the flight recorder
  (how many recent :class:`~repro.obs.flight.QueryRecord`\\ s are kept).
  ``0`` disables flight recording entirely.
"""

from __future__ import annotations

import os
from typing import Optional

#: Sanitizer selection for the compiled kernel tier, e.g.
#: ``REPRO_SANITIZE=address,undefined``; parsed by
#: :func:`repro.parallel._native.sanitize_selection`, orchestrated by
#: :mod:`repro.analysis.sanitize`.
ENV_SANITIZE = "REPRO_SANITIZE"

#: Dataset download/cache directory override for the benchmark harness
#: (:mod:`repro.bench.datasets`).
ENV_DATASET_CACHE = "REPRO_DATASET_CACHE"

#: Slow-query threshold in milliseconds for the query flight recorder
#: (:mod:`repro.obs.flight`). Queries at or above the threshold land in
#: the slow-query log too; ``0`` disables the slow log. Unset defaults to
#: :data:`DEFAULT_SLOW_QUERY_MS`.
ENV_SLOW_MS = "REPRO_SLOW_MS"

#: Flight-recorder ring capacity: how many recent completed queries the
#: recorder keeps (:class:`repro.obs.flight.FlightRecorder`). ``0``
#: disables flight recording; unset defaults to
#: :data:`DEFAULT_FLIGHT_RECORDS`.
ENV_FLIGHT_N = "REPRO_FLIGHT_N"

#: Default ``REPRO_SLOW_MS`` when the variable is unset or unparsable.
DEFAULT_SLOW_QUERY_MS = 500.0

#: Default ``REPRO_FLIGHT_N`` when the variable is unset or unparsable.
DEFAULT_FLIGHT_RECORDS = 128


def sanitize_value() -> str:
    """The raw ``REPRO_SANITIZE`` selection string (empty when unset)."""
    return os.environ.get(ENV_SANITIZE, "")


def dataset_cache_dir() -> Optional[str]:
    """The ``REPRO_DATASET_CACHE`` directory override, or ``None``."""
    return os.environ.get(ENV_DATASET_CACHE) or None


def slow_query_threshold_ms() -> float:
    """The ``REPRO_SLOW_MS`` slow-query threshold in milliseconds.

    ``0`` disables the slow-query log. Unparsable or negative values
    fall back to :data:`DEFAULT_SLOW_QUERY_MS` — a stray environment
    variable must not break queries.
    """
    raw = os.environ.get(ENV_SLOW_MS, "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SLOW_QUERY_MS
    return value if value >= 0.0 else DEFAULT_SLOW_QUERY_MS


def flight_recorder_size() -> int:
    """The ``REPRO_FLIGHT_N`` flight-recorder ring capacity.

    ``0`` disables flight recording. Unparsable or negative values fall
    back to :data:`DEFAULT_FLIGHT_RECORDS`.
    """
    raw = os.environ.get(ENV_FLIGHT_N, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_FLIGHT_RECORDS
    return value if value >= 0 else DEFAULT_FLIGHT_RECORDS

