"""Host noise: calibration, and the estimator that sees through it.

On a small shared host a fixed amount of work does not take a fixed
time, and the error is one-sided: neighbours only ever make work slower,
in regimes lasting seconds to minutes. So a query's time is taken as the
best its passes achieved in the window (what ``timeit`` does), and
percentiles are then taken over ops with each op standing for its query.

A fixed pure-Python spin and a fixed NumPy sort are timed before and
after each workload; ``host.noise_ratio`` is the larger max ÷ min of the
two probes, and a run above ``NOISY`` is reported as noisy rather than
hidden.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

NOISY = 1.15
_REPEATS = 5
_SORT_INPUT = np.random.default_rng(0).random(400_000)


def _spin() -> int:
    total = 0
    for value in range(200_000):
        total += value * value
    return total


def _sort() -> np.ndarray:
    return np.sort(_SORT_INPUT)


def probe() -> Dict[str, float]:
    """Median seconds of each fixed probe, right now."""
    sample = {}
    for name, work in (("spin", _spin), ("sort", _sort)):
        work()  # the first call after a pause runs cold
        times: List[float] = []
        for _ in range(_REPEATS):
            started = perf_counter()
            work()
            times.append(perf_counter() - started)
        sample[name] = statistics.median(times)
    return sample


def ratio(samples: List[Dict[str, float]]) -> float:
    return max(
        max(s[name] for s in samples) / min(s[name] for s in samples)
        for name in ("spin", "sort")
    )


def undisturbed(times: Sequence[float], queries: Sequence[int]) -> List[float]:
    """Each op's time replaced by the best time of its query.

    ``queries[i]`` says which query op ``i`` ran. A query that repeats
    more often (zipf) keeps its weight in what is computed from the
    result.
    """
    best: Dict[int, float] = {}
    for seconds, query in zip(times, queries):
        if seconds < best.get(query, float("inf")):
            best[query] = seconds
    return [best[query] for query in queries]
