"""Batch query execution: many keyword queries over one engine.

The paper's related work (Qin et al., "Ten thousand SQLs") motivates
inter-query parallelism; WikiSearch itself serves concurrent users. The
batch executor adds the serving-side conveniences: duplicate-query
coalescing, optional thread-level inter-query parallelism (each query's
state is independent, so queries parallelize safely even though one
query's pure-Python expansion does not), and an aggregate report.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..instrumentation import PHASE_TOTAL
from .engine import EmptyQueryError, KeywordSearchEngine
from .results import SearchResult


@dataclass
class BatchReport:
    """Outcome of one batch run.

    Attributes:
        results: one entry per input query (order preserved); None where
            the query matched nothing.
        failures: query → error message for queries that failed.
        unique_queries: distinct queries actually executed.
    """

    results: List[Optional[SearchResult]]
    failures: Dict[str, str] = field(default_factory=dict)
    unique_queries: int = 0

    @property
    def n_answered(self) -> int:
        return sum(1 for result in self.results if result is not None)

    def total_milliseconds(self) -> float:
        """Summed per-query total phase time (not wall clock)."""
        return sum(
            result.timer.milliseconds().get(PHASE_TOTAL, 0.0)
            for result in self.results
            if result is not None
        )

    def mean_milliseconds(self) -> float:
        if self.n_answered == 0:
            return 0.0
        return self.total_milliseconds() / self.n_answered


class BatchSearcher:
    """Runs batches of queries against one prepared engine.

    Args:
        engine: the shared engine (its index/weights/activation caches
            amortize across the whole batch).
        n_workers: inter-query thread parallelism. Every query owns its
            whole search state, so this is safe with any backend; with
            pure-Python backends the GIL limits the speedup, with the
            vectorized backend NumPy releases the GIL inside kernels.
    """

    def __init__(self, engine: KeywordSearchEngine, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.engine = engine
        self.n_workers = n_workers

    def run(
        self,
        queries: Sequence[str],
        k: Optional[int] = None,
        alpha: Optional[float] = None,
    ) -> BatchReport:
        """Execute ``queries``; duplicates are evaluated once and shared."""
        # Warm the activation cache up front so worker threads never race
        # to fill it.
        self.engine.activation_for(
            alpha if alpha is not None else self.engine.config.alpha
        )

        unique: List[str] = []
        position: Dict[str, int] = {}
        for query in queries:
            if query not in position:
                position[query] = len(unique)
                unique.append(query)

        outcomes: List[Optional[SearchResult]] = [None] * len(unique)
        failures: Dict[str, str] = {}

        def run_one(index_query: "tuple[int, str]") -> None:
            index, query = index_query
            try:
                outcomes[index] = self.engine.search(query, k=k, alpha=alpha)
            except EmptyQueryError as error:
                failures[query] = str(error)

        work = list(enumerate(unique))
        if self.n_workers == 1 or len(work) <= 1:
            for item in work:
                run_one(item)
        else:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                list(pool.map(run_one, work))

        results = [outcomes[position[query]] for query in queries]
        return BatchReport(
            results=results,
            failures=failures,
            unique_queries=len(unique),
        )
