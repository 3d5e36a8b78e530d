"""Query result types shared by every engine variant.

Both the matrix-based :class:`~repro.core.engine.KeywordSearchEngine` and
the locked :class:`~repro.parallel.locked.LockedDictEngine` return the
same :class:`SearchResult`, so benchmarks and the relevance judge treat
the variants interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..instrumentation import PhaseTimer
from .central_graph import SearchAnswer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.backend import LevelOutcome


class EmptyQueryError(ValueError):
    """Raised when no query term matches any node in the graph.

    Attributes:
        dropped_terms: the normalized terms that matched nothing (empty
            for a query with no term left after tokenizing).
    """

    def __init__(self, dropped_terms: Tuple[str, ...] = ()) -> None:
        super().__init__(
            "no query term matches any node "
            f"(dropped: {', '.join(dropped_terms) or '<empty query>'})"
        )
        self.dropped_terms = tuple(dropped_terms)


@dataclass(frozen=True)
class StageTwoCounts:
    """Stage two's account of one query, as ``process_top_down``
    returns it beside the ranked answers (equal on both routes, except
    ``nbytes``).

    Attributes:
        central_graphs: Central Graphs extracted (one per Central Node).
        extracted_nodes: nodes over all extracted graphs, before the
            level-cover prune.
        kept_after_dedup: graphs left to rank after the containment
            filter.
        answers: graphs returned (at most ``k``).
        nbytes: bytes of the buffers stage two's native calls used —
            scratch plus output capacities of ``extract_graphs`` and
            ``rank_graphs``; 0 on the reference route.
    """

    central_graphs: int = 0
    extracted_nodes: int = 0
    kept_after_dedup: int = 0
    answers: int = 0
    nbytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counts under the names the Chrome trace and
        ``repro profile`` print them with."""
        return {
            "central_graphs": self.central_graphs,
            "extracted_nodes": self.extracted_nodes,
            "kept_after_dedup": self.kept_after_dedup,
            "answers": self.answers,
            "stage_two_nbytes": self.nbytes,
        }


@dataclass
class SearchResult:
    """Everything a caller learns from one query — its one always-on
    account: the Chrome trace, flight records and the Fig. 4 text are
    views of it.

    Attributes:
        answers: final ranked answers, best first.
        keywords: normalized terms that actually ran (column order).
        dropped_terms: normalized terms with empty ``T_i`` (silently
            dropped, mirroring a search engine's behaviour on unknown
            words; dropping the whole query raises
            :class:`EmptyQueryError` instead).
        depth: the ``d`` of the solved top-(k,d) problem.
        n_central_nodes: Central Nodes identified by stage one.
        terminated: stage-one termination reason.
        timer: per-phase wall-clock times, and every phase entry's
            window.
        peak_state_nbytes: peak dynamic memory of this query (Table IV).
        stage_two: stage two's counts; all 0 for engine variants that
            do not report them. Its ``nbytes`` is not part of
            ``peak_state_nbytes``.
        level_profile: stage one's per-level records — the
            :class:`~repro.parallel.backend.LevelOutcome` each level
            returned (frontier size, edges scanned, new hits, new Central
            Nodes, kernel counters); empty for engine variants that do
            not record it.
    """

    answers: List[SearchAnswer]
    keywords: Tuple[str, ...]
    dropped_terms: Tuple[str, ...]
    depth: int
    n_central_nodes: int
    terminated: str
    timer: PhaseTimer
    peak_state_nbytes: int
    stage_two: StageTwoCounts = field(default_factory=StageTwoCounts)
    level_profile: "List[LevelOutcome]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.answers)

    def milliseconds(self) -> Dict[str, float]:
        return self.timer.milliseconds()
