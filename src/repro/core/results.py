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


@dataclass
class SearchResult:
    """Everything a caller learns from one query — its one always-on
    account: spans, flight records and the Fig. 4 text are views of it.

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
        timer: per-phase wall-clock times.
        peak_state_nbytes: peak dynamic memory of this query (Table IV).
        stage_two_nbytes: bytes of the buffers stage two's native calls
            used — scratch plus output capacities of ``extract_graphs``
            and ``rank_graphs``; 0 on the reference route. Not part of
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
    stage_two_nbytes: int = 0
    level_profile: "List[LevelOutcome]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.answers)

    def milliseconds(self) -> Dict[str, float]:
        return self.timer.milliseconds()
