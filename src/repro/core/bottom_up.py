"""Bottom-up search: solve the top-(k,d) Central Graph Problem (Section V-B).

One BFS-like instance per keyword expands level-synchronously from its
source set ``T_i``. Each global level runs three joined steps (Algorithm 1),
all inside one :meth:`~repro.parallel.backend.ExpansionBackend.run_level`
call of a pluggable backend:

1. *enqueue frontiers* — drain FIdentifier into the joint frontier array;
2. *identify Central Nodes* — frontiers whose M row is fully finite become
   Central Nodes at depth = current level (Lemma V.1);
3. *expansion* — Algorithm 2.

The loop stops for one of four reasons (``SearchState``'s
``TERMINATED_*``): at the smallest level ``d`` where at least ``k``
Central Nodes exist (Theorem V.3), when the frontier drains empty, at the
``lmax`` safety bound, or once no further Central Node can exist.

*Lane closure.* A keyword lane is one BFS instance ``B_i``, i.e. one
column of M. During level ``l``'s expansion every backend ORs into a
live-lane mask (``LevelOutcome.live_lanes``) each lane it writes, every
lane in which a waiting source (``a_u > l``, Algorithm 2 lines 5-7) is
hit at ≤ l, and the eligible lanes of every source that retries a
blocked neighbour (lines 18-20). A lane outside the mask is *closed*:

* no write at ``l`` means no node has a fresh cell in the lane at
  ``l + 1``;
* every other source that is finite in the lane has already expanded it
  with all neighbours unblocked: a source stays waiting or retrying, and
  so in the mask, until that holds, and blockedness only ever decreases
  (a blocked node is an inactive non-keyword node, all ∞);
* Central Nodes never expand.

So the lane's finite set is final. Let K be the nodes finite in every
closed lane: K is final, and every future Central Node lies in K. If
every node of K already has ``finite_count == q``, each of them is a
Central Node by the next identification (a node that fills is flagged
by the write that fills it), and nothing is left to find. The loop then
runs that one more drain + identify (``may_expand`` False) and stops
with ``TERMINATED_NO_MORE_CENTRAL`` — or ``TERMINATED_ENOUGH_ANSWERS`` /
``TERMINATED_FRONTIER_EMPTY`` when that level is where the unabridged
loop stops too. Central Nodes, their depths and every M cell ≤ the
depth are those of the unabridged loop. Stage two is unaffected:
extraction reads cells ≤ a Central Node's depth ≤ ``l + 1``, every cell
a skipped level would have written is ≥ ``l + 2``, and a predecessor
test with ``h_p ≥ l + 2`` cannot pass. The K ⊆ Full test
(:meth:`~repro.core.state.SearchState.no_central_node_can_follow`) is
free until a lane closes, then one O(|V|) pass per level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..instrumentation import (
    PHASE_ENQUEUE,
    PHASE_EXPANSION,
    PHASE_IDENTIFY,
    PHASE_INITIALIZATION,
    PhaseTimer,
)
from ..graph.csr import KnowledgeGraph
from ..parallel.backend import ExpansionBackend, LevelOutcome
from ..parallel.vectorized import VectorizedBackend
from .state import (
    MAX_LEVEL,
    TERMINATED_ENOUGH_ANSWERS,
    TERMINATED_FRONTIER_EMPTY,
    TERMINATED_LEVEL_CAP,
    TERMINATED_NO_MORE_CENTRAL,
    SearchArena,
    SearchState,
)


def describe_levels(
    levels: Sequence[LevelOutcome], max_centrals_shown: int = 6
) -> str:
    """A Fig. 4-style textual trace of a run's ``level_profile``.

    The paper explains its algorithm through level-by-level traces
    (Fig. 4, Example 4); this is the same view of a real run — frontier
    sizes, newly hit (node, keyword) cells, Central Node discoveries.

    Args:
        levels: ``BottomUpResult.level_profile`` (or a
            ``SearchResult``'s).
        max_centrals_shown: central nodes listed per level before
            collapsing the rest into a "+N more" suffix.
    """
    lines = ["level  frontier  new_hits  central_nodes"]
    for outcome in levels:
        found = outcome.new_central
        shown = ", ".join(
            f"v{node}(d={depth})" for node, depth in found[:max_centrals_shown]
        )
        if len(found) > max_centrals_shown:
            shown += f" (+{len(found) - max_centrals_shown} more)"
        lines.append(
            f"{outcome.level:5d}  {outcome.frontier_size:8d}  "
            f"{outcome.new_hits:8d}  {shown or '-'}"
        )
    return "\n".join(lines)


@dataclass
class BottomUpResult:
    """Everything stage two needs, plus diagnostics.

    Attributes:
        state: the final search state (M matrix, central nodes, flags).
        depth: the ``d`` of top-(k,d): the largest Central-Node depth
            (the level at which enough Central Nodes existed, or the
            deepest there is when fewer than ``k`` exist in total). With
            no Central Node at all, the level at which the search ended:
            the one that proved there is no answer (frontier empty, lane
            closure) or ``lmax``.
        levels_executed: number of expansion levels actually run.
        terminated: one of the ``TERMINATED_*`` reasons.
        peak_state_nbytes: max dynamic memory observed (Table IV).
        level_profile: the :class:`~repro.parallel.backend.LevelOutcome`
            of every level the loop entered with a non-empty frontier
            (including the terminal level that only enqueued/identified).
    """

    state: SearchState
    depth: int
    levels_executed: int
    terminated: str
    peak_state_nbytes: int
    timer: PhaseTimer
    level_profile: List[LevelOutcome] = field(default_factory=list)

    @property
    def central_nodes(self) -> List[Tuple[int, int]]:
        return self.state.central_nodes


class BottomUpSearch:
    """Runs the bottom-up stage with a given expansion backend.

    Args:
        graph: the knowledge graph.
        backend: expansion strategy; defaults to the production route,
            :class:`~repro.parallel.VectorizedBackend`. Pass
            :class:`~repro.parallel.SequentialBackend` for the per-node
            reference transcription of Algorithm 2.
        lmax: hard cap on BFS levels. The node-keyword matrix stores levels
            in one byte, so ``lmax`` may not exceed 254; disconnected or
            never-activating keywords otherwise loop needlessly.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        backend: Optional[ExpansionBackend] = None,
        lmax: int = 24,
    ) -> None:
        if not (1 <= lmax <= MAX_LEVEL):
            raise ValueError(f"lmax must be in [1, {MAX_LEVEL}], got {lmax}")
        self.graph = graph
        self.backend = backend or VectorizedBackend()
        self.lmax = lmax

    def run(
        self,
        keyword_node_sets: Sequence[np.ndarray],
        activation: np.ndarray,
        k: int,
        timer: Optional[PhaseTimer] = None,
        *,
        max_activation: Optional[int] = None,
        arena: Optional[SearchArena] = None,
    ) -> BottomUpResult:
        """Search until at least ``k`` Central Nodes are identified.

        Args:
            keyword_node_sets: one source node array per keyword (every
                set must be non-empty — the engine drops unmatched terms).
            activation: per-node minimum activation levels for this α.
            k: the top-k target; the stage collects *all* Central Nodes of
                depth ≤ d for the smallest sufficient d (Definition 4).
            timer: receives the stage's phases and their windows.
            max_activation: ``activation.max()``, when the caller keeps
                it (:meth:`SearchState.initialize` computes it otherwise).
            arena: a leased :class:`~repro.core.state.SearchArena` for
                the graph, which the state is built in (the state gets
                one of its own when omitted). The result's state then
                lives in it and is valid only until the lease ends.

        Raises:
            ValueError: if ``k < 1`` or any keyword set is empty.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        for column, nodes in enumerate(keyword_node_sets):
            if len(nodes) == 0:
                raise ValueError(
                    f"keyword column {column} has an empty source set; "
                    "drop unmatched keywords before searching"
                )
        timer = timer or PhaseTimer()
        # Seed every loop phase so short-circuited searches (e.g. all
        # sources already central at level 0) still report a full profile.
        for phase in (PHASE_ENQUEUE, PHASE_IDENTIFY, PHASE_EXPANSION):
            timer.add(phase, 0.0)

        with timer.phase(PHASE_INITIALIZATION):
            state = SearchState.initialize(
                self.graph.n_nodes,
                keyword_node_sets,
                activation,
                max_activation,
                arena=arena,
            )
        # Only the frontier (and a store-backed array's residency) changes
        # size between levels: charge the rest once.
        fixed_nbytes = state.fixed_nbytes()
        peak_nbytes = state.nbytes(fixed_nbytes)

        level = 0
        levels_executed = 0
        terminated = TERMINATED_LEVEL_CAP
        # Set once no Central Node can follow: the next level only
        # drains and identifies (module docstring, lane closure).
        closed = False
        profile: List[LevelOutcome] = []
        while level <= self.lmax:
            started = time.perf_counter()
            outcome = self.backend.run_level(
                self.graph,
                state,
                level,
                k,
                level < self.lmax and not closed,
                timer,
            )
            outcome.started = started
            outcome.seconds = time.perf_counter() - started
            if outcome.frontier_size == 0:
                terminated = TERMINATED_FRONTIER_EMPTY
                break
            profile.append(outcome)
            if not outcome.expanded:
                if state.n_central_nodes >= k:
                    terminated = TERMINATED_ENOUGH_ANSWERS
                elif closed:
                    terminated = TERMINATED_NO_MORE_CENTRAL
                break
            levels_executed += 1
            peak_nbytes = max(peak_nbytes, state.nbytes(fixed_nbytes))
            closed = state.no_central_node_can_follow(outcome.live_lanes)
            level += 1

        if state.central_nodes:
            depth = max(found_depth for _, found_depth in state.central_nodes)
        else:
            depth = level
        return BottomUpResult(
            state=state,
            depth=depth,
            levels_executed=levels_executed,
            terminated=terminated,
            peak_state_nbytes=peak_nbytes,
            timer=timer,
            level_profile=profile,
        )
