"""``CheckedBackend`` — machine-checking the lock-free invariants.

The paper's parallel expansion is lock-free *because every racing write
is idempotent* (Theorem V.2). This wrapper asserts that in code. Wrap
any :class:`~repro.parallel.backend.ExpansionBackend` and every level it
runs is checked, from the level's delta on the shared state, against
the invariants the theorem and Algorithm 1 actually need:

I1 **write-once per cell** — a matrix cell finite before the level is
   never overwritten (each BFS instance hits a node at exactly one
   level).
I2 **level stamp** — every cell that became finite during the level
   holds exactly ``level + 1``: racing writers are benign because they
   all store this one constant.
I3 **hit flags** — every node with a newly finite cell is flagged in
   ``FIdentifier``, and ``FIdentifier`` holds only 0 and 1 (the other
   half of Algorithm 2's store pair, line 21-22).
I4 **frontier drain** — the level's frontier is exactly the nodes
   flagged in ``FIdentifier`` when it started.
I5 **finite-count accounting** — the incremental ``finite_count``
   equals a from-scratch recount of finite M cells after every level
   (the deduplicated hit keys were applied exactly once).
I6 **identification** — the newly identified Central Nodes are exactly
   the frontier nodes whose M row was fully finite at entry, stamped at
   this level (Lemma V.1); no flag is cleared; ``new_central`` reports
   exactly them.

The check runs around :meth:`ExpansionBackend.run_level`, the whole
backend protocol, so a route that runs the whole level in one native
call (``VectorizedBackend``) and one composed from ``expand``
(``SequentialBackend``, ``ThreadPoolBackend``) are held to the same
invariants. Nothing in the search path knows the wrapper exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from ..instrumentation import PhaseTimer
from ..parallel.backend import ExpansionBackend, LevelOutcome

#: Cap on how many individual cells one violation report enumerates.
_MAX_CELLS_REPORTED = 8


@dataclass(frozen=True)
class InvariantViolation:
    """One detected breach of the lock-free write discipline.

    Attributes:
        invariant: short code — ``write-once``, ``level-stamp``,
            ``hit-flag``, ``frontier-value``, ``frontier-drain``,
            ``finite-count``, ``central-node``.
        level: BFS level whose run broke the invariant.
        detail: human-readable description with offending cells.
    """

    invariant: str
    level: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] level {self.level}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by :class:`CheckedBackend` when a level breaks the
    lock-free invariants."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = violations
        lines = "\n".join(str(v) for v in violations)
        super().__init__(
            f"{len(violations)} lock-free invariant violation(s):\n{lines}"
        )


def _describe_cells(cells: np.ndarray, q: int) -> str:
    shown = ", ".join(
        f"(node {int(c) // q}, col {int(c) % q})"
        for c in cells[:_MAX_CELLS_REPORTED]
    )
    if len(cells) > _MAX_CELLS_REPORTED:
        shown += f", ... ({len(cells)} total)"
    return shown


def _nodes(nodes: np.ndarray) -> "list[int]":
    return nodes[:_MAX_CELLS_REPORTED].tolist()


def _verify_level(
    state: SearchState,
    level: int,
    outcome: LevelOutcome,
    pre_matrix: np.ndarray,
    pre_fid: np.ndarray,
    pre_cid: np.ndarray,
) -> List[InvariantViolation]:
    """Invariants I1–I6 of one level, from its pre-level snapshot."""
    found: List[InvariantViolation] = []

    def violation(invariant: str, detail: str) -> None:
        found.append(InvariantViolation(invariant, level, detail))

    q = state.n_keywords
    next_level = level + 1
    matrix = state.matrix.ravel()
    pre = pre_matrix.ravel()
    changed = np.flatnonzero(matrix != pre)

    # I1 — write-once: a cell finite before this level must not change.
    overwritten = changed[pre[changed] != INFINITE_LEVEL]
    if len(overwritten):
        violation(
            "write-once",
            "finite cells overwritten during the level: "
            + _describe_cells(overwritten, q),
        )

    # I2 — level stamp: newly finite cells hold exactly level + 1.
    fresh = changed[pre[changed] == INFINITE_LEVEL]
    bad_stamp = fresh[matrix[fresh] != next_level]
    if len(bad_stamp):
        values = sorted({int(v) for v in matrix[bad_stamp]})
        violation(
            "level-stamp",
            f"cells written with value(s) {values} instead of "
            f"{next_level}: " + _describe_cells(bad_stamp, q),
        )

    # I3 — every hit row is flagged, and the flags are boolean.
    hit_rows = np.unique(fresh // q)
    unflagged = hit_rows[state.f_identifier[hit_rows] != 1]
    if len(unflagged):
        violation(
            "hit-flag",
            f"nodes hit at level {next_level} but not flagged in "
            f"FIdentifier: {_nodes(unflagged)}",
        )
    bad_flag = np.flatnonzero(
        (state.f_identifier != 0) & (state.f_identifier != 1)
    )
    if len(bad_flag):
        violation(
            "frontier-value",
            f"FIdentifier holds non-boolean values at nodes {_nodes(bad_flag)}",
        )

    # I4 — the drained frontier is exactly the pre-level flags.
    expected_frontier = np.flatnonzero(pre_fid).astype(np.int64)
    if not np.array_equal(state.frontier, expected_frontier):
        violation(
            "frontier-drain",
            f"drained frontier has {len(state.frontier)} node(s), "
            f"expected the {len(expected_frontier)} pre-level "
            "FIdentifier flags",
        )

    # I5 — incremental finite_count equals a from-scratch recount.
    recount = (state.matrix != INFINITE_LEVEL).sum(axis=1, dtype=np.int32)
    wrong = np.flatnonzero(recount != state.finite_count)
    if len(wrong):
        violation(
            "finite-count",
            "incremental finite_count diverged from recount at nodes "
            f"{_nodes(wrong)} (have {_nodes(state.finite_count[wrong])}, "
            f"expect {_nodes(recount[wrong])})",
        )

    # I6 — identification: exactly the frontier nodes whose row was
    # fully finite at entry (and not yet central), stamped at this level.
    newly = np.flatnonzero((state.c_identifier == 1) & (pre_cid == 0))
    expected = expected_frontier[
        (pre_cid[expected_frontier] == 0)
        & np.all(pre_matrix[expected_frontier] != INFINITE_LEVEL, axis=1)
    ]
    if not np.array_equal(newly, expected):
        violation(
            "central-node",
            f"identified {_nodes(newly)} but the fully-finite frontier "
            f"rows at entry were {_nodes(expected)}",
        )
    bad_level = newly[state.central_level[newly] != level]
    if len(bad_level):
        violation(
            "central-node",
            "central_level stamp differs from the identification level "
            f"at nodes {_nodes(bad_level)}",
        )
    demoted = np.flatnonzero((pre_cid == 1) & (state.c_identifier == 0))
    if len(demoted):
        violation(
            "central-node", f"CIdentifier flags cleared at nodes {_nodes(demoted)}"
        )
    reported = [node for node, _ in outcome.new_central]
    if reported != newly.tolist():
        violation(
            "central-node",
            f"outcome.new_central reports {reported[:_MAX_CELLS_REPORTED]}, "
            f"the CIdentifier delta is {_nodes(newly)}",
        )
    return found


class CheckedBackend(ExpansionBackend):
    """Invariant-checking wrapper around any expansion backend.

    Args:
        inner: the backend whose levels are to be verified.
        raise_on_violation: raise :class:`InvariantViolationError` at the
            end of the first offending level (default). When ``False``,
            violations accumulate in :attr:`violations` and the search
            continues — useful for surveying a deliberately faulty
            backend.

    Attributes:
        violations: every violation observed so far.
        levels_checked: number of levels verified.
    """

    def __init__(
        self, inner: ExpansionBackend, raise_on_violation: bool = True
    ) -> None:
        self.inner = inner
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self.levels_checked = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"checked:{self.inner.name}"

    @property
    def counter_tier(self) -> Optional[str]:  # type: ignore[override]
        return self.inner.counter_tier

    def close(self) -> None:
        """Release the wrapped backend's resources."""
        self.inner.close()

    def run_level(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
        timer: PhaseTimer,
    ) -> LevelOutcome:
        """Run one level of the wrapped backend, then check I1–I6."""
        pre_matrix = state.matrix.copy()
        pre_fid = state.f_identifier.copy()
        pre_cid = state.c_identifier.copy()
        outcome = self.inner.run_level(
            graph, state, level, k, may_expand, timer
        )
        found = _verify_level(
            state, level, outcome, pre_matrix, pre_fid, pre_cid
        )
        self.levels_checked += 1
        if found:
            self.violations.extend(found)
            if self.raise_on_violation:
                raise InvariantViolationError(found)
        return outcome
