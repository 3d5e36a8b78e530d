"""``CheckedBackend`` — machine-checking the lock-free invariants.

The paper's parallel expansion is lock-free *because every racing write
is idempotent* (Theorem V.2). Until now the repo asserted that only in
comments; this wrapper asserts it in code. Wrap any
:class:`~repro.parallel.backend.ExpansionBackend` and every level it
runs is verified against the invariants the theorem actually needs:

I1 **write-once per cell** — a matrix cell finite before the level is
   never overwritten (each BFS instance hits a node at exactly one
   level).
I2 **level stamp** — every cell that became finite during the level
   holds exactly ``level + 1``.
I3 **idempotent races** — all recorded stores into the same cell carry
   identical values equal to ``level + 1`` (racing writers are benign
   because they write the same constant); recorded stores and the
   observed matrix delta agree exactly — nothing written unrecorded,
   nothing recorded unwritten.
I4 **frontier monotonicity** — ``FIdentifier`` flags only ever go
   0 → 1 during expansion, with value 1.
I5 **finite-count accounting** — the incremental ``finite_count``
   equals a from-scratch recount of finite M cells after every level
   (the deduplicated write set was applied exactly once).

The checker works from a pre-level snapshot plus the per-thread
:class:`~repro.analysis.writelog.WriteLog` the kernels fill in when one
is attached to the state; every expansion it wraps gets one. A backend
that runs the whole level in one call of its own (``VectorizedBackend``)
is checked around that call, with no log: the delta invariants
(I1/I2/I4/I5) plus the level's enqueue and identification steps
(:meth:`CheckedBackend._verify_level`).

Overhead is strictly opt-in: an unwrapped backend never allocates a log
and the kernels pay a single ``is not None`` branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from ..instrumentation import KernelCounters, PhaseTimer
from ..parallel.backend import ExpansionBackend, LevelOutcome
from .writelog import WriteLog

#: Cap on how many individual cells one violation report enumerates.
_MAX_CELLS_REPORTED = 8


@dataclass(frozen=True)
class InvariantViolation:
    """One detected breach of the lock-free write discipline.

    Attributes:
        invariant: short code — ``write-once``, ``level-stamp``,
            ``racing-value``, ``unrecorded-write``, ``phantom-write``,
            ``frontier-clear``, ``frontier-value``, ``finite-count``.
        level: BFS level whose expansion broke the invariant.
        detail: human-readable description with offending cells.
    """

    invariant: str
    level: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] level {self.level}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by :class:`CheckedBackend` when an expansion level breaks
    the lock-free invariants."""

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


def _finite_count_violations(
    state: SearchState, level: int
) -> List[InvariantViolation]:
    """I5 — incremental ``finite_count`` equals a from-scratch recount."""
    recount = (state.matrix != INFINITE_LEVEL).sum(axis=1, dtype=np.int32)
    wrong = np.flatnonzero(recount != state.finite_count)[:_MAX_CELLS_REPORTED]
    if not len(wrong):
        return []
    return [
        InvariantViolation(
            "finite-count",
            level,
            "incremental finite_count diverged from recount "
            f"at nodes {wrong.tolist()} "
            f"(have {state.finite_count[wrong].tolist()}, "
            f"expect {recount[wrong].tolist()})",
        )
    ]


class CheckedBackend(ExpansionBackend):
    """Invariant-checking wrapper around any expansion backend.

    Args:
        inner: the backend whose writes are to be verified.
        raise_on_violation: raise :class:`InvariantViolationError` at the
            end of the first offending level (default). When ``False``,
            violations accumulate in :attr:`violations` and the search
            continues — useful for surveying a deliberately faulty
            backend.

    Attributes:
        violations: every violation observed so far.
        levels_checked: number of expansion levels verified.
    """

    def __init__(
        self, inner: ExpansionBackend, raise_on_violation: bool = True
    ) -> None:
        self.inner = inner
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self.levels_checked = 0

    # ------------------------------------------------------------------
    # Delegation: the wrapper must be a drop-in backend
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return f"checked:{self.inner.name}"

    def close(self) -> None:
        """Release the wrapped backend's resources."""
        self.inner.close()

    # ------------------------------------------------------------------
    # Checked expansion
    # ------------------------------------------------------------------
    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> Optional[KernelCounters]:
        """Run the wrapped backend's expansion, then verify invariants I1-I5."""
        pre_matrix = state.matrix.copy()
        pre_fid = state.f_identifier.copy()
        log = WriteLog()
        previous = state.write_log
        state.write_log = log
        try:
            counters = self.inner.expand(graph, state, level)
        finally:
            state.write_log = previous
        self._report(self._verify(state, level, pre_matrix, pre_fid, log))
        return counters

    def _report(self, found: List[InvariantViolation]) -> None:
        self.levels_checked += 1
        if found:
            self.violations.extend(found)
            if self.raise_on_violation:
                raise InvariantViolationError(found)

    # ------------------------------------------------------------------
    # Checked level
    # ------------------------------------------------------------------
    def run_level(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        level: int,
        k: int,
        may_expand: bool,
        timer: PhaseTimer,
    ) -> LevelOutcome:
        """Run one level of the wrapped backend under the checker.

        A backend that inherits the composed level gets it composed
        here, over the logged :meth:`expand` above, so the write-log
        invariants apply to it. One that overrides ``run_level`` is
        verified around its own call instead: beyond the expansion
        invariants (I1/I2/I4/I5 from the matrix/frontier delta — no
        write log is attached, letting the inner backend use its native
        path) the level's *orchestration* is checked — the drained
        frontier matches the pre-call FIdentifier flags, and the newly
        identified Central Nodes are exactly the frontier nodes whose M
        row was fully finite at entry (Lemma V.1, stamped at this
        level).
        """
        if type(self.inner).run_level is ExpansionBackend.run_level:
            return super().run_level(graph, state, level, k, may_expand, timer)
        pre_matrix = state.matrix.copy()
        pre_fid = state.f_identifier.copy()
        pre_cid = state.c_identifier.copy()
        outcome = self.inner.run_level(
            graph, state, level, k, may_expand, timer
        )
        self._report(
            self._verify_level(
                state, level, outcome, pre_matrix, pre_fid, pre_cid
            )
        )
        return outcome

    def _verify_level(
        self,
        state: SearchState,
        level: int,
        outcome: LevelOutcome,
        pre_matrix: np.ndarray,
        pre_fid: np.ndarray,
        pre_cid: np.ndarray,
    ) -> List[InvariantViolation]:
        found: List[InvariantViolation] = []
        q = state.n_keywords
        next_level = level + 1
        matrix = state.matrix.ravel()
        pre = pre_matrix.ravel()

        # Enqueue: the drained frontier is exactly the pre-call flags.
        expected_frontier = np.flatnonzero(pre_fid).astype(np.int64)
        if not np.array_equal(state.frontier, expected_frontier):
            found.append(
                InvariantViolation(
                    "frontier-drain",
                    level,
                    f"drained frontier has {len(state.frontier)} node(s), "
                    f"expected the {len(expected_frontier)} pre-call "
                    "FIdentifier flags",
                )
            )

        changed = np.flatnonzero(matrix != pre)
        overwritten = changed[pre[changed] != INFINITE_LEVEL]
        if len(overwritten):
            found.append(
                InvariantViolation(
                    "write-once",
                    level,
                    "finite cells overwritten during the fused level: "
                    + _describe_cells(overwritten, q),
                )
            )
        fresh = changed[pre[changed] == INFINITE_LEVEL]
        bad_stamp = fresh[matrix[fresh] != next_level]
        if len(bad_stamp):
            values = sorted({int(v) for v in matrix[bad_stamp]})
            found.append(
                InvariantViolation(
                    "level-stamp",
                    level,
                    f"cells written with value(s) {values} instead of "
                    f"{next_level}: " + _describe_cells(bad_stamp, q),
                )
            )

        # Identification: exactly the frontier nodes whose row was fully
        # finite at entry (and not yet central), stamped at this level.
        newly = np.flatnonzero((state.c_identifier == 1) & (pre_cid == 0))
        expected = expected_frontier[
            (pre_cid[expected_frontier] == 0)
            & np.all(
                pre_matrix[expected_frontier] != INFINITE_LEVEL, axis=1
            )
        ]
        if not np.array_equal(newly, expected):
            found.append(
                InvariantViolation(
                    "central-node",
                    level,
                    f"identified {newly[:_MAX_CELLS_REPORTED].tolist()} "
                    "but the fully-finite frontier rows at entry were "
                    f"{expected[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )
        if len(newly):
            bad_level = newly[state.central_level[newly] != level]
            if len(bad_level):
                found.append(
                    InvariantViolation(
                        "central-node",
                        level,
                        "central_level stamp differs from the "
                        "identification level at nodes "
                        f"{bad_level[:_MAX_CELLS_REPORTED].tolist()}",
                    )
                )
        demoted = np.flatnonzero((pre_cid == 1) & (state.c_identifier == 0))
        if len(demoted):
            found.append(
                InvariantViolation(
                    "central-node",
                    level,
                    "CIdentifier flags cleared at nodes "
                    f"{demoted[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )
        reported = [node for node, _ in outcome.new_central]
        if reported != [int(node) for node in newly]:
            found.append(
                InvariantViolation(
                    "central-node",
                    level,
                    "outcome.new_central disagrees with the "
                    "CIdentifier delta",
                )
            )

        bad_flag = np.flatnonzero(
            (state.f_identifier != 0) & (state.f_identifier != 1)
        )
        if len(bad_flag):
            found.append(
                InvariantViolation(
                    "frontier-value",
                    level,
                    f"FIdentifier holds non-boolean values at nodes "
                    f"{bad_flag[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )

        found.extend(_finite_count_violations(state, level))
        return found

    # ------------------------------------------------------------------
    def _verify(
        self,
        state: SearchState,
        level: int,
        pre_matrix: np.ndarray,
        pre_fid: np.ndarray,
        log: WriteLog,
    ) -> List[InvariantViolation]:
        found: List[InvariantViolation] = []
        q = state.n_keywords
        next_level = level + 1
        matrix = state.matrix.ravel()
        pre = pre_matrix.ravel()

        changed = np.flatnonzero(matrix != pre)

        # I1 — write-once: a cell finite before this level must not change.
        overwritten = changed[pre[changed] != INFINITE_LEVEL]
        if len(overwritten):
            found.append(
                InvariantViolation(
                    "write-once",
                    level,
                    "finite cells overwritten during expansion: "
                    + _describe_cells(overwritten, q),
                )
            )

        # I2 — level stamp: newly finite cells hold exactly level + 1.
        fresh = changed[pre[changed] == INFINITE_LEVEL]
        bad_stamp = fresh[matrix[fresh] != next_level]
        if len(bad_stamp):
            values = sorted({int(v) for v in matrix[bad_stamp]})
            found.append(
                InvariantViolation(
                    "level-stamp",
                    level,
                    f"cells written with value(s) {values} instead of "
                    f"{next_level}: " + _describe_cells(bad_stamp, q),
                )
            )

        # I3 — recorded stores vs. observed delta.
        cells, values = log.matrix_writes()
        bad_value = cells[values != next_level]
        if len(bad_value):
            found.append(
                InvariantViolation(
                    "racing-value",
                    level,
                    "recorded stores carry a value other than "
                    f"{next_level} (non-idempotent race): "
                    + _describe_cells(bad_value, q),
                )
            )
        recorded = np.unique(cells)
        delta = np.unique(changed)
        unrecorded = np.setdiff1d(delta, recorded, assume_unique=True)
        if len(unrecorded):
            found.append(
                InvariantViolation(
                    "unrecorded-write",
                    level,
                    "matrix cells changed without a matching write "
                    "record: " + _describe_cells(unrecorded, q),
                )
            )
        # A recorded store must have landed on a previously-∞ cell.
        # (Racing duplicates land together, so "recorded but target
        # already finite before the level" is a double-claim.)
        phantom = recorded[pre[recorded] != INFINITE_LEVEL]
        if len(phantom):
            found.append(
                InvariantViolation(
                    "phantom-write",
                    level,
                    "stores recorded against cells already finite "
                    "before the level: " + _describe_cells(phantom, q),
                )
            )

        # I4 — FIdentifier monotone 0 → 1 with value 1.
        cleared = np.flatnonzero((pre_fid != 0) & (state.f_identifier == 0))
        if len(cleared):
            found.append(
                InvariantViolation(
                    "frontier-clear",
                    level,
                    f"FIdentifier flags cleared during expansion at nodes "
                    f"{cleared[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )
        bad_flag = np.flatnonzero(
            (state.f_identifier != 0) & (state.f_identifier != 1)
        )
        if len(bad_flag):
            found.append(
                InvariantViolation(
                    "frontier-value",
                    level,
                    f"FIdentifier holds non-boolean values at nodes "
                    f"{bad_flag[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )
        nodes, values = log.frontier_writes()
        bad_nodes = nodes[values != 1]
        if len(bad_nodes):
            found.append(
                InvariantViolation(
                    "frontier-value",
                    level,
                    "recorded FIdentifier stores with value != 1 at "
                    f"nodes {bad_nodes[:_MAX_CELLS_REPORTED].tolist()}",
                )
            )

        found.extend(_finite_count_violations(state, level))
        return found
