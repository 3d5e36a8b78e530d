"""Schedule-exploration checker for the lock-free chunk protocol.

ThreadSanitizer (:mod:`repro.analysis.sanitize`) proves the racing
writes are *data-race free modulo the declared Theorem V.2 sites*; the
:class:`~repro.analysis.checked.CheckedBackend` proves each observed
execution kept the write discipline. Neither explores the space of
executions: a protocol bug that only corrupts state under a chunk order
the thread pool happens never to produce — or that TSan's happens-before
model files under the already-suppressed benign races — stays invisible.

This module closes that gap with a **deterministic virtual scheduler**:
:class:`VirtualScheduleBackend` replays the
:class:`~repro.parallel.threads.ThreadPoolBackend` protocol (the pool's
own :func:`~repro.parallel.threads.split_frontier` and
:func:`~repro.parallel.threads.merge_chunk_hits`, the same fused kernel
per chunk) but executes the chunks **sequentially in an arbitrary
order chosen by a** :class:`Schedule`. Because every interleaving of idempotent writes is
state-equivalent to *some* sequential chunk order (the kernel reads the
live matrix only through the monotone ``== INFINITE`` / ``<= level``
predicates), sweeping chunk permutations explores the reachable
outcomes of the real racing pool — deterministically, on one thread.

:func:`explore_schedules` sweeps the schedule space — **exhaustively**
when the per-level permutation space fits the budget, seeded-random plus
named adversarial orders beyond — and asserts, for every schedule:

* bitwise-identical final ``M``, identical Central Nodes, and identical
  ``finite_count`` versus the sequential oracle;
* zero :class:`CheckedBackend` invariant violations.

``repro check --inject schedule`` seeds an order-dependent fault (a
chunk runner that silently drops one committed write on odd schedule
slots — invisible to the per-level invariants) and requires the
explorer to flag the divergence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.state import INFINITE_LEVEL, SearchState
from ..graph.csr import KnowledgeGraph
from ..instrumentation import KernelCounters
from ..parallel.backend import ExpansionBackend
from ..parallel.threads import merge_chunk_hits, split_frontier
from ..parallel.vectorized import fused_expand_chunk
from .checked import CheckedBackend

PrintFn = Callable[[str], None]

#: ``runner(graph, state, level, chunk, counters, slot)`` — the unit of
#: work one virtual "thread" performs; ``slot`` is the position in the
#: schedule at which this chunk executes (0 = first).
ChunkRunner = Callable[
    [KnowledgeGraph, SearchState, int, np.ndarray, KernelCounters, int],
    np.ndarray,
]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------
class Schedule:
    """Chunk execution order for every level of one search replay."""

    name: str = "abstract"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        """Permutation of ``range(n_chunks)`` to execute at ``level``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class IdentitySchedule(Schedule):
    """Submission order — what a perfectly fair pool would do."""

    name = "identity"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        return range(n_chunks)


class ReversedSchedule(Schedule):
    """Last submitted runs first — a fully inverted completion order."""

    name = "reversed"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        return range(n_chunks - 1, -1, -1)


class InterleavedSchedule(Schedule):
    """Odd slots first, then even — adjacent chunks never adjacent."""

    name = "interleaved"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        return [*range(1, n_chunks, 2), *range(0, n_chunks, 2)]


class AlternatingSchedule(Schedule):
    """Reverse on every second level — order flips between levels."""

    name = "alternating"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        if level % 2:
            return range(n_chunks - 1, -1, -1)
        return range(n_chunks)


class SeededSchedule(Schedule):
    """Deterministic random permutation per ``(seed, level)``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.name = f"seeded-{seed}"

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        rng = np.random.default_rng((self.seed + 1) * 7919 + level * 104729)
        return rng.permutation(n_chunks).tolist()


class ExplicitSchedule(Schedule):
    """A fixed per-level permutation table (exhaustive enumeration)."""

    def __init__(
        self, orders: Sequence[Sequence[int]], name: Optional[str] = None
    ) -> None:
        self.orders = [list(order) for order in orders]
        self.name = name or "explicit:" + "/".join(
            "".join(str(i) for i in order) for order in self.orders
        )

    def order(self, level: int, n_chunks: int) -> Sequence[int]:
        if level >= len(self.orders):
            return range(n_chunks)
        order = self.orders[level]
        if len(order) != n_chunks:  # replay drifted from the probe
            return range(n_chunks)
        return order


#: The named adversaries every sweep includes before random sampling.
NAMED_SCHEDULES: Tuple[Callable[[], Schedule], ...] = (
    IdentitySchedule,
    ReversedSchedule,
    InterleavedSchedule,
    AlternatingSchedule,
)


# ---------------------------------------------------------------------------
# Virtual scheduler backend
# ---------------------------------------------------------------------------
class VirtualScheduleBackend(ExpansionBackend):
    """Deterministic single-thread replay of the thread-pool protocol.

    Splits the frontier with the pool's
    :func:`~repro.parallel.threads.split_frontier`, runs the same fused
    kernel once per chunk — but sequentially, in the order the
    :class:`Schedule` dictates — and merges the per-chunk cell keys with
    the pool's :func:`~repro.parallel.threads.merge_chunk_hits`, so the
    only degree of freedom versus the real pool is *when* each chunk's
    reads and writes land.

    Args:
        schedule: chunk execution order per level.
        n_threads / chunks_per_thread: chunking knobs, mirrored from
            :class:`~repro.parallel.threads.ThreadPoolBackend`.
        runner: the per-chunk work function; the default is the real
            fused kernel. ``repro check --inject schedule`` swaps in
            :func:`order_dependent_runner`.

    Attributes:
        chunk_history: ``n_chunks`` observed at each replayed level —
            the probe data :func:`explore_schedules` uses to size the
            exhaustive enumeration.
    """

    def __init__(
        self,
        schedule: Schedule,
        n_threads: int = 4,
        chunks_per_thread: int = 4,
        runner: Optional[ChunkRunner] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be positive")
        if chunks_per_thread < 1:
            raise ValueError("chunks_per_thread must be positive")
        self.schedule = schedule
        self.n_threads = n_threads
        self.chunks_per_thread = chunks_per_thread
        self.runner: ChunkRunner = runner or _fused_runner
        self.name = f"virtual[{schedule.name}]"
        self.chunk_history: List[int] = []

    def expand(
        self, graph: KnowledgeGraph, state: SearchState, level: int
    ) -> KernelCounters:
        frontier = state.frontier
        if len(frontier) == 0:
            return KernelCounters()
        chunks = split_frontier(
            frontier, self.n_threads, self.chunks_per_thread
        )
        self.chunk_history.append(len(chunks))
        order = list(self.schedule.order(level, len(chunks)))
        if sorted(order) != list(range(len(chunks))):
            raise ValueError(
                f"schedule {self.schedule.name!r} returned "
                f"{order!r}, not a permutation of range({len(chunks)})"
            )
        key_lists: List[np.ndarray] = [None] * len(chunks)  # type: ignore
        chunk_counters = [KernelCounters() for _ in chunks]
        for slot, chunk_index in enumerate(order):
            key_lists[chunk_index] = self.runner(
                graph,
                state,
                level,
                chunks[chunk_index],
                chunk_counters[chunk_index],
                slot,
            )
        return merge_chunk_hits(state, key_lists, chunk_counters)


def _fused_runner(
    graph: KnowledgeGraph,
    state: SearchState,
    level: int,
    chunk: np.ndarray,
    counters: KernelCounters,
    slot: int,
) -> np.ndarray:
    return fused_expand_chunk(graph, state, level, chunk, counters)


def order_dependent_runner(
    graph: KnowledgeGraph,
    state: SearchState,
    level: int,
    chunk: np.ndarray,
    counters: KernelCounters,
    slot: int,
) -> np.ndarray:
    """The ``--inject schedule`` fault: silently lose one committed write
    whenever the chunk executes at an odd schedule slot.

    The reverted cell leaves no per-level trace — the store is recorded
    with the correct idempotent value, the matrix ends the level exactly
    as it began for that cell, and the key is withheld from the merge,
    so every :class:`CheckedBackend` invariant stays green. Only the
    *final result's* dependence on the schedule (different slots lose
    different cells) betrays it — precisely the class of bug only
    cross-schedule comparison can catch.
    """
    keys = _fused_runner(graph, state, level, chunk, counters, slot)
    if slot % 2 == 1 and len(keys):
        lost = int(keys[-1])
        state.matrix.ravel()[lost] = INFINITE_LEVEL
        keys = keys[:-1]
    return keys


# ---------------------------------------------------------------------------
# Exploration report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleFinding:
    """One schedule under which the protocol misbehaved.

    Attributes:
        code: ``schedule-divergence`` (result differs from the
            sequential oracle) or ``schedule-invariant`` (CheckedBackend
            violation during the replay).
        schedule: the offending schedule's name.
        detail: what diverged.
    """

    code: str
    schedule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] schedule {self.schedule}: {self.detail}"


@dataclass
class ScheduleReport:
    """Outcome of one :func:`explore_schedules` sweep."""

    findings: List[ScheduleFinding] = field(default_factory=list)
    schedules_run: int = 0
    levels_replayed: int = 0
    exhaustive: bool = False
    space_size: Optional[int] = None

    @property
    def clean(self) -> bool:
        return not self.findings


# ---------------------------------------------------------------------------
# Exploration driver
# ---------------------------------------------------------------------------
def _schedule_case(seed: int):
    """A deliberately tiny fixture so few-chunk levels stay enumerable."""
    from ..graph.generators import WikiKBConfig, wiki_like_kb

    config = WikiKBConfig(
        name=f"schedule-{seed}",
        seed=seed,
        n_papers=12,
        n_people=6,
        n_misc=6,
        n_venues=2,
        n_orgs=2,
    )
    graph, _ = wiki_like_kb(config)
    rng = np.random.default_rng(seed * 53 + 13)
    n = graph.n_nodes
    q = 2 + seed % 3
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 4))))
        for _ in range(q)
    ]
    activation = np.zeros(n, dtype=np.int32)
    k = int(rng.integers(1, 6))
    return graph, sets, activation, k


def _run_search(backend, graph, sets, activation, k):
    from ..core.bottom_up import BottomUpSearch

    with backend:
        return BottomUpSearch(graph, backend=backend).run(sets, activation, k)


def _compare(result, reference, schedule_name: str) -> List[ScheduleFinding]:
    findings: List[ScheduleFinding] = []
    if not np.array_equal(result.state.matrix, reference.state.matrix):
        diff = int(
            np.count_nonzero(result.state.matrix != reference.state.matrix)
        )
        findings.append(
            ScheduleFinding(
                "schedule-divergence",
                schedule_name,
                f"final M differs from the sequential oracle in {diff} "
                "cell(s) — the result depends on chunk execution order",
            )
        )
    if sorted(result.central_nodes) != sorted(reference.central_nodes):
        findings.append(
            ScheduleFinding(
                "schedule-divergence",
                schedule_name,
                "Central Node set differs from the sequential oracle",
            )
        )
    if not np.array_equal(
        result.state.finite_count, reference.state.finite_count
    ):
        findings.append(
            ScheduleFinding(
                "schedule-divergence",
                schedule_name,
                "finite_count differs from the sequential oracle",
            )
        )
    return findings


def _schedule_space(chunk_history: Sequence[int]) -> int:
    size = 1
    for n_chunks in chunk_history:
        size *= math.factorial(n_chunks)
    return size


def explore_schedules(
    case: Optional[Tuple] = None,
    seed: int = 0,
    n_threads: int = 2,
    chunks_per_thread: int = 2,
    budget: int = 48,
    sample_seeds: Sequence[int] = (0, 1, 2, 3),
    runner: Optional[ChunkRunner] = None,
    print_fn: Optional[PrintFn] = None,
) -> ScheduleReport:
    """Sweep chunk schedules and verify every one of them.

    A probe replay under :class:`IdentitySchedule` records how many
    chunks each level produced. When the full per-level permutation
    space is within ``budget``, **every** schedule is enumerated
    (:class:`ExplicitSchedule`); otherwise the sweep runs the named
    adversaries (:data:`NAMED_SCHEDULES`) plus one
    :class:`SeededSchedule` per ``sample_seeds`` entry.

    Every replay runs inside ``CheckedBackend(raise_on_violation=False)``
    and is compared bitwise against the plain sequential oracle.
    """
    emit = print_fn or (lambda message: None)
    graph, sets, activation, k = case or _schedule_case(seed)
    from ..parallel import SequentialBackend

    reference = _run_search(
        SequentialBackend(), graph, sets, activation, k
    )

    # Probe: discover the per-level chunk counts under this fixture.
    probe = VirtualScheduleBackend(
        IdentitySchedule(),
        n_threads=n_threads,
        chunks_per_thread=chunks_per_thread,
        runner=runner,
    )
    _run_search(probe, graph, sets, activation, k)
    chunk_history = list(probe.chunk_history)
    space = _schedule_space(chunk_history)

    schedules: List[Schedule]
    exhaustive = space <= budget
    if exhaustive:
        level_orders = [
            [list(p) for p in itertools.permutations(range(n_chunks))]
            for n_chunks in chunk_history
        ]
        schedules = [
            ExplicitSchedule(combo)
            for combo in itertools.product(*level_orders)
        ]
        emit(
            f"  exhaustive: {len(schedules)} schedule(s) over "
            f"{len(chunk_history)} level(s), chunks {chunk_history}"
        )
    else:
        schedules = [factory() for factory in NAMED_SCHEDULES]
        schedules.extend(SeededSchedule(s) for s in sample_seeds)
        emit(
            f"  sampled: {len(schedules)} schedule(s) from a space of "
            f"{space} (chunks per level: {chunk_history})"
        )

    report = ScheduleReport(
        exhaustive=exhaustive, space_size=space
    )
    for schedule in schedules:
        backend = VirtualScheduleBackend(
            schedule,
            n_threads=n_threads,
            chunks_per_thread=chunks_per_thread,
            runner=runner,
        )
        checked = CheckedBackend(backend, raise_on_violation=False)
        result = _run_search(checked, graph, sets, activation, k)
        report.schedules_run += 1
        report.levels_replayed += checked.levels_checked
        for violation in checked.violations:
            report.findings.append(
                ScheduleFinding(
                    "schedule-invariant", schedule.name, str(violation)
                )
            )
        report.findings.extend(_compare(result, reference, schedule.name))
    return report


def run_schedule_check(
    seeds: Sequence[int] = (0, 1),
    inject: bool = False,
    print_fn: Optional[PrintFn] = None,
) -> ScheduleReport:
    """The `repro check` entry point: per seed, one coarse sweep (two
    chunks per level — small enough to enumerate **every** schedule)
    plus one finer sampled sweep; reports are merged.

    With ``inject=True``, every replay runs the order-dependent faulty
    runner; a clean report then means the explorer failed its self-test.
    """
    emit = print_fn or (lambda message: None)
    runner = order_dependent_runner if inject else None
    merged = ScheduleReport()
    granularities = ((2, 1), (2, 2))
    for seed in seeds:
        for n_threads, chunks_per_thread in granularities:
            emit(f"  seed {seed}, {n_threads}x{chunks_per_thread} chunks:")
            report = explore_schedules(
                seed=seed,
                n_threads=n_threads,
                chunks_per_thread=chunks_per_thread,
                runner=runner,
                print_fn=print_fn,
            )
            merged.schedules_run += report.schedules_run
            merged.levels_replayed += report.levels_replayed
            merged.findings.extend(report.findings)
            merged.exhaustive = merged.exhaustive or report.exhaustive
    return merged
