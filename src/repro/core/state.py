"""Shared search state for the bottom-up stage (Section V-B).

Three flat arrays realize the paper's lock-free design:

* ``FIdentifier`` — 1 for nodes that become frontiers in the next
  iteration; reset after each enqueue.
* ``CIdentifier`` — 1 for nodes already identified as Central Nodes; such
  nodes never expand again.
* ``M`` — the node-keyword matrix of hitting levels; ``M[v][i]`` is the
  hitting level of node ``v`` w.r.t. keyword ``t_i`` (0 for the keyword's
  own source nodes, ∞ before the BFS instance reaches ``v``).

The paper stores one byte per matrix cell ("one byte is all we need to
record a hitting level"); we keep the same uint8 layout with 255 as ∞,
which caps the maximum BFS level at 254 — far above any practical
expansion depth given A ≈ 4.

All writes during expansion are idempotent (always 1, or always the
current level + 1), which is exactly what makes the procedure lock-free
(Theorem V.2): racing writers write the same value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from ..graph.store import allocated_nbytes, memmap_base

if TYPE_CHECKING:
    from ..parallel._native import BoundWholeLevel, StageTwoScratch

_Bound = TypeVar("_Bound")

INFINITE_LEVEL = np.uint8(255)
MAX_LEVEL = 254

#: The most keyword groups one query may have: the kernel carries a
#: node's q conditions in at most eight 8-lane words, and a contribution
#: or live-lane mask in one 64-bit word.
MAX_KEYWORDS = 64

# Why the bottom-up loop stopped (shared by every engine variant).
TERMINATED_ENOUGH_ANSWERS = "enough_central_nodes"
TERMINATED_FRONTIER_EMPTY = "frontier_empty"
TERMINATED_LEVEL_CAP = "level_cap"
TERMINATED_NO_MORE_CENTRAL = "no_more_central_nodes"

#: A live-lane mask with every lane set: what a level reports when its
#: backend does not track lanes, so no lane ever counts as closed.
ALL_LANES = -1


class TooManyKeywordsError(ValueError):
    """A query has more than :data:`MAX_KEYWORDS` keyword groups."""


class ArenaLeaseError(RuntimeError):
    """A search arena was leased while already leased, or returned
    while not leased: two queries would share its buffers."""


class SearchArena:
    """The memory a query runs in, kept from one query to the next.

    For a graph of ``n_nodes`` nodes it holds M (reallocated only when
    q changes), the five per-node arrays (FIdentifier, CIdentifier, the
    keyword mask, the central levels, the finite counts), the
    whole-level call's three output buffers, the calls bound to them
    (:meth:`binding`) and stage two's per-chunk scratch
    (:meth:`scratches`). A query leases it through
    :meth:`ArenaPool.lease`; while leased it is that query's alone, and
    :meth:`reset` fills it as a fresh allocation would be. The lease
    ends with :meth:`release`, which frees stage-two buffers grown past
    their starting capacities, so its size between queries is bounded
    by q and the graph: :attr:`nbytes`.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        # Filled by reset() at every lease.
        self.matrix = np.empty((n_nodes, 0), dtype=np.uint8)
        self.f_identifier = np.empty(n_nodes, dtype=np.uint8)
        self.c_identifier = np.empty(n_nodes, dtype=np.uint8)
        self.keyword_node = np.empty(n_nodes, dtype=bool)
        self.central_level = np.empty(n_nodes, dtype=np.int16)
        self.finite_count = np.empty(n_nodes, dtype=np.int32)
        #: The whole-level call's ``(frontier_out, central_out,
        #: stats_out)``, which it writes before any read.
        self.outputs = (
            np.empty(n_nodes, dtype=np.int64),
            np.empty(n_nodes, dtype=np.int64),
            np.zeros(8, dtype=np.int64),
        )
        self.leased = False
        #: Bytes of the six arrays :meth:`reset` returns: heap by
        #: construction and fixed until the next reset, so a query's
        #: Table IV accounting charges them from here, once.
        self.state_nbytes = 0
        self._bindings: Dict[str, Tuple[tuple, object]] = {}
        self._scratches: List["StageTwoScratch"] = []

    def acquire(self) -> None:
        if self.leased:
            raise ArenaLeaseError("search arena leased twice")
        self.leased = True

    def release(self) -> None:
        if not self.leased:
            raise ArenaLeaseError("search arena returned but not leased")
        for scratch in self._scratches:
            scratch.shrink()
        self.leased = False

    def reset(self, q: int) -> Tuple[np.ndarray, ...]:
        """M for ``q`` keywords and the five per-node arrays, filled as
        :meth:`SearchState.initialize` allocates them: ``(matrix,
        f_identifier, c_identifier, keyword_node, central_level,
        finite_count)``."""
        if self.matrix.shape[1] != q:
            self.matrix = np.empty((self.n_nodes, q), dtype=np.uint8)
        self.matrix.fill(INFINITE_LEVEL)
        self.f_identifier.fill(0)
        self.c_identifier.fill(0)
        self.keyword_node.fill(False)
        self.central_level.fill(-1)
        self.finite_count.fill(0)
        arrays = (
            self.matrix,
            self.f_identifier,
            self.c_identifier,
            self.keyword_node,
            self.central_level,
            self.finite_count,
        )
        self.state_nbytes = sum(int(array.nbytes) for array in arrays)
        return arrays

    def binding(
        self, name: str, key: Tuple[object, ...], bind: Callable[[], _Bound]
    ) -> _Bound:
        """The call bound as ``name`` for exactly the objects in ``key``
        (compared by identity); ``bind()`` makes it the first time and
        whenever one of them changed — q (a new M), the α's activation
        array or the graph."""
        held = self._bindings.get(name)
        if held is None or len(held[0]) != len(key) or any(
            mine is not theirs for mine, theirs in zip(held[0], key)
        ):
            held = (key, bind())
            self._bindings[name] = held
        return held[1]  # type: ignore[return-value]

    def scratches(
        self,
        count: int,
        capacities: Tuple[int, int, int],
        make: Callable[[Tuple[int, int, int]], "StageTwoScratch"],
    ) -> List["StageTwoScratch"]:
        """Stage two's scratch for ``count`` concurrent chunks, one
        each, started at ``(nodes, edges, pairs)`` ``capacities``;
        ``make(capacities)`` adds what is missing. Scratch started at
        other capacities is dropped first."""
        if any(held.capacities != capacities for held in self._scratches):
            self._scratches = []
        while len(self._scratches) < count:
            self._scratches.append(make(capacities))
        return self._scratches[:count]

    @property
    def nbytes(self) -> int:
        """Bytes of every array the arena holds."""
        arrays = [
            self.matrix,
            self.f_identifier,
            self.c_identifier,
            self.keyword_node,
            self.central_level,
            self.finite_count,
            *self.outputs,
        ]
        total = sum(int(array.nbytes) for array in arrays)
        for scratch in list(self._scratches):
            total += scratch.columns_nbytes + sum(
                int(array.nbytes) for array in scratch.arrays.values()
            )
        return total


class ArenaPool:
    """The search arenas of one graph, one leased per query.

    A lease takes a free arena or makes one, so there are never more
    arenas than queries ever ran at once — two request workers leave at
    most two — and process memory is arenas × arena size + graph
    (:meth:`report`). The free list is a plain list: ``pop`` and
    ``append`` are atomic, so leasing takes no lock.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._free: List[SearchArena] = []
        self._arenas: List[SearchArena] = []

    @contextmanager
    def lease(self) -> Iterator[SearchArena]:
        """An arena that is the caller's alone until the block exits,
        normally or by an exception.

        Raises:
            ArenaLeaseError: the arena taken was leased already.
        """
        try:
            arena = self._free.pop()
        except IndexError:
            arena = SearchArena(self.n_nodes)
            self._arenas.append(arena)
        arena.acquire()
        try:
            yield arena
        finally:
            arena.release()
            self._free.append(arena)

    @property
    def leased(self) -> int:
        """How many arenas are leased right now."""
        return sum(arena.leased for arena in list(self._arenas))

    def report(self) -> Dict[str, int]:
        """``{"search_arenas", "search_arena_bytes"}``: how many arenas
        exist and the bytes they hold together."""
        arenas = list(self._arenas)
        return {
            "search_arenas": len(arenas),
            "search_arena_bytes": sum(arena.nbytes for arena in arenas),
        }


@dataclass
class SearchState:
    """Mutable per-query state shared by every expansion backend.

    Attributes:
        matrix: the (n_nodes × q) uint8 hitting-level matrix M.
        f_identifier: frontier flags for the *next* iteration.
        c_identifier: central-node flags.
        central_level: per-node BFS level at which the node was identified
            as a Central Node (-1 otherwise). Needed by extraction: an
            identified Central Node stops expanding (Section III-B), so a
            hitting path cannot pass through it beyond that level.
        keyword_node: bool mask — does the node contain any query keyword?
            (Keyword nodes may be *hit* regardless of activation, Sec IV-B.)
        activation: per-node minimum activation levels a_i for this query's α.
        max_activation: ``activation.max()`` — a constant of the query that
            the kernels' "can any node still block?" test reads every level.
        frontier: node ids expanding at the current level.
        central_nodes: (node, depth) pairs in identification order.
        finite_count: per-node count of finite cells in the node's M row.
            Backends maintain it incrementally (each hit converts exactly
            one ∞ cell, so the count advances by the number of deduplicated
            (node, keyword) writes), which turns Central Node
            identification into a 1-D ``finite_count == q`` compare instead
            of a 2-D row scan.
    """

    matrix: np.ndarray
    f_identifier: np.ndarray
    c_identifier: np.ndarray
    keyword_node: np.ndarray
    activation: np.ndarray
    max_activation: int
    #: The arena the state's arrays live in (leased, or the state's
    #: own), whose bound calls and stage-two scratch the query reuses.
    arena: SearchArena
    central_level: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int16)
    )
    frontier: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    central_nodes: List[Tuple[int, int]] = field(default_factory=list)
    finite_count: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    #: The native whole-level call with this query's arrays and its own
    #: output buffers bound (:meth:`repro.parallel._native.NativeKernel.
    #: bind_whole_level`), set on the first native level: the arena's
    #: call. It lives here and never on the backend, which every
    #: request thread shares. ``frontier`` is then a view of its
    #: frontier buffer; only the live length is charged by
    #: :meth:`nbytes`.
    whole_level: Optional[BoundWholeLevel] = None
    #: The lanes the last expansion left open (bit i: BFS instance i may
    #: still be written at a later level), set by the backend that ran
    #: it; :data:`ALL_LANES` when the backend does not track them.
    live_lanes: int = ALL_LANES

    # ------------------------------------------------------------------
    # Construction (the "Initialization" phase of Fig. 6/7)
    # ------------------------------------------------------------------
    @classmethod
    def initialize(
        cls,
        n_nodes: int,
        keyword_node_sets: Sequence[np.ndarray],
        activation: np.ndarray,
        max_activation: Optional[int] = None,
        arena: Optional[SearchArena] = None,
    ) -> "SearchState":
        """Set up M, FIdentifier and CIdentifier for one query.

        Every node in ``keyword_node_sets[i]`` gets ``M[v][i] = 0`` and is
        flagged as an initial frontier (BFS instances start at their source
        sets with expansion level 0). Past the fills of the per-node
        arrays, only the source rows are touched: no pass runs over all
        |V| nodes or all |V|·q cells — provided the caller passes
        ``max_activation``, ``activation``'s maximum, which an engine
        computes once per α. Without it, one pass over ``activation``
        computes it here. The arrays are ``arena``'s (a leased
        :class:`SearchArena` for ``n_nodes`` nodes), reset as a fresh
        allocation would be; without one the state gets its own.

        Raises:
            TooManyKeywordsError: more than :data:`MAX_KEYWORDS` sets.
            ValueError: if there are no keywords or activation is missized.
        """
        q = len(keyword_node_sets)
        if q == 0:
            raise ValueError("need at least one keyword node set")
        if q > MAX_KEYWORDS:
            raise TooManyKeywordsError(
                f"a query may have at most {MAX_KEYWORDS} keywords that "
                f"match the graph; this one has {q}"
            )
        if len(activation) != n_nodes:
            raise ValueError("activation array must have one entry per node")
        if arena is None:
            arena = SearchArena(n_nodes)
        elif arena.n_nodes != n_nodes:
            raise ValueError("the arena is sized for another graph")
        (
            matrix, f_identifier, c_identifier, keyword_node,
            central_level, finite_count,
        ) = arena.reset(q)
        for column, nodes in enumerate(keyword_node_sets):
            nodes = np.asarray(nodes, dtype=np.int64)
            matrix[nodes, column] = 0
            f_identifier[nodes] = 1
            keyword_node[nodes] = True
            # Buffered fancy add: an id repeated inside one set adds 1
            # once, as it fills one cell (np.add.at would add it twice).
            finite_count[nodes] += 1
        activation = np.asarray(activation, dtype=np.int32)
        if max_activation is None:
            max_activation = int(activation.max()) if n_nodes else 0
        return cls(
            matrix=matrix,
            f_identifier=f_identifier,
            c_identifier=c_identifier,
            keyword_node=keyword_node,
            activation=activation,
            max_activation=max_activation,
            central_level=central_level,
            finite_count=finite_count,
            arena=arena,
        )

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_keywords(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_central_nodes(self) -> int:
        return len(self.central_nodes)

    # ------------------------------------------------------------------
    # Per-iteration steps shared by all backends
    # ------------------------------------------------------------------
    def enqueue_frontiers(self) -> int:
        """Move FIdentifier flags into the joint frontier array.

        This is the "Enqueuing frontiers" phase: nodes flagged during the
        previous expansion (or at initialization) become the current
        frontier, and the flags are cleared for the next round. One joint
        frontier serves all BFS instances (the joint frontier array of
        iBFS); a node is a frontier as long as it is one in *any* instance.

        Returns:
            The number of frontier nodes enqueued.
        """
        self.frontier = np.flatnonzero(self.f_identifier).astype(np.int64, copy=False)
        self.f_identifier[:] = 0
        return len(self.frontier)

    def identify_central_nodes(self, level: int) -> List[Tuple[int, int]]:
        """Flag frontiers whose M row is fully finite as Central Nodes.

        Only frontiers need checking — they are exactly the nodes modified
        at the previous level. Per Lemma V.1 the Central Graph depth equals
        the BFS level at identification time. Identified nodes become
        unavailable for future expansion (Section III-B).

        With ``finite_count`` exact this is an O(frontier) 1-D compare.

        Returns:
            The (node, depth) pairs newly identified at this level.
        """
        if len(self.frontier) == 0:
            return []
        candidates = self.frontier[self.c_identifier[self.frontier] == 0]
        if len(candidates) == 0:
            return []
        newly_central = candidates[
            self.finite_count[candidates] == self.n_keywords
        ]
        if len(newly_central) == 0:
            return []
        self.c_identifier[newly_central] = 1
        self.central_level[newly_central] = level
        found = [(int(node), level) for node in newly_central]
        self.central_nodes.extend(found)
        return found

    def no_central_node_can_follow(self, live_lanes: int) -> bool:
        """Whether no Central Node can appear after the next identify.

        A lane outside ``live_lanes`` is closed: its finite set is final
        (the proof is in :mod:`repro.core.bottom_up`). Every future
        Central Node is finite in every closed lane, so when each such
        node already has ``finite_count == q`` (and is therefore
        identified at the next level at the latest) there is nothing
        left to find. False at once while no lane is closed; otherwise
        one pass over the first closed lane's column, after which only
        the nodes finite in that lane are read.
        """
        q = self.n_keywords
        closed_mask = ~live_lanes & ((1 << q) - 1)
        if not closed_mask:
            return False
        closed = [column for column in range(q) if closed_mask >> column & 1]
        rows = np.flatnonzero(self.matrix[:, closed[0]] != INFINITE_LEVEL)
        rows = rows[self.finite_count[rows] < q]
        for column in closed[1:]:
            rows = rows[self.matrix[rows, column] != INFINITE_LEVEL]
        return len(rows) == 0

    # ------------------------------------------------------------------
    # Incremental finite-cell accounting
    # ------------------------------------------------------------------
    def record_hits(self, nodes: np.ndarray) -> None:
        """Advance ``finite_count`` after deduplicated matrix writes.

        ``nodes`` carries one entry per unique (node, keyword) cell that
        went from ∞ to finite; a node hit in several instances this level
        appears once per instance. Aggregated with ``bincount`` rather
        than ``np.add.at`` — the buffered ufunc path is an order of
        magnitude slower on large hit batches.
        """
        if len(nodes):
            self.finite_count += np.bincount(
                nodes, minlength=self.n_nodes
            ).astype(np.int32)

    def total_finite_cells(self) -> int:
        """Number of finite M cells (used for per-level hit accounting)."""
        return int(self.finite_count.sum())

    # ------------------------------------------------------------------
    # Storage accounting (Table IV)
    # ------------------------------------------------------------------
    def fixed_nbytes(self) -> Tuple[int, Tuple[np.ndarray, ...]]:
        """The part of :meth:`nbytes` that no level resizes.

        Returns the heap bytes of every per-query array but the frontier
        (constant for the query) and the store-backed ones among them,
        whose resident charge can change from level to level. M and the
        five per-node arrays are the arena's, heap by construction and
        charged as :attr:`SearchArena.state_nbytes`; only ``activation``
        (the caller's, possibly a store map) is looked at.
        """
        heap = self.arena.state_nbytes
        if memmap_base(self.activation) is not None:
            return heap, (self.activation,)
        return heap + int(self.activation.nbytes), ()

    def nbytes(
        self, fixed: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None
    ) -> int:
        """Dynamic memory of this query's state.

        Everything allocated per query counts: M, both identifier arrays,
        the keyword mask, the central-level array, the per-query activation
        mapping, the incremental finite-cell counts and the frontier.

        Arrays that turn out to be views over a memory-mapped store file
        (possible when a caller wires store-backed inputs straight into
        the state) are charged at their *resident* page estimate, not
        their on-disk size — mmap-backed bytes are page cache, not
        per-query heap (see :func:`repro.graph.store.allocated_nbytes`).
        The frontier is always heap.

        Args:
            fixed: this query's :meth:`fixed_nbytes`, when the caller
                measures every level and has it already.
        """
        heap, mapped = self.fixed_nbytes() if fixed is None else fixed
        for array in mapped:
            heap += allocated_nbytes(array)
        return heap + int(self.frontier.nbytes)
