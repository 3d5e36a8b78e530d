"""The end-to-end keyword search engine (the paper's "WikiSearch").

Wires together the substrates: the inverted keyword index supplies each
term's source set ``T_i``; degree-of-summary weights plus the sampled
average distance feed the Penalty-and-Reward activation mapping; the
bottom-up stage (on a pluggable parallel backend) solves top-(k,d); the
top-down stage extracts, prunes, deduplicates and ranks.

Typical use::

    engine = KeywordSearchEngine(graph)
    result = engine.search("xml rdf sql", k=20, alpha=0.1)
    for answer in result.answers:
        print(answer.graph.describe(graph.node_text))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..instrumentation import (
    PHASE_TOTAL,
    PhaseTimer,
    StorageReport,
)
from ..graph.csr import KnowledgeGraph
from ..graph.sampling import estimate_average_distance
from ..parallel.backend import ExpansionBackend
from ..text.inverted_index import InvertedIndex
from ..text.tokenizer import Tokenizer
from .activation import ActivationModel
from .bottom_up import BottomUpSearch
from .central_graph import SearchAnswer
from .results import EmptyQueryError, SearchResult
from .scoring import DEFAULT_LAMBDA
from .state import ArenaPool, SearchState
from .top_down import TopDownConfig, bind_graph, process_top_down
from .weights import node_weights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel._native import BoundGraph

#: Activation mappings kept per engine, most recently used last. Each is
#: 4·|V| bytes and ``alpha`` is a free request parameter, so the cache
#: must not grow with the number of distinct values ever asked for.
ACTIVATION_CACHE_SIZE = 8


@dataclass
class EngineConfig:
    """Engine-level defaults (Table III's parameters).

    Attributes:
        topk: answers returned per query (paper default 20).
        alpha: activation preference knob (paper default 0.1).
        lam: Eq. 6's λ (paper default 0.2).
        lmax: bottom-up level cap.
        top_down_threads: stage-two extraction parallelism.
        top_down_native: ``False`` pins stage two to the reference
            route (NumPy hitting-DAG build and extraction walk, one
            object per Central Graph); ``None`` takes the batch route —
            ``extract_graphs`` then ``rank_graphs``, one call each per
            query.
        distance_sample_pairs: pairs sampled to estimate A at startup.
        apply_level_cover / deduplicate / single_path: ablation switches.
    """

    topk: int = 20
    alpha: float = 0.1
    lam: float = DEFAULT_LAMBDA
    lmax: int = 24
    top_down_threads: int = 1
    top_down_native: Optional[bool] = None
    distance_sample_pairs: int = 2000
    apply_level_cover: bool = True
    deduplicate: bool = True
    single_path: bool = False
    seed: int = 0


class KeywordSearchEngine:
    """Central Graph keyword search over one knowledge graph.

    Construction performs the offline work (index build, Eq. 2 weights,
    A estimation); :meth:`search` is the online path. Activation levels
    are cached for the :data:`ACTIVATION_CACHE_SIZE` most recently used α
    values, so repeated queries pay only array lookups. Construction
    loads the compiled kernel, which every route needs: a host that
    cannot build it raises
    :class:`~repro.parallel._native.NativeKernelUnavailable` here.

    Args:
        graph: the knowledge graph to search.
        backend: expansion backend; defaults to the production route,
            :class:`~repro.parallel.VectorizedBackend` (the "GPU-Par"
            analogue). Pass :class:`~repro.parallel.SequentialBackend`
            for the per-node reference or a ``ThreadPoolBackend`` for
            "CPU-Par".
        config: engine defaults; fields are overridable per query.
        index: a prebuilt inverted index (built from the graph if omitted).
        weights: precomputed normalized weights (computed if omitted).
        average_distance: precomputed A (sampled if omitted).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        backend: Optional[ExpansionBackend] = None,
        config: Optional[EngineConfig] = None,
        index: Optional[InvertedIndex] = None,
        weights: Optional[np.ndarray] = None,
        average_distance: Optional[float] = None,
        tokenizer: Optional[Tokenizer] = None,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.index = index or InvertedIndex.from_graph(graph, tokenizer)
        # Normalised once, here: stage two's kernel reads ``double*``.
        self.weights = (
            np.ascontiguousarray(weights, dtype=np.float64)
            if weights is not None
            else node_weights(graph)
        )
        if len(self.weights) != graph.n_nodes:
            raise ValueError("weights array must have one entry per node")
        if average_distance is None:
            estimate = estimate_average_distance(
                graph,
                n_pairs=self.config.distance_sample_pairs,
                seed=self.config.seed,
            )
            average_distance = estimate.average
        self.average_distance = float(average_distance)
        self._searcher = BottomUpSearch(
            graph, backend=backend, lmax=self.config.lmax
        )
        self._activation_cache: Dict[float, Tuple[np.ndarray, int]] = {}
        # Stage two's binding of the graph and weights, made once. It
        # loads the kernel, so a host without one fails here.
        self._bound_graph: BoundGraph = bind_graph(graph, self.weights)
        #: The search arenas :meth:`search` leases, one per query in
        #: flight (:meth:`ArenaPool.report` sizes them).
        self.arenas = ArenaPool(graph.n_nodes)

    # ------------------------------------------------------------------
    # Offline pieces
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExpansionBackend:
        return self._searcher.backend

    def activation_for(self, alpha: float) -> np.ndarray:
        """Per-node minimum activation levels for ``alpha``.

        The array is shared by every query at this α and therefore
        read-only. Request threads call this without a lock: each step
        below is one atomic dict operation, and two threads missing the
        same α at once just compute equal arrays.
        """
        return self._activation(alpha)[0]

    def _activation(self, alpha: float) -> "Tuple[np.ndarray, int]":
        """:meth:`activation_for`'s levels and their maximum, both
        computed once per cached α."""
        cache = self._activation_cache
        entry = cache.pop(alpha, None)
        if entry is None:
            model = ActivationModel.from_weights(
                self.weights, self.average_distance, alpha
            )
            model.levels.setflags(write=False)
            entry = (model.levels, model.max_level)
        cache[alpha] = entry  # (re)inserted last: dict order is recency
        for stale in list(cache)[:-ACTIVATION_CACHE_SIZE]:
            cache.pop(stale, None)
        return entry

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        k: Optional[int] = None,
        alpha: Optional[float] = None,
        lam: Optional[float] = None,
        activation_override: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """Answer a free-text keyword query.

        Args:
            query: raw query string; tokenized/stemmed like indexed text.
                Quoted groups (``'"gradient descent" xml'``) become
                phrase keywords whose source set is the nodes containing
                *all* words of the phrase.
            k / alpha / lam: per-query overrides of the engine defaults.
            activation_override: bypass the Penalty-and-Reward mapping
                with explicit per-node activation levels (used to replay
                the paper's Fig. 4 trace and by ablations).

        The query runs in a search arena leased from :attr:`arenas`
        and returned when the call ends, raised or not: a thread
        calling this alone uses one arena, concurrent callers one each.

        Raises:
            EmptyQueryError: when no term matches any node.
            TooManyKeywordsError: more than 64 keyword groups match.
        """
        from ..text.query_parser import parse_query, resolve_keyword_groups

        pairs = resolve_keyword_groups(parse_query(query), self.index)
        k = k if k is not None else self.config.topk
        alpha = alpha if alpha is not None else self.config.alpha
        lam = lam if lam is not None else self.config.lam

        keywords = tuple(term for term, nodes in pairs if len(nodes) > 0)
        dropped = tuple(term for term, nodes in pairs if len(nodes) == 0)
        node_sets = [nodes for _, nodes in pairs if len(nodes) > 0]

        if not node_sets:
            raise EmptyQueryError(dropped)
        if activation_override is not None:
            activation = np.asarray(activation_override, dtype=np.int32)
            max_activation = None
        else:
            activation, max_activation = self._activation(alpha)

        timer = PhaseTimer()
        with timer.phase(PHASE_TOTAL):
            # The query's arrays live in the leased arena until the
            # block ends; nothing returned below refers to them.
            with self.arenas.lease() as arena:
                bottom_up = self._searcher.run(
                    node_sets,
                    activation,
                    k,
                    timer=timer,
                    max_activation=max_activation,
                    arena=arena,
                )
                ranked, stage_two = process_top_down(
                    self.graph,
                    bottom_up.state,
                    self.weights,
                    config=TopDownConfig(
                        k=k,
                        lam=lam,
                        apply_level_cover=self.config.apply_level_cover,
                        deduplicate=self.config.deduplicate,
                        single_path=self.config.single_path,
                        n_threads=self.config.top_down_threads,
                        native=self.config.top_down_native,
                    ),
                    timer=timer,
                    bound_graph=self._bound_graph,
                )
        answers = [SearchAnswer(graph=g, keywords=keywords) for g in ranked]
        return SearchResult(
            answers=answers,
            keywords=keywords,
            dropped_terms=dropped,
            depth=bottom_up.depth,
            n_central_nodes=bottom_up.state.n_central_nodes,
            terminated=bottom_up.terminated,
            timer=timer,
            peak_state_nbytes=bottom_up.peak_state_nbytes,
            stage_two=stage_two,
            level_profile=bottom_up.level_profile,
        )

    def search_terms(
        self,
        terms: Sequence[str],
        k: Optional[int] = None,
        alpha: Optional[float] = None,
        lam: Optional[float] = None,
        activation_override: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """Like :meth:`search` for an already-split list of terms."""
        return self.search(" ".join(terms), k, alpha, lam, activation_override)

    # ------------------------------------------------------------------
    # Storage accounting (Table IV)
    # ------------------------------------------------------------------
    def pre_storage_nbytes(self) -> int:
        """CSR adjacency + node weights, resident before any query."""
        return self.graph.storage_nbytes() + int(self.weights.nbytes)

    def storage_report(self, knum: int = 8) -> StorageReport:
        """Table IV's pre-storage vs. maximum running storage for ``knum``.

        The running figure adds the per-query dynamic state sized for a
        ``knum``-keyword query (M is Θ(|V|·q) at one byte per cell).
        """
        dummy_sets = [np.zeros(1, dtype=np.int64)] * knum
        state = SearchState.initialize(
            self.graph.n_nodes,
            dummy_sets,
            np.zeros(self.graph.n_nodes, dtype=np.int32),
        )
        # Assume the worst case where every node is enqueued once.
        frontier_bytes = self.graph.n_nodes * np.dtype(np.int64).itemsize
        running = self.pre_storage_nbytes() + state.nbytes() + frontier_bytes
        return StorageReport(
            pre_storage=self.pre_storage_nbytes(),
            max_running_storage=running,
        )
