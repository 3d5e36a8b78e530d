"""Core contribution: Central Graph search (weights, activation, two stages)."""

from .activation import ActivationModel, activation_distribution, activation_levels
from .bottom_up import BottomUpResult, BottomUpSearch, describe_levels
from .central_graph import CentralGraph, SearchAnswer
from .engine import EmptyQueryError, EngineConfig, KeywordSearchEngine, SearchResult
from .scoring import DEFAULT_LAMBDA, TopKHeap, central_graph_score
from .state import (
    INFINITE_LEVEL,
    MAX_KEYWORDS,
    MAX_LEVEL,
    SearchState,
    TooManyKeywordsError,
)
from .top_down import (
    TopDownConfig,
    deduplicate_by_containment,
    extract_central_graph,
    level_cover_prune,
    process_top_down,
    rank_central_graphs,
)
from .weights import node_weights, normalize_weights, raw_degree_of_summary

__all__ = [
    "ActivationModel",
    "BottomUpResult",
    "BottomUpSearch",
    "CentralGraph",
    "DEFAULT_LAMBDA",
    "EmptyQueryError",
    "EngineConfig",
    "INFINITE_LEVEL",
    "KeywordSearchEngine",
    "MAX_KEYWORDS",
    "MAX_LEVEL",
    "SearchAnswer",
    "SearchResult",
    "SearchState",
    "TopDownConfig",
    "TooManyKeywordsError",
    "TopKHeap",
    "activation_distribution",
    "activation_levels",
    "central_graph_score",
    "deduplicate_by_containment",
    "describe_levels",
    "extract_central_graph",
    "level_cover_prune",
    "node_weights",
    "normalize_weights",
    "process_top_down",
    "rank_central_graphs",
    "raw_degree_of_summary",
]
