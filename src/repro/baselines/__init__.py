"""Competitors: BANKS-I/II and exact DPBF."""

from .banks import BanksConfig, BanksI, BanksII
from .common import AnswerTree, BaselineResult, rank_candidates
from .dpbf import SteinerTree, dpbf_optimal_cost, dpbf_search

__all__ = [
    "AnswerTree",
    "BanksConfig",
    "BanksI",
    "BanksII",
    "BaselineResult",
    "SteinerTree",
    "dpbf_optimal_cost",
    "dpbf_search",
    "rank_candidates",
]
