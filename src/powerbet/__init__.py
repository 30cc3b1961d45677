"""Optimal horse-race betting under power-mean utilities.

The utility of an allocation is ``(1/beta) * log2 E[S^beta]`` where ``S``
is the wealth relative after one race; ``beta`` sweeps from worst-case
(``-inf``) through log-optimal (``0``) and expected-return (``1``) to
best-case (``+inf``) preferences.  The package computes the optimal
allocation in every regime (with or without a pre-race signal, with or
without a cash reserve), evaluates the divergence decompositions of the
utility, and ships brute-force and Monte Carlo oracles to verify all of it.
"""

from .divergence import cond_renyi_div, renyi_div
from .errors import (
    BetaOutOfRangeError,
    GridTooLargeError,
    InvalidDistributionError,
    LengthMismatchError,
    NonPositiveOddsError,
    NonPositiveProbabilityError,
    NotApplicableError,
    NotEvaluableError,
    NotNormalizedError,
    PowerbetError,
    UnsupportedOrderError,
)
from .market import (
    Fairness,
    FairnessTag,
    RaceMarket,
    SideInfoMarket,
    bookie_distribution,
    classify_fairness,
    new_race,
    new_side_info,
    track_constant,
)
from .oracle import (
    GridSpec,
    KktReport,
    WealthTrajectory,
    estimate_ubeta,
    grid_search_full,
    grid_search_partial,
    kkt_residual,
    simulate_growth,
)
from .strategy import (
    Allocation,
    ConditionalAllocation,
    PartialAllocation,
    PartialSolution,
    dispatch,
    fold_cash_into_bets,
    kelly,
    optimal_full,
    optimal_partial,
    optimal_side_info,
)
from .utility import (
    DecompositionReport,
    decompose_full,
    decompose_kelly,
    decompose_side_info,
    doubling_rate,
    limit_utilities,
    utility_full,
    utility_partial,
    utility_side_info,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BetaOutOfRangeError",
    "ConditionalAllocation",
    "DecompositionReport",
    "Fairness",
    "FairnessTag",
    "GridSpec",
    "GridTooLargeError",
    "InvalidDistributionError",
    "KktReport",
    "LengthMismatchError",
    "NonPositiveOddsError",
    "NonPositiveProbabilityError",
    "NotApplicableError",
    "NotEvaluableError",
    "NotNormalizedError",
    "PartialAllocation",
    "PartialSolution",
    "PowerbetError",
    "RaceMarket",
    "SideInfoMarket",
    "UnsupportedOrderError",
    "WealthTrajectory",
    "bookie_distribution",
    "classify_fairness",
    "cond_renyi_div",
    "decompose_full",
    "decompose_kelly",
    "decompose_side_info",
    "dispatch",
    "doubling_rate",
    "estimate_ubeta",
    "fold_cash_into_bets",
    "grid_search_full",
    "grid_search_partial",
    "kelly",
    "kkt_residual",
    "limit_utilities",
    "new_race",
    "new_side_info",
    "optimal_full",
    "optimal_partial",
    "optimal_side_info",
    "renyi_div",
    "simulate_growth",
    "track_constant",
    "utility_full",
    "utility_partial",
    "utility_side_info",
]
