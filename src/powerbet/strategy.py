"""Optimal bet allocations for every risk regime.

The utility being maximized is ``(1/beta) * log2 E[S^beta]`` where ``S`` is
the wealth relative after one race.  The risk parameter is a plain float:
``+inf`` / ``-inf`` stand for the best-case / worst-case limits, and any
finite value is used literally.

For finite ``beta < 1`` an interior closed form exists; its ``beta = 0``
member is Kelly's log-optimal betting, which every interior optimizer takes
as an ordinary input (:func:`kelly` returns its full-investment answer,
``b = p``, exactly).  For ``beta >= 1`` the optimum is a single-horse bet;
the infinite limits are a single-horse bet on the longest odds and risk-free
odds replication respectively.  All argmax ties break to the smallest horse
index so outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _log, _logsumexp
from .errors import BetaOutOfRangeError, InvalidDistributionError, NotApplicableError
from .market import (
    RaceMarket,
    SideInfoMarket,
    bookie_distribution,
    is_subfair,
    _freeze,
    _normalized,
    _require_same_length,
)

# Finite risk parameters beyond these bounds overflow the closed-form
# exponents; callers must use the limit operations instead.
BETA_ABS_MAX = 1e6
BETA_FULL_SUP = 1.0 - 1e-9


@dataclass(frozen=True)
class Allocation:
    """Full-investment bet fractions: a probability vector over horses."""

    bets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bets", _normalized(self.bets, "bets")[0])

    @property
    def m(self) -> int:
        return self.bets.size


@dataclass(frozen=True)
class PartialAllocation:
    """Bet fractions plus a withheld cash fraction; together they sum to one."""

    cash: float
    bets: np.ndarray

    def __post_init__(self) -> None:
        cash = float(self.cash)
        if not math.isfinite(cash) or cash < 0.0:
            raise InvalidDistributionError("cash fraction must be finite and >= 0")
        bets, total = _normalized(self.bets, "bets", cash=cash)
        object.__setattr__(self, "cash", float(cash / total))
        object.__setattr__(self, "bets", bets)

    @property
    def m(self) -> int:
        return self.bets.size


@dataclass(frozen=True)
class ConditionalAllocation:
    """Per-signal bet fractions: each row is a probability vector over horses."""

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _normalized(self.table, "table", ndim=2, rows=True)[0])

    @property
    def n_signals(self) -> int:
        return self.table.shape[0]

    @property
    def m(self) -> int:
        return self.table.shape[1]


def _trusted(cls, **fields):
    """A ``cls`` of fractions the library computed from a validated market: their
    arrays are made read-only in place, and nothing is checked or renormalized."""
    out = object.__new__(cls)
    for name, value in fields.items():
        value.flags.writeable = False
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True)
class PartialSolution:
    """Optimal partial-investment result.

    ``support`` lists the horses receiving positive bets.  In the subfair
    regime ``gamma_cap`` is the payoff threshold (bets are positive exactly
    where ``p_i * o_i`` exceeds it) and ``gammas`` are the per-horse
    coefficients with ``bets_i = gammas_i * cash``; where the cash rounds to
    0.0, close to ``beta = 1``, they may be ``+inf``, never NaN.  When the
    track constant is >= 1 the optimum invests everything, those two
    closed-form quantities do not exist, and both fields are None.
    """

    allocation: PartialAllocation
    support: tuple[int, ...]
    gamma_cap: float | None
    gammas: np.ndarray | None
    utility: float


def _check_finite_beta(beta: float) -> float:
    beta = float(beta)
    if math.isnan(beta):
        raise BetaOutOfRangeError("risk parameter must not be NaN")
    if abs(beta) > BETA_ABS_MAX:
        raise BetaOutOfRangeError(
            f"|beta| is capped at {BETA_ABS_MAX:g}; use the limit operations beyond that"
        )
    return beta


def _check_interior_beta(beta: float) -> float:
    """Validate beta for the interior closed form: finite and < 1."""
    beta = _check_finite_beta(beta)
    if beta > BETA_FULL_SUP:
        raise BetaOutOfRangeError(f"the interior optimum needs a finite beta < 1, got {beta!r}")
    return beta


def _log_weights_full(log_p: np.ndarray, log_o: np.ndarray, beta: float) -> np.ndarray:
    """Natural logs of the interior optimum's fractions, from ``ln p`` and ``ln o``,
    for a validated ``beta``."""
    raw = log_p + beta * log_o
    # the top score is 0 before the division, so tied top weights stay equal
    scores = (raw - raw.max()) / (1.0 - beta)
    return scores - _logsumexp(scores)


def optimal_full(market: RaceMarket, beta: float) -> Allocation:
    """Unique full-investment optimum for finite ``beta < 1``.

    The optimal fraction on horse ``i`` is proportional to
    ``p_i^(1/(1-beta)) * o_i^(beta/(1-beta))``, normalized in the log domain
    so parameters close to 1 do not overflow; there the smallest fractions
    may underflow to 0.
    """
    beta = _check_interior_beta(beta)
    weights = np.exp(_log_weights_full(np.log(market.probs), np.log(market.odds), beta))
    return _trusted(Allocation, bets=weights / weights.sum())


def kelly(market: RaceMarket) -> Allocation:
    """Proportional betting ``b = p``: the log-utility (doubling-rate) optimum."""
    return _trusted(Allocation, bets=market.probs)


def optimal_degenerate(market: RaceMarket, beta: float) -> Allocation:
    """All-in bet for ``beta >= 1``: everything on the horse maximizing ``p_i^(1/beta) o_i``.

    Ties go to the smallest index.  Other maximizers may exist; uniqueness
    is not claimed.
    """
    beta = _check_finite_beta(beta)
    if beta < 1.0:
        raise BetaOutOfRangeError(f"the single-horse optimum needs beta >= 1, got {beta!r}")
    scores = np.log(market.probs) / beta + np.log(market.odds)
    winner = int(np.argmax(scores))
    bets = np.zeros(market.m)
    bets[winner] = 1.0
    return _trusted(Allocation, bets=bets)


def optimal_limit(market: RaceMarket, which: float) -> Allocation:
    """Optimal allocation in the extreme risk limits.

    ``which = +inf`` maximizes the best-case payoff: all mass on the
    longest odds (ties to the smallest index).  ``which = -inf`` maximizes
    the worst-case payoff: ``b_i = c / o_i``, which replicates the track
    constant risk-free so the wealth relative equals ``c`` no matter who
    wins.
    """
    which = float(which)
    if which == math.inf:
        bets = np.zeros(market.m)
        bets[int(np.argmax(market.odds))] = 1.0
        return _trusted(Allocation, bets=bets)
    if which == -math.inf:
        r = bookie_distribution(market)
        return _trusted(Allocation, bets=r / r.sum())
    raise BetaOutOfRangeError(f"limit selector must be +inf or -inf, got {which!r}")


def optimal_side_info(
    market: SideInfoMarket, beta: float
) -> tuple[ConditionalAllocation, np.ndarray]:
    """Optimal conditional allocation given a pre-race signal, for finite ``beta < 1``.

    Returns the per-signal optimal rows together with the auxiliary signal
    weights ``g(y)`` proportional to
    ``p(y) * [sum_x p(x|y)^(1/(1-beta)) o(x)^(beta/(1-beta))]^(1-beta)``.
    Horses that cannot win under a signal get a zero fraction in that row.
    """
    beta = _check_interior_beta(beta)
    log_cond, log_p_y = _side_info_logs(market)
    log_table, log_g_y = _log_weights_side_info(log_cond, log_p_y, np.log(market.odds), beta)
    table = np.exp(log_table)
    table /= table.sum(axis=1, keepdims=True)
    return _trusted(ConditionalAllocation, table=table), np.exp(log_g_y)


def _side_info_logs(market: SideInfoMarket) -> tuple[np.ndarray, np.ndarray]:
    """``ln p(x|y)``, ``-inf`` for impossible winners, and ``ln p(y)``."""
    p_y = market.signal_probs
    return _log(market.joint / p_y[:, None]), np.log(p_y)


def _log_weights_side_info(
    log_cond: np.ndarray, log_p_y: np.ndarray, log_o: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Natural logs of the optimal rows (``-inf`` for impossible winners) and signal
    weights, from those of :func:`_side_info_logs` and ``ln o``."""
    raw = log_cond + beta * log_o
    peak = raw.max(axis=1)  # finite: every signal row has a positive entry
    scores = (raw - peak[:, None]) / (1.0 - beta)
    inner = _logsumexp(scores, axis=1)
    signal_scores = log_p_y + (1.0 - beta) * inner + peak
    return scores - inner[:, None], signal_scores - _logsumexp(signal_scores)


def optimal_partial(market: RaceMarket, beta: float) -> PartialSolution:
    """Optimal allocation when withholding cash is allowed, for finite ``beta < 1``.

    With a fair or superfair track (c >= 1) holding cash never helps, so the
    full-investment optimum is returned with zero cash.  With subfair odds
    the optimum keeps some cash, and Kelly's threshold rule gives its
    support, whatever ``beta``: rank the horses by decreasing ``p_i * o_i``
    (ties to the smaller index) and add them in turn while ``p_k * o_k``
    exceeds the threshold ``cap = (1 - sum_J p_i) / (1 - sum_J 1/o_i)`` of
    the support ``J`` so far.  Stationarity puts a backed horse's payoff at
    ``cash e^(z_i)``, ``z_i = ln(p_i o_i / cap) / (1 - beta)``, so its bet is
    ``gamma_i cash`` with ``gamma_i = (e^(z_i) - 1) / o_i``.  Evaluated as logs
    and normalized once, this is the correctly rounded optimum for every
    valid ``beta``; close to 1 the cash and the smallest bets may round to
    0.0, and ``gammas`` to ``+inf``.
    """
    from .utility import utility_partial

    beta = _check_interior_beta(beta)
    if not is_subfair(market):
        full = optimal_full(market, beta)
        alloc = PartialAllocation(0.0, full.bets)
        return PartialSolution(
            allocation=alloc,
            support=tuple(range(market.m)),
            gamma_cap=None,
            gammas=None,
            utility=utility_partial(market, alloc, beta),
        )

    p, o = market.probs, market.odds
    scores = p * o
    order = np.argsort(-scores, kind="stable")
    # Before horse order[k] is tried the support is order[:k].  Its unbacked
    # mass outside[k] is a suffix sum, so it never cancels to 0, and the horse
    # joins only if the slack stays > 0 once it has: cap is finite and > 0.
    outside = np.append(np.cumsum(p[order][::-1])[::-1], 0.0)
    slack = 1.0 - np.concatenate(([0.0], np.cumsum(1.0 / o[order])))
    extend = (scores[order] * slack[:-1] > outside[:-1]) & (slack[1:] > 0.0)
    k = int(np.logical_and.accumulate(extend).sum())
    cap = float(outside[k] / slack[k])
    backed = order[:k]
    # a last horse tied with the threshold may round to just below it: no bet
    z = np.maximum((np.log(scores[backed]) - math.log(cap)) / (1.0 - beta), 0.0)
    log_gammas = np.full(market.m, -math.inf)
    log_gammas[backed] = z - np.log(o[backed]) + _log(-np.expm1(-z))
    peak = max(0.0, float(log_gammas.max()))  # the cash's log-weight is 0
    weights = np.exp(log_gammas - peak)
    cash = math.exp(-peak)
    total = cash + weights.sum()
    alloc = PartialAllocation(cash / total, weights / total)
    with np.errstate(over="ignore"):
        gammas = np.exp(log_gammas)
    return PartialSolution(
        allocation=alloc,
        support=tuple(np.flatnonzero(alloc.bets > 0.0).tolist()),
        gamma_cap=cap,
        gammas=_freeze(gammas),
        utility=utility_partial(market, alloc, beta),
    )


def fold_cash_into_bets(market: RaceMarket, partial: PartialAllocation) -> Allocation:
    """Convert withheld cash into bets without lowering any payoff (needs c >= 1).

    Spreads the cash across horses in bookie proportions:
    ``b'_i = r_i * cash + b_i``.  Since one unit spread as ``r`` pays the
    track constant no matter who wins, each payoff changes from
    ``cash + b_i o_i`` to ``c * cash + b_i o_i``, which is no decrease when
    ``c >= 1``, so the utility never drops for any risk parameter.
    """
    if is_subfair(market):
        raise NotApplicableError("folding cash into bets requires a track constant >= 1")
    _require_same_length(market, partial.bets)
    return Allocation(bookie_distribution(market) * partial.cash + partial.bets)


def dispatch(market: RaceMarket, beta: float) -> Allocation:
    """Route to the full-investment optimizer matching the risk parameter.

    ``beta = 0.0`` picks proportional betting, ``+/-inf`` the limit
    strategies, ``beta >= 1`` the single-horse bet, and any other finite
    value the interior optimum.  With cash allowed the optimum is
    ``optimal_partial(market, beta).allocation``, for finite ``beta < 1``.
    """
    beta = float(beta)
    if beta == 0.0:
        return kelly(market)
    if math.isinf(beta):
        return optimal_limit(market, beta)
    if beta >= 1.0:
        return optimal_degenerate(market, beta)
    return optimal_full(market, beta)
