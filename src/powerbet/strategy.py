"""Optimal bet allocations for every risk regime.

The utility being maximized is ``(1/beta) * log2 E[S^beta]`` where ``S`` is
the wealth relative after one race.  The risk parameter is a plain float:
``+inf`` / ``-inf`` stand for the best-case / worst-case limits, and any
finite value is used literally.

For finite ``beta < 1`` an interior closed form exists; its ``beta = 0``
member is Kelly's log-optimal betting, which every interior optimizer takes
as an ordinary input (:func:`kelly` returns its full-investment answer,
``b = p``, exactly).  With side information it applies to each signal's winner
distribution, so one body serves both, a race being the one-row case.
:func:`dispatch` covers every ``beta``: for ``beta >= 1`` and the infinite limits it
computes the single-horse bet, the longest odds and risk-free odds replication itself.
All argmax ties break to the smallest horse index so outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _log, _log2_power_mean, _logsumexp
from .errors import BetaOutOfRangeError, InvalidDistributionError, NotApplicableError
from .errors import LengthMismatchError
from .market import (
    RaceMarket,
    SideInfoMarket,
    bookie_distribution,
    track_constant,
    _freeze,
    _normalized,
)

# Finite risk parameters beyond this bound overflow the closed-form
# exponents; callers must use the limit operations instead.
BETA_ABS_MAX = 1e6


@dataclass(frozen=True)
class Allocation:
    """Full-investment bet fractions: a probability vector over horses."""

    bets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bets", _normalized(self.bets, "bets")[0])


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


@dataclass(frozen=True)
class ConditionalAllocation:
    """Per-signal bet fractions: each row is a probability vector over horses."""

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _normalized(self.table, "table", ndim=2, rows=True)[0])


def _trusted(cls, **fields):
    """A ``cls`` of fractions the library computed from a validated market: their
    arrays are made read-only in place, and nothing is checked or renormalized.
    An optimizer adds ``_logs``, its fractions' natural logs, the cash first, and an interior
    one ``_of = (market, beta, logs)``: its market and beta, and :func:`_log_weights` there."""
    out = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(out, name, value)
    return out


_Bet = Allocation | PartialAllocation | ConditionalAllocation


def _require(kind: type, value, what: str) -> None:
    """The one kind check of markets and allocations: ``what`` needs a ``kind``."""
    if not isinstance(value, kind):
        raise NotApplicableError(f"{what} needs a {kind.__name__}, got {type(value).__name__}")


def _outcomes(market: RaceMarket | SideInfoMarket, b: _Bet) -> tuple:
    """``(probs, bets, odds, cash)``, once ``b`` has the market's kind (a conditional bet
    for side information, else not) and shape: the PMF of its outcomes, the horses or a
    conditional allocation's live (signal, horse) cells, each paying ``cash + bets * odds``,
    ``cash`` None when fully invested, as ``_power_mean_read`` forms it."""
    table = isinstance(b, ConditionalAllocation)
    if table:
        _require(SideInfoMarket, market, "a ConditionalAllocation")
    elif isinstance(market, SideInfoMarket):
        _require(ConditionalAllocation, b, "a SideInfoMarket")
    bets = b.table if table else b.bets
    shape = market.joint.shape if table else market.odds.shape
    if bets.shape != shape:
        raise LengthMismatchError(f"allocation has shape {bets.shape} but the market has {shape}")
    if table:
        live = np.nonzero(market.joint)
        return market.joint[live], bets[live], market.odds[live[1]], None
    return market.probs, bets, market.odds, b.cash if isinstance(b, PartialAllocation) else None


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


def _check_beta(beta: float) -> float:
    """``beta`` as a float: one of the limits ``+-inf``, or finite with
    ``|beta| <= BETA_ABS_MAX``."""
    beta = float(beta)
    if not (abs(beta) <= BETA_ABS_MAX or math.isinf(beta)):  # NaN fails both
        raise BetaOutOfRangeError(
            f"beta must be +-inf or have |beta| <= {BETA_ABS_MAX:g}, got {beta!r}"
        )
    return beta


def _check_interior_beta(beta: float) -> float:
    """Validate beta for the interior closed form: finite and < 1."""
    beta = _check_beta(beta)
    if math.isinf(beta) or beta >= 1.0:
        raise BetaOutOfRangeError(f"the interior optimum needs a finite beta < 1, got {beta!r}")
    return beta


def _log_weights(log_p: np.ndarray, log_o: np.ndarray, beta: float, log_p_y=None):
    """Natural logs of the interior optimum's fractions over the last axis, for a validated
    ``beta``, from ``ln o`` and a race's ``ln p``, or rows ``ln p(x|y)`` (``-inf`` for
    impossible winners) with ``log_p_y = ln p(y)``, which adds the signal weights' logs."""
    raw = log_p + beta * log_o
    # each row's top score is 0 before the division, so tied top weights stay equal
    peak = raw.max(axis=-1, keepdims=True)  # finite: every row has a positive entry
    scores = (raw - peak) / (1.0 - beta)
    if log_p_y is None:  # one row, through the whole-array log-sum-exp
        return scores - _logsumexp(scores)
    inner = _logsumexp(scores, axis=-1)
    signal_scores = log_p_y + (1.0 - beta) * inner + peak[:, 0]
    return scores - inner[:, None], signal_scores - _logsumexp(signal_scores)


def optimal_full(market: RaceMarket, beta: float) -> Allocation:
    """Unique full-investment optimum for finite ``beta < 1``.

    The optimal fraction on horse ``i`` is proportional to
    ``p_i^(1/(1-beta)) * o_i^(beta/(1-beta))``, normalized in the log domain
    so parameters close to 1 do not overflow; there the smallest fractions
    may underflow to 0.
    """
    _require(RaceMarket, market, "optimal_full")
    beta = _check_interior_beta(beta)
    logs = _log_weights(market._log_p, market._log_o, beta)
    weights = np.exp(logs)
    return _trusted(Allocation, bets=weights / weights.sum(), _logs=logs, _of=(market, beta, logs))


def kelly(market: RaceMarket) -> Allocation:
    """Proportional betting ``b = p``: the log-utility (doubling-rate) optimum."""
    _require(RaceMarket, market, "kelly")
    return _trusted(Allocation, bets=market.probs)


def optimal_side_info(
    market: SideInfoMarket, beta: float
) -> tuple[ConditionalAllocation, np.ndarray]:
    """Optimal conditional allocation given a pre-race signal, for finite ``beta < 1``.

    Returns the per-signal optimal rows together with the auxiliary signal
    weights ``g(y)`` proportional to
    ``p(y) * [sum_x p(x|y)^(1/(1-beta)) o(x)^(beta/(1-beta))]^(1-beta)``.
    Horses that cannot win under a signal get a zero fraction in that row.
    """
    _require(SideInfoMarket, market, "optimal_side_info")
    beta = _check_interior_beta(beta)
    log_table, log_g_y = logs = _log_weights(market._log_cond, market._log_o, beta, market._log_p_y)
    table = np.exp(log_table)
    table /= table.sum(axis=1, keepdims=True)
    bets = _trusted(ConditionalAllocation, table=table, _logs=log_table, _of=(market, beta, logs))
    return bets, np.exp(log_g_y)


def optimal_partial(market: RaceMarket, beta: float) -> PartialSolution:
    """Optimal allocation when withholding cash is allowed, for finite ``beta < 1``.

    With a fair or superfair track (c >= 1, as the scan below sums ``1/o``)
    cash never helps, so the full-investment optimum is returned with zero
    cash.  With subfair odds the optimum keeps some cash, and Kelly's threshold
    rule gives its support, whatever ``beta``: rank the horses by decreasing ``p_i * o_i``
    (ties to the smaller index) and add them in turn while ``p_k * o_k``
    exceeds the threshold ``cap = (1 - sum_J p_i) / (1 - sum_J 1/o_i)`` of
    the support ``J`` so far.  Stationarity puts a backed horse's payoff at
    ``cash e^(z_i)``, ``z_i = ln(p_i o_i / cap) / (1 - beta)``, so its bet is
    ``gamma_i cash`` with ``gamma_i = (e^(z_i) - 1) / o_i``.  Evaluated as logs
    and normalized once, this is the correctly rounded optimum for every
    valid ``beta``; close to 1 the cash and the smallest bets may round to
    0.0, and ``gammas`` to ``+inf``.
    """
    _require(RaceMarket, market, "optimal_partial")
    beta = _check_interior_beta(beta)
    neg = -(market.probs * market.odds)
    order = np.argsort(neg)  # any sort ranks distinct scores alike
    if ((ranked := neg[order])[1:] == ranked[:-1]).any():  # ties go to the smaller index
        order = np.argsort(neg, kind="stable")
    p, o, scores = market.probs[order], market.odds[order], -ranked  # in score order from here
    slack = 1.0 - np.concatenate(([0.0], np.cumsum(1.0 / o)))
    cap = gammas = None
    if slack[-1] >= 0.0:  # c >= 1 in the scan's own arithmetic: at best a tie with cash
        log_cash, log_bets = -math.inf, _log_weights(market._log_p, market._log_o, beta)
    else:
        # Before horse order[k] is tried the support is order[:k].  Its unbacked
        # mass outside[k] is a suffix sum, so it never cancels to 0, and the horse
        # joins only if the slack stays > 0 once it has: cap is finite and > 0.
        outside = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
        extend = (scores * slack[:-1] > outside[:-1]) & (slack[1:] > 0.0)
        k = int(np.logical_and.accumulate(extend).sum())
        cap = float(outside[k] / slack[k])
        # a last horse tied with the threshold may round to just below it: no bet
        z = np.maximum((np.log(scores[:k]) - math.log(cap)) / (1.0 - beta), 0.0)
        log_gammas = np.full(market.m, -math.inf)
        log_gammas[order[:k]] = z - np.log(o[:k]) + _log(-np.expm1(-z))
        with np.errstate(over="ignore"):
            gammas = _freeze(np.exp(log_gammas))
        peak = max(0.0, float(log_gammas.max()))  # the cash's log-weight is 0
        log_cash, log_bets = -peak, log_gammas - peak
    weights, cash = np.exp(log_bets), math.exp(log_cash)  # normalized once, in the division
    total = cash + float(weights.sum())
    logs = np.concatenate(([log_cash], log_bets))
    logs -= _logsumexp(logs)  # the fractions' own logs, normalized once
    alloc = _trusted(PartialAllocation, cash=cash / total, bets=weights / total, _logs=logs)
    support = tuple(np.flatnonzero(alloc.bets > 0.0).tolist())
    utility = _log2_power_mean(*_outcomes(market, alloc), beta)
    return PartialSolution(alloc, support, gamma_cap=cap, gammas=gammas, utility=utility)


def fold_cash_into_bets(market: RaceMarket, partial: PartialAllocation) -> Allocation:
    """Convert withheld cash into bets without lowering any payoff (needs c >= 1).

    Spreads the cash across horses in bookie proportions: ``b'_i = r_i * cash + b_i``.
    Since one unit spread as ``r`` pays the track constant no matter who wins, each payoff
    changes from ``cash + b_i o_i`` to ``c * cash + b_i o_i``, which is no decrease when
    ``c >= 1``, so the utility never drops for any risk parameter.  Any other allocation
    kind holds no cash to fold: :class:`NotApplicableError`.
    """
    _require(PartialAllocation, partial, "fold_cash_into_bets")
    if track_constant(market) < 1.0:  # the fairness band below 1 too: there c * cash < cash
        raise NotApplicableError("folding cash into bets requires a track constant >= 1")
    _, bets, _, cash = _outcomes(market, partial)
    return Allocation(bookie_distribution(market) * cash + bets)


def dispatch(market: RaceMarket, beta: float) -> Allocation:
    """The full-investment optimum for any ``beta``, in its regime's closed form.

    ``beta = 0.0`` gives proportional betting (:func:`kelly`) and any other finite
    ``beta < 1`` the interior optimum (:func:`optimal_full`).  For ``beta >= 1``
    everything goes on the horse maximizing ``p_i^(1/beta) o_i``; at ``+inf`` on the
    longest odds; at ``-inf`` the bets are ``b_i = c / o_i``, which replicate the
    track constant risk-free, so the wealth relative is ``c`` whoever wins.  Argmax
    ties go to the smallest index; other maximizers may exist.  With cash allowed
    the optimum is ``optimal_partial(market, beta).allocation``, for finite ``beta < 1``.
    """
    _require(RaceMarket, market, "dispatch")
    beta = float(beta)
    if beta == 0.0:
        return kelly(market)
    if -math.inf < beta < 1.0:
        return optimal_full(market, beta)
    _check_beta(beta)  # NaN and beta > BETA_ABS_MAX raise
    if beta == -math.inf:
        r = bookie_distribution(market)
        return _trusted(Allocation, bets=r / r.sum())
    # the odds themselves at +inf: distinct odds near 1e300 can share a log
    scores = market.odds if beta == math.inf else market._log_p / beta + market._log_o
    bets = np.zeros(market.m)
    bets[int(np.argmax(scores))] = 1.0
    return _trusted(Allocation, bets=bets)
