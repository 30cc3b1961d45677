"""Power-mean utilities, the doubling rate, and their divergence decompositions.

The central quantity is ``U_beta = (1/beta) * log2 E[S^beta]``: the base-2
logarithm of a weighted power mean of the payoffs.  Its ``beta = 0`` member
is Kelly's doubling rate ``E[log2 S]``, an ordinary input of every utility
and report here.  For finite ``beta < 1`` it splits exactly into three terms,

    log2(c) + D_{1/(1-beta)}(p || r) - D_{1-beta}(g || b),

where ``c`` is the track constant, ``r`` the bookie-implied distribution,
and ``g`` the optimal allocation; at ``beta = 0`` both divergences are KL.
The reports compute both sides of that identity, as different inputs to the
one tilted-mean kernel of :mod:`powerbet.divergence` (checked against a
50-digit reference in the tests), and expose the residual.

Every utility takes the limits ``beta = +-inf`` as ordinary inputs: they are
the best- and worst-case log2 payoffs over the outcomes of positive
probability, and :func:`limit_utilities` is the pair of them.  Each utility
reads its outcomes and payoffs from the one outcome map of
:mod:`powerbet.strategy` and reduces them with the one power mean of
:mod:`powerbet.divergence`.

Extended-real conventions: a zero bet on a possible winner makes the
utility ``-inf`` for ``beta <= 0`` and simply drops the term for positive
``beta``.  Values are never NaN; ``-inf`` compares below every finite value
so optimizers handle degenerate allocations gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _cond_renyi_from_logs, _log, _log2_power_mean, _renyi_from_logs
from .market import (
    RaceMarket,
    SideInfoMarket,
    _require_same_length,
    track_constant,
)
from .strategy import (
    Allocation,
    ConditionalAllocation,
    _Bet,
    _check_beta,
    _check_interior_beta,
    _log_weights_full,
    _log_weights_side_info,
    _outcomes,
    _side_info_logs,
)


@dataclass(frozen=True)
class DecompositionReport:
    """Three-term split of a utility plus its directly computed value.

    ``total = log_c + bookie_term - gambler_term`` and ``direct`` is the
    same utility evaluated straight from the payoff sum; ``residual`` is
    their absolute difference (zero when both are the same infinity).
    """

    log_c: float
    bookie_term: float
    gambler_term: float
    total: float
    direct: float
    residual: float


def utility_full(market: RaceMarket | SideInfoMarket, b: _Bet, beta: float) -> float:
    """``U_beta`` of any allocation, in bits, over its payoffs: ``b_i o_i`` when fully
    invested, ``cash + b_i o_i`` with a cash fraction withheld, and ``b(x|y) o(x)`` over
    the joint's live cells with side information.  :func:`utility_partial` and
    :func:`utility_side_info` are this function."""
    beta = _check_beta(beta)
    return _log2_power_mean(*_outcomes(market, b), beta)


utility_partial = utility_side_info = utility_full


def doubling_rate(market: RaceMarket, b: Allocation) -> float:
    """Expected log2 wealth growth per race, ``sum p_i log2(b_i o_i)``: ``U_0``."""
    return utility_full(market, b, 0.0)


def limit_utilities(market: RaceMarket, b: Allocation) -> tuple[float, float]:
    """Best-case and worst-case log2 payoffs, ``(log2 max b_i o_i, log2 min b_i o_i)``:
    :func:`utility_full` at ``beta = +inf`` and ``-inf``.  The minimum runs over
    all horses, so any zero bet makes the worst case ``-inf``."""
    outcomes = _outcomes(market, b)
    return _log2_power_mean(*outcomes, math.inf), _log2_power_mean(*outcomes, -math.inf)


def _report(c: float, bookie: float, gambler: float, direct: float) -> DecompositionReport:
    log_c = math.log2(c)
    total = log_c + bookie - gambler
    residual = 0.0 if total == direct else abs(total - direct)  # matching infinities: 0, not NaN
    return DecompositionReport(log_c, bookie, gambler, total, direct, residual)


def decompose_full(market: RaceMarket, b: Allocation, beta: float) -> DecompositionReport:
    """Three-term report for a full-investment allocation, finite ``beta < 1``.

    The gambler term is evaluated from the optimizer's log-weights, so
    optimal fractions that underflow to 0 near ``beta = 1`` still count.
    """
    beta = _check_interior_beta(beta)
    _require_same_length(market, b.bets)
    log_p, log_o = np.log(market.probs), np.log(market.odds)
    c = track_constant(market)
    bookie = _renyi_from_logs(log_p, math.log(c) - log_o, 1.0 / (1.0 - beta))  # r = c / o
    log_g = _log_weights_full(log_p, log_o, beta)
    gambler = _renyi_from_logs(log_g, _log(b.bets), 1.0 - beta, t=-beta)  # the exact tilt
    return _report(c, bookie, gambler, utility_full(market, b, beta))


def decompose_kelly(market: RaceMarket, b: Allocation) -> DecompositionReport:
    """KL report for the doubling rate, ``log c + D(p||r) - D(p||b)``: the
    ``beta = 0`` report of :func:`decompose_full`."""
    return decompose_full(market, b, 0.0)


def decompose_side_info(
    market: SideInfoMarket, b: ConditionalAllocation, beta: float
) -> DecompositionReport:
    """Three-term report with side information, finite ``beta < 1``.

    The bookie term is the conditional divergence of the winner-given-signal
    table from the bookie distribution; the gambler term compares the joint
    distributions ``g(x|y) g(y)`` and ``b(x|y) g(y)`` built from the optimal
    signal weights, evaluated from the optimizer's log-weights.
    """
    beta = _check_interior_beta(beta)
    _require_same_length(market, b.table)
    log_cond, log_p_y = _side_info_logs(market)
    log_o = np.log(market.odds)
    c = track_constant(market)
    log_g_cond, log_g_y = _log_weights_side_info(log_cond, log_p_y, log_o, beta)
    bookie = _cond_renyi_from_logs(log_cond, math.log(c) - log_o, log_p_y, 1.0 / (1.0 - beta))
    log_g_joint = log_g_cond + log_g_y[:, None]
    log_b_joint = _log(b.table) + log_g_y[:, None]
    gambler = _renyi_from_logs(log_g_joint, log_b_joint, 1.0 - beta, t=-beta)
    return _report(c, bookie, gambler, utility_full(market, b, beta))
