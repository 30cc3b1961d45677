"""Power-mean utilities, the doubling rate, and their divergence decompositions.

The central quantity is ``U_beta = (1/beta) * log2 E[S^beta]``: the base-2
logarithm of a weighted power mean of the payoffs.  Its ``beta = 0`` member
is Kelly's doubling rate ``E[log2 S]``, an ordinary input of every utility
and report here.  For finite ``beta < 1`` it splits exactly into three terms,

    log2(c) + D_{1/(1-beta)}(p || r) - D_{1-beta}(g || b),

where ``c`` is the track constant, ``r`` the bookie-implied distribution,
and ``g`` the optimal allocation; at ``beta = 0`` both divergences are KL.
With side information ``p`` is the table ``p(x|y)``, the bookie term is conditional
and the gambler term compares the joints ``g(x|y) g(y)`` and ``b(x|y) g(y)``.  A race
is the one-row case, and one report, :func:`decompose_full`, computes both sides of
that identity, as different inputs to the one tilted-mean kernel of
:mod:`powerbet.divergence` (checked against a 50-digit reference in the tests), and
exposes the residual.

Every utility takes the limits ``beta = +-inf`` as ordinary inputs: they are
the best- and worst-case log2 payoffs over the outcomes of positive
probability, and :func:`limit_utilities` is the pair of them.  Each utility
reads its outcomes, and the bets, odds and cash that pay them, from the one
outcome map of :mod:`powerbet.strategy`, and the one payoff map and power mean
of :mod:`powerbet.divergence` log and reduce the payoffs.

Extended-real conventions: a zero bet on a possible winner makes the
utility ``-inf`` for ``beta <= 0`` and simply drops the term for positive
``beta``.  Values are never NaN; ``-inf`` compares below every finite value
so optimizers handle degenerate allocations gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergence import _cond_renyi_from_logs, _log, _log2_power_mean, _power_mean_read
from .divergence import _renyi_from_logs
from .errors import NotApplicableError
from .market import RaceMarket, SideInfoMarket
from .strategy import (
    Allocation,
    ConditionalAllocation,
    PartialAllocation,
    _Bet,
    _check_beta,
    _check_interior_beta,
    _log_weights,
    _outcomes,
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
    :func:`utility_full` at ``beta = +inf`` and ``-inf``, of the same log2 payoffs.  The
    minimum runs over all horses, so any zero bet makes the worst case ``-inf``."""
    read = _power_mean_read(*_outcomes(market, b), math.inf)
    return float(read.max()), float(read.min())


def decompose_full(
    market: RaceMarket | SideInfoMarket, b: Allocation | ConditionalAllocation, beta: float
) -> DecompositionReport:
    """Three-term report of a full-investment allocation, finite ``beta < 1``, in either
    market kind: :func:`decompose_side_info` is this function, a race the one-row case.

    The gambler term is evaluated from the optimum's log-weights, so optimal fractions
    that underflow to 0 near ``beta = 1`` still count: when ``b`` is this market's
    optimum at this ``beta``, those its optimizer recorded on it, else solved afresh.  A
    :class:`PartialAllocation` raises :class:`NotApplicableError`: its cash is no term here.
    """
    if isinstance(b, PartialAllocation):
        raise NotApplicableError("the three-term split is of full-investment allocations")
    beta = _check_interior_beta(beta)
    direct = utility_full(market, b, beta)
    log_o, c = market._log_o, market._c
    log_r, alpha = math.log(c) - log_o, 1.0 / (1.0 - beta)  # r = c / o
    side = isinstance(market, SideInfoMarket)
    log_p, log_p_y = (market._log_cond, market._log_p_y) if side else (market._log_p, None)
    of, at, logs = getattr(b, "_of", (None, None, None))  # what b is the optimum of, if any
    if of is not market or at != beta:
        logs = _log_weights(log_p, log_o, beta, log_p_y)
    if side:
        bookie, log_g_y = _cond_renyi_from_logs(log_p, log_r, log_p_y, alpha), logs[1][:, None]
        log_g, log_b = logs[0] + log_g_y, _log(b.table) + log_g_y
    else:
        bookie, log_g, log_b = _renyi_from_logs(log_p, log_r, alpha), logs, _log(b.bets)
    gambler = _renyi_from_logs(log_g, log_b, 1.0 - beta, t=-beta)  # the exact tilt
    log_c = math.log2(c)
    total = log_c + bookie - gambler
    residual = 0.0 if total == direct else abs(total - direct)  # matching infinities: 0, not NaN
    return DecompositionReport(log_c, bookie, gambler, total, direct, residual)


decompose_side_info = decompose_full


def decompose_kelly(
    market: RaceMarket | SideInfoMarket, b: Allocation | ConditionalAllocation
) -> DecompositionReport:
    """KL report for the doubling rate, ``log c + D(p||r) - D(p||b)``: the
    ``beta = 0`` report of :func:`decompose_full`."""
    return decompose_full(market, b, 0.0)
