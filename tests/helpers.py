"""Random-instance generators shared by the test modules.

All generators take an explicit numpy Generator so every test controls its
own seed and stays reproducible.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from powerbet import Allocation, ConditionalAllocation, PartialAllocation, RaceMarket
from powerbet import SideInfoMarket, new_race, new_side_info, track_constant
from powerbet import oracle

# Interior risk parameters close to the beta = 1 edge, where the optimal
# cash of a subfair race may round to 0.0.
EDGE_BETAS = (0.999, 1.0 - 1e-6, 1.0 - 1e-9)


def random_market(rng, m, odds_lo=1.2, odds_hi=8.0) -> RaceMarket:
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    odds = rng.uniform(odds_lo, odds_hi, size=m)
    return new_race(probs / probs.sum(), odds)


def random_subfair_market(rng, m, odds_lo=1.2, odds_hi=8.0) -> RaceMarket:
    market = random_market(rng, m, odds_lo, odds_hi)
    c = track_constant(market)
    if c < 0.98:
        return market
    # shrink all payouts until the track keeps a real cut
    scale = rng.uniform(0.55, 0.9) / c
    return new_race(market.probs, market.odds * scale)


def random_superfair_market(rng, m, odds_lo=1.2, odds_hi=8.0) -> RaceMarket:
    market = random_market(rng, m, odds_lo, odds_hi)
    c = track_constant(market)
    if c >= 1.0:
        return market
    scale = rng.uniform(1.0, 1.5) / c
    return new_race(market.probs, market.odds * scale)


def random_interior_allocation(rng, m, floor=0.05) -> Allocation:
    raw = rng.dirichlet(np.ones(m))
    bets = (raw + floor) / (1.0 + m * floor)
    return Allocation(bets)


def random_partial_allocation(rng, m) -> PartialAllocation:
    raw = rng.dirichlet(np.ones(m + 1))
    return PartialAllocation(raw[0], raw[1:])


def random_pmf(rng, n, floor=0.0) -> np.ndarray:
    raw = rng.dirichlet(np.ones(n))
    if floor:
        raw = (raw + floor) / (1.0 + n * floor)
    return raw


def random_joint_market(rng, n_signals, n_horses, positive_marginals=False) -> SideInfoMarket:
    joint = rng.dirichlet(np.ones(n_signals * n_horses)).reshape(n_signals, n_horses)
    if positive_marginals:
        joint = (joint + 0.01) / (1.0 + 0.01 * joint.size)
    odds = rng.uniform(1.2, 8.0, size=n_horses)
    return new_side_info(joint, odds)


def random_conditional_allocation(rng, n_signals, n_horses, floor=0.05) -> ConditionalAllocation:
    rows = [random_interior_allocation(rng, n_horses, floor).bets for _ in range(n_signals)]
    return ConditionalAllocation(np.vstack(rows))


def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in values))


def _log1mexp(a: float) -> float:
    """``ln(1 - e^-a)`` for ``a > 0``, by the branch that is accurate on each
    side of ``ln 2`` (Maechler 2012, "Accurately computing log(1 - exp(-|a|))")."""
    return math.log(-math.expm1(-a)) if a <= math.log(2.0) else math.log1p(-math.exp(-a))


def prefix_search_partial(market: RaceMarket, beta: float):
    """Brute-force partial-investment reference for a subfair market.

    Ranks the horses by decreasing ``p_i * o_i`` and tries every prefix ``J``
    as the support.  Its threshold is
    ``cap = (sum_{i not in J} p_i) / (1 - sum_J 1/o_i)``, skipped unless both
    sides are positive; stationarity, ``p_i o_i s_i^(beta-1) = cap cash^(beta-1)``,
    then puts each backed horse's payoff at ``s_i = cash r_i`` with
    ``ln r_i = max(0, ln(p_i o_i / cap) / (1 - beta))``, so it gets the bet
    ``cash (r_i - 1) / o_i``, and ``cash`` makes the whole sum to one.  All of
    it is kept in logs, one Python float at a time, so no prefix overflows:
    ``ln cash = -ln(1 + sum_J (r_i - 1) / o_i)``, a backed payoff is
    ``b_i o_i / (1 - 1/r_i)``, and the utility is
    ``(1/beta) log2 sum p_i s_i^beta`` (``sum p_i log2 s_i`` at ``beta = 0``)
    from ``ln s_i``.  Keeps the best utility, ties going to the smaller
    prefix, and returns ``(support, utility)``, the support being the horses
    whose bet is a positive double.
    """
    p, o = market.probs, market.odds
    order = [int(i) for i in np.argsort(-p * o, kind="stable")]
    best = None
    for k in range(market.m + 1):
        backed = order[:k]
        slack = 1.0 - math.fsum(1.0 / o[i] for i in backed)
        outside = math.fsum(p[i] for i in order[k:])
        if slack <= 0.0 or outside <= 0.0:
            continue
        log_cap = math.log(outside) - math.log(slack)
        log_r = {i: max(0.0, (math.log(p[i] * o[i]) - log_cap) / (1.0 - beta)) for i in backed}
        # ln((r - 1) / o) = ln r + ln(1 - 1/r) - ln o, for the horses with r > 1
        log_gamma = {i: lr + _log1mexp(lr) - math.log(o[i]) for i, lr in log_r.items() if lr > 0}
        # ln(1 + sum gamma) = shift + rest, the shift taking the largest log first,
        # so the top payoff is not the difference of two logs near 1e9
        shift = max([0.0, *log_gamma.values()])
        rest = _logsumexp([-shift, *(g - shift for g in log_gamma.values())])
        log_bets = {i: g - shift - rest for i, g in log_gamma.items()}
        log_s = [-shift - rest] * market.m  # an unbacked horse pays the cash
        for i, lb in log_bets.items():
            log_s[i] = lb + math.log(o[i]) - _log1mexp(log_r[i])  # s = b o / (1 - 1/r)
        if beta == 0.0:
            value = math.fsum(p[i] * log_s[i] for i in range(market.m)) / math.log(2.0)
        else:
            terms = [math.log(p[i]) + beta * log_s[i] for i in range(market.m)]
            value = _logsumexp(terms) / (beta * math.log(2.0))
        if best is None or value > best[1]:
            best = (tuple(sorted(i for i, lb in log_bets.items() if math.exp(lb) > 0.0)), value)
    return best


def compositions(total: int, parts: int):
    """Reference enumerator: all tuples of ``parts`` nonnegative ints summing
    to ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def reference_logsumexp(a: np.ndarray) -> np.ndarray:
    """Natural log of ``sum(exp(a))`` over the last axis of a row-major copy of
    ``a``, written apart from the library's kernel: shift by the row's finite
    peak (0 if none), exp, sum, log, add the peak back."""
    a = np.array(a, dtype=float, order="C")
    peak = a.max(axis=-1, keepdims=True, initial=-math.inf)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        out = np.log(np.exp(a - peak).sum(axis=-1, keepdims=True))
    out += peak
    return out[..., 0]


def reference_grid_values(probs, beta: float, grid, payoffs, chunk_rows: int = 1 << 16):
    """Reference grid scan: the recursive enumerator in chunks of ``chunk_rows``
    points, yielding each chunk's points and their power means, computed
    row-major by :func:`reference_logsumexp`."""
    gen = compositions(grid.resolution, grid.dimension)
    while block := list(islice(gen, chunk_rows)):
        points = np.asarray(block, dtype=float) / float(grid.resolution)
        with np.errstate(divide="ignore"):
            terms = np.log(probs)[None, :] + beta * np.log(payoffs(points))
        yield points, reference_logsumexp(terms) / (beta * math.log(2.0))


def reference_grid_argmax(probs, beta: float, grid, payoffs, chunk_rows: int = 1 << 16):
    """The first point of the largest value in :func:`reference_grid_values`."""
    best_point, best_value = None, -math.inf
    for points, values in reference_grid_values(probs, beta, grid, payoffs, chunk_rows):
        idx = int(np.argmax(values))
        if best_point is None or values[idx] > best_value:
            best_value, best_point = float(values[idx]), points[idx]
    return best_point


def reference_winners(market: RaceMarket, n: int, seed: int) -> np.ndarray:
    """Reference race draw, all ``n`` races at once: blocks of ``oracle._block_races(m)``
    races, the last one shorter, each taking its outcome counts from one ``multinomial`` call
    on ``Philox(key=seed).jumped()``, in turn, and its order from one ``shuffle`` of those
    outcomes, ``np.repeat``-ed, on ``Philox(key=seed).jumped(2)``."""
    m, size = market.m, oracle._block_races(market.m)
    counts, order = (np.random.Generator(np.random.Philox(key=seed).jumped(k)) for k in (1, 2))
    blocks = []
    for lo in range(0, n, size):
        races = np.repeat(np.arange(m), counts.multinomial(min(size, n - lo), market.probs))
        order.shuffle(races)
        blocks.append(races)
    return np.concatenate(blocks)


def reference_log_wealth(
    market: RaceMarket, b: Allocation, n: int, seed: int, winners=None
) -> np.ndarray:
    """Reference trajectory: one log2 payoff per race, summed by one ``cumsum``, of the
    ``winners`` given or else those of :func:`reference_winners`."""
    winners = reference_winners(market, n, seed) if winners is None else winners
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log2(b.bets[winners] * market.odds[winners]))


def reference_final(
    market: RaceMarket, b: Allocation, n: int, seed: int, winners=None
) -> float:
    """Reference final log2 wealth: ``math.fsum`` of each drawn outcome's count times its log2
    payoff, of the ``winners`` given or else those of :func:`reference_winners`."""
    winners = reference_winners(market, n, seed) if winners is None else winners
    counts = np.bincount(winners, minlength=market.m)
    drawn = counts > 0
    with np.errstate(divide="ignore"):
        log2_payoffs = np.log2(b.bets * market.odds)
    return math.fsum((counts[drawn] * log2_payoffs[drawn]).tolist())


def reference_ubeta(
    market: RaceMarket, b: Allocation, beta: float, n: int, seed: int, winners=None
) -> float:
    """Reference estimate: a log-sum-exp over one term per sample, of the ``winners`` given
    or else those of :func:`reference_winners`."""
    winners = reference_winners(market, n, seed) if winners is None else winners
    with np.errstate(divide="ignore"):
        terms = beta * np.log(b.bets[winners] * market.odds[winners])
    return (float(reference_logsumexp(terms)) - math.log(n)) / (beta * math.log(2.0))
