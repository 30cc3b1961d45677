"""Independent verification machinery.

Four kinds of oracle live here:

* a Frank-Wolfe certificate for finite ``beta < 1``: from the log fractions of
  a full, partial or conditional allocation, a bound in nats on how far its
  ``ln M_beta`` falls below the optimum's, certifying the doubles that round them;
  ``_certify`` reads those logs off an allocation and its optimizer's record,
* exhaustive simplex grid search, enumerating exact integer compositions
  so the feasible set carries no floating-point drift,
* a stationarity / complementary-slackness residual check of a
  partial-investment allocation,
* seeded Monte Carlo race simulation in blocks of races, each drawn whole from
  the seed's Philox streams, so a trajectory is a pure function of (outcomes, n, seed).

Full and partial grid searches share one scan that differs only in the cash coordinate:
the points in lexicographic order, in coordinate-major numpy blocks (numpy sums down
contiguous columns far faster than along short rows) of at most ``_BLOCK_CELLS`` cells.
A full bet pays coordinate ``j`` on its own, so from 3 coordinates on each value's log is
taken once and gathered by index; a partial payoff holds the cash and is read by cell.
From 3 coordinates on, past two blocks, a head (the first d - 2, a partial grid's cash
first) is bounded by its best two-coordinate tail at its cash, next to the pair's concave
optimum or at a convex end, and scanned if it can win or four splits leave its tail unsure.
Only strict improvements are accepted: the first lexicographic point wins ties, pruned or not.

The Monte Carlo oracles take every allocation kind and draw the outcomes of its
bet: the horses of a full or partial allocation, and the (signal, horse) cells
of positive probability of a conditional one, each paying what the utilities'
outcome map says.  A simulation of ``n`` races is a run of blocks of
``_block_races(m)`` races (the last one shorter), which depends only on the number
of outcomes ``m``.  A block's outcome counts are one Multinomial(block, PMF) draw by
conditional binomials (Devroye 1986, ch. XI) from the seed's first jumped Philox
stream, and its races are those outcomes in a uniformly random order, one shuffle
from the second: counts drawn so and then ordered at random have exactly the law
of i.i.d. races.  A simulation only counts: it sums the blocks' counts, many blocks
to one numpy call, in O(outcomes) memory and O(outcomes) work a block, and its final
log2 wealth is the ``math.fsum`` of each outcome's count times its log2 payoff.  A
trajectory keeps no per-race array: it holds that and the O(outcomes) PMF, log2
payoffs and counts, and replays its races from the seed one array per block (counts,
shuffle, gather, running sum), so it takes O(block + outcomes) memory for any number
of races.  A ``U_beta`` estimate reads only the outcome counts, so it draws them and
no races: one Multinomial(n, PMF) vector from the seed's own Philox stream, O(outcomes)
for any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from numbers import Integral
from typing import Iterator

import numpy as np

from .divergence import _CENTERED_T, _LN2, _NORMAL_MIN, _log, _log2_power_mean, _logsumexp
from .divergence import _power_mean_read
from .errors import BetaOutOfRangeError, GridTooLargeError, LengthMismatchError, NotEvaluableError
from .market import RaceMarket, SideInfoMarket
from .strategy import Allocation, ConditionalAllocation, PartialAllocation, _Bet
from .strategy import _check_beta, _outcomes, _require
from .utility import utility_full

MAX_GRID_POINTS = 10**7
# Grid blocks and the block counts of one multinomial call keep each 8-byte
# temporary at 128 KB.  With glibc's default malloc thresholds, larger temporaries
# go back to the system when freed and fault in again for the next block, which
# cost an earlier per-race sampler 2-2.5x per race for 2^15- or 2^16-race chunks,
# and made a (200,4) grid scan in 2^18-cell blocks 1.5x slower unless an earlier
# large free had raised the threshold.  Freeing several 128 KB temporaries per
# chunk still let glibc trim the heap and fault them in again (68 page faults per
# 2^14-race chunk, 12 instead of 8 ns per race).  A replay's block, up to 2^18
# races, is one larger temporary: its faults cost some 0.5 ns a race, its shuffle 12-16.
_BLOCK_CELLS = 1 << 14
_SEED_BOUND = 1 << 128  # Philox keys are 128-bit
_COUNT_BOUND = 1 << 63  # outcome counts are int64
_GAP_TOL = 1e-10  # the largest certifying _certificate gap, in nats per max(1, |1 - beta|)


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid: all vectors of ``dimension`` nonnegative multiples of
    ``1/resolution`` summing to one."""

    resolution: int
    dimension: int

    def __post_init__(self) -> None:
        for name, value in (("resolution", self.resolution), ("dimension", self.dimension)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise GridTooLargeError(f"grid {name} must be an integer, got {value!r}")
        if self.resolution < 2:
            raise GridTooLargeError(f"grid resolution must be >= 2, got {self.resolution}")
        if self.dimension < 1:
            raise GridTooLargeError(f"grid dimension must be >= 1, got {self.dimension}")

    @property
    def n_points(self) -> int:
        return math.comb(self.resolution + self.dimension - 1, self.dimension - 1)


@dataclass(frozen=True)
class KktReport:
    """Gaps in the optimality conditions of a partial-investment allocation.

    For payoffs ``s_i = cash + bets_i * o_i`` the conditions are
    ``sum_i p_i s_i^(beta-1) = mu`` when cash is held (``<= mu`` otherwise)
    and ``p_i o_i s_i^(beta-1) = mu`` for each backed horse (``<= mu`` for
    unbacked ones).  Stationarity gaps measure the equalities, feasibility
    gaps the inequality violations; all gaps are >= 0 and vanish at the
    optimum.  Held cash sets ``mu``, so ``cash_stationarity_gap`` is always 0.0,
    even where that marginal value overflows.
    ``mu_gamma_gap`` additionally checks
    ``mu = gamma_cap * cash^(beta-1)`` when the threshold is supplied.
    """

    mu: float
    stationarity_gap: float
    feasibility_gap: float
    cash_stationarity_gap: float
    cash_feasibility_gap: float
    mu_gamma_gap: float | None = None


@dataclass(frozen=True)
class WealthTrajectory:
    """Cumulative log2 wealth over a seeded sequence of races.

    ``final_log2_wealth`` is the ``math.fsum`` of each outcome's count times its log2 payoff;
    apart from ``__eq__`` and ``repr`` it also holds the bet's outcome PMF, log2 payoffs and
    ``counts``, each outcome's draws (read-only), so its memory is O(outcomes) however many races
    it covers.  :meth:`chunks` replays the races from the seed, one array per block, holding
    one block if the caller drops each, and ``log_wealth`` into one array of 8 bytes per race, built
    on first read and kept, both as serial running sums, whose last entry is within
    ``1.5 n eps max|entry|`` of the final wealth.
    """

    n_races: int
    seed: int
    final_log2_wealth: float
    _probs: np.ndarray = field(repr=False, compare=False)
    _increments: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)

    @property
    def final_rate(self) -> float:
        """Average log2 growth per race over the whole run."""
        return self.final_log2_wealth / self.n_races

    def estimate_ubeta(self, beta: float) -> float:
        """:func:`estimate_ubeta` over these races, from their counts: :attr:`final_rate` up to
        rounding at ``beta = 0`` (both -inf once a zero payoff is drawn), the largest or smallest
        log2 payoff drawn at ``+-inf``, and with one race that race's log2 payoff at every beta."""
        return _ubeta(self.counts, self._increments, _check_beta(beta))

    def chunks(self) -> Iterator[np.ndarray]:
        """The entries of ``log_wealth`` in order, a fresh array per block: its counts drawn
        again, as log2 payoffs in a shuffled order, summed in place.  It keeps none it yielded."""
        blocks = _block_counts(_stream(self.seed, 1), self._probs, self.n_races)
        order, carry = _stream(self.seed, 2), 0.0
        for counts in chain.from_iterable(blocks):
            races = self._increments.repeat(counts)
            order.shuffle(races)
            races[0] += carry  # before the running sum, so each entry rounds as one long cumsum
            np.cumsum(races, out=races)
            carry = races[-1]
            yield races
            del races  # a caller that drops each block then holds one while the next is built

    @cached_property
    def log_wealth(self) -> np.ndarray:
        """Entry ``n`` is the log2 wealth after ``n+1`` races."""
        out, lo = np.empty(self.n_races), 0
        for c in self.chunks():
            out[lo : lo + c.size] = c
            lo += c.size
        return out


def _grid_blocks(grid: GridSpec, offsets=None, heads=None) -> Iterator[np.ndarray]:
    """The grid's integer compositions in lexicographic order, or those of the ``heads``
    given, ``(d - 2, n)`` arrays, in ``np.intp`` blocks of at most ``_BLOCK_CELLS`` cells
    (rows x dimension), coordinate ``j`` plus ``offsets[j]`` (0 by default).

    Bars ``c_1 < ... < c_{d-2}`` from ``combinations(range(k + d - 2))``, in
    lexicographic order, give the heads ``x_j = c_j - c_{j-1} - 1`` (with
    ``c_0 = -1``); a head leaving ``room`` units is repeated along its points
    ``(head, t, room - t)``, ``t = 0..room``.  Each block is the transpose of
    a C-ordered (dimension, rows) array, so a sum over a point's coordinates
    adds whole columns in order; a row-major sum goes pairwise from 8 of them
    on, so there the two may differ in the last bits.
    """
    k, d = grid.resolution, grid.dimension
    offsets = np.zeros(d, np.intp) if offsets is None else offsets
    if d == 1:
        yield (offsets + k)[:, None]
        return
    rows = max(1, _BLOCK_CELLS // d)
    if bars := heads is None:
        # combinations keeps its pool as a tuple of ints, 36 MB at k = 10^6: 2 coordinates need none
        pool = chain.from_iterable(combinations(range(k + d - 2) if d > 2 else (), d - 2))
        left = math.comb(k + d - 2, d - 2)
        ns = (min(rows, left - lo) for lo in range(0, left, rows))
        heads = (np.fromiter(pool, np.intp, n * (d - 2)).reshape(n, d - 2).T for n in ns)
    for head in heads:
        if bars:
            head[1:] -= head[:-1] + 1
        sizes = k + 1 - head.sum(axis=0)  # room + 1 points per head
        ends = np.cumsum(sizes)  # one past each head's last point
        full = np.empty((d, len(sizes)), np.intp)  # x_1..x_{d-2}, -first point's index, last's
        full[:-2] = head
        full[-2], full[-1] = sizes - ends, ends - 1
        full += offsets[:, None]
        for lo in range(0, int(ends[-1]), rows):
            hi = min(lo + rows, int(ends[-1]))
            first, last = ends.searchsorted((lo, hi - 1), side="right").tolist()
            counts = sizes[first : last + 1].copy()  # whole runs, but the first and last
            counts[0] = ends[first] - lo
            counts[-1] -= ends[last] - hi
            block, index = np.repeat(full[:, first : last + 1], counts, axis=1), np.arange(lo, hi)
            block[-2] += index  # t
            block[-1] -= index  # room - t
            yield block.T


def _pair_tails(probs, odds, beta: float, k: int, room, cash, margin: float):
    """Per row, the largest two-outcome mean in bits of the last two horses over four splits
    ``(t, room - t)`` at the row's ``cash`` (units of 1/k, 0 when fully invested: 0 + x is x),
    scaled as a read of their summed probability, and a flag.  Below beta = 1 the mean is concave
    in t, a power mean of payoffs affine in t: the splits lie about its continuous maximizer, where
    ``p_u o_u S_u^(beta-1) = p_v o_v S_v^(beta-1)``; from 1 on it is convex: 0, 1, room - 1, room.
    No split left out tops one beside its gap but by rounding: where the best tops those by over
    ``margin``, twice that rounding, it is the best of every split; else the row is flagged."""
    (p_u, p_v), (o_u, o_v), paid = probs[-2:], odds[-2:], (cash / k)[:, None]

    def means(splits, rows):  # the kernel at (split, row) splits of the rows, pair-major sums
        bets = np.moveaxis(np.stack((splits, room[rows] - splits)) / k, 0, -1)
        reads = _power_mean_read(probs[-2:], bets, odds[-2:], paid[rows], beta)
        return _log2_power_mean(probs[-2:] / (p_u + p_v), None, None, None, beta, reads)

    if beta < 1.0:
        with np.errstate(all="ignore"):  # sigma = rho / (1 + rho), rho = S_u / S_v at the optimum
            sigma = 1 / (1 + (p_v * o_v / (p_u * o_u)) ** (1 / (1 - beta)))
            t = (sigma * room * o_v + (2 * sigma - 1) * cash) / ((1 - sigma) * o_u + sigma * o_v)
        low = np.minimum(np.fmax(np.floor(t) - 1, 0), np.maximum(room - 3, 0)).astype(np.intp)
        splits = np.minimum(low + np.arange(4)[:, None], room)
    else:
        splits = np.clip(np.stack((0 * room, 0 * room + 1, room - 1, room)), 0, room)
    n = max(1, _BLOCK_CELLS // 8)  # rows a block, each over four splits
    vals = np.hstack([means(splits[:, i : i + n], slice(i, i + n)) for i in range(0, len(room), n)])
    tail, gap = vals.max(0), np.diff(np.vstack((0 * room - 1, splits, room + 1)), axis=0) > 1
    unsure = ((gap[:-1] | gap[1:]) & (vals >= tail - margin)).any(0)
    tail *= 1.0 if math.isinf(beta) else _LN2 * (beta if abs(beta) > _CENTERED_T else 1.0)
    return tail, unsure


def _pruned_blocks(probs, odds, beta: float, grid: GridSpec, table) -> Iterator[np.ndarray]:
    """:func:`_grid_blocks` of the heads (the first d - 2 coordinates, a partial grid's cash first)
    that may win, offset into a full grid's read ``table`` (None if partial: read by cell).  The
    power mean rises in every read and splits over the horses, so the kernel over a head's reads
    and best tail bounds it; ``slack`` tops 20 times a bound's, tail's and value's rounding.  A
    flagged head is always scanned, and its bound, a point's value, still lifts the floor."""
    k, d, partial, floor = grid.resolution, grid.dimension, table is None, -math.inf
    offsets = np.arange(d) * (k + 1) * (not partial)
    corners = np.array([[1.0, 0.0], [0.0, 1.0], [k, 0.0], [0.0, k]]) / k  # cash or a bet: 1/k, 1
    span = _power_mean_read(probs, corners[:, 1:], odds, corners[:, :1], beta) if partial else table
    reach = 1.0 + np.abs(span[np.isfinite(span)]).max()  # a partial read lies between its corners
    unit = 2.0**-39 * d * (1 / abs(beta) if abs(beta) > _CENTERED_T else 1 - math.log(probs.min()))
    margin = unit * reach  # over twice a tail's rounding
    if not partial:  # the tail of each room, read as coordinate d - 1, and whether it is unsure
        tails, unsure = _pair_tails(probs, odds, beta, k, np.arange(k + 1), np.zeros(k + 1), margin)
        table, flagged = np.append(table[: (d - 2) * (k + 1)], tails), unsure.any()  # any room
    merged = np.append(probs[:-2], probs[-2] + probs[-1])
    for heads in _grid_blocks(GridSpec(k, d - 1), offsets[:-1]):  # a head, then its room
        if partial:  # coordinate-major, as a scan's blocks
            pts = heads / k
            reads = _power_mean_read(merged[:-1], pts[:, 1:-1], odds[:-2], pts[:, :1], beta)
            tails, unsure = _pair_tails(probs, odds, beta, k, heads[:, -1], heads[:, 0], margin)
        reads = np.vstack((reads.T, tails)).T if partial else table.take(heads.T).T
        flags = unsure if partial else unsure[heads[:, -1] - offsets[-2]] if flagged else False
        bounds = _log2_power_mean(merged, None, None, None, beta, reads)
        size = np.maximum(np.abs(bounds), np.abs(reads[:, -1]))
        size[size == math.inf] = 0.0  # -inf: exact, a zero payoff at beta <= 0
        slack = unit * np.maximum(size + 1.0, reach)
        floor = max(floor, float(np.max(bounds - slack)))
        if (keep := flags | ~(bounds + slack < floor)).any():
            yield from _grid_blocks(grid, offsets, [heads[keep, :-1].T - offsets[:-2, None]])


def _grid_argmax(market: RaceMarket, beta: float, grid: GridSpec, cash=False) -> np.ndarray:
    """The lexicographically first grid point maximizing the utility of its payoffs, ``b_j o_j``,
    or with the ``cash`` coordinate first ``cash + b_j o_j``: only strict improvements replace
    the incumbent.  A full bet of 3 coordinates or more pays coordinate ``j`` on its own, so it
    has one :func:`_power_mean_read` per coordinate value, by the per-cell ops, in a table of at
    most 13,413 doubles below the guard, gathered by index; only the winner is divided by k."""
    _require(RaceMarket, market, "a grid search")
    beta = _check_beta(beta)
    o, d = market.odds, market.m + cash
    if grid.dimension != d:
        raise LengthMismatchError(
            f"grid dimension {grid.dimension} does not match the required {d}"
        )
    if grid.n_points > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid would enumerate {grid.n_points} points, above the {MAX_GRID_POINTS} guard"
        )
    k, offsets, table, blocks = grid.resolution, np.zeros(d, np.intp), None, None
    if not cash and d > 2:
        offsets, column = np.arange(d) * (k + 1), np.arange(k + 1.0)[:, None] / k
        table = _power_mean_read(market.probs, column, o, None, beta).T.ravel()
    if d > 2 and grid.n_points > 2 * _BLOCK_CELLS // d:  # two blocks' scan costs less than bounds
        blocks = _pruned_blocks(market.probs, o, beta, grid, table)
    best_point, best_value = None, -math.inf
    for block in blocks or _grid_blocks(grid, offsets):
        if table is not None:
            values = _log2_power_mean(market.probs, None, None, None, beta, table.take(block.T).T)
        else:
            pts = block / k
            bets, paid = (pts[:, 1:], pts[:, :1]) if cash else (pts, None)
            values = _log2_power_mean(market.probs, bets, o, paid, beta)
        idx = int(np.argmax(values))
        if best_point is None or values[idx] > best_value:
            best_point, best_value = block[idx], values[idx]
    return (best_point - offsets) / k


def grid_search_full(
    market: RaceMarket, beta: float, grid: GridSpec
) -> tuple[Allocation, float]:
    """Exhaustive full-investment search; returns the best grid point and its utility.
    At ``beta = +-inf`` it maximizes the best- or worst-case payoff."""
    alloc = Allocation(_grid_argmax(market, beta, grid))
    return alloc, utility_full(market, alloc, beta)


def grid_search_partial(
    market: RaceMarket, beta: float, grid: GridSpec
) -> tuple[PartialAllocation, float]:
    """Exhaustive search over (cash, bets) vectors; the cash coordinate comes first."""
    best = _grid_argmax(market, beta, grid, cash=True)
    alloc = PartialAllocation(best[0], best[1:])
    return alloc, utility_full(market, alloc, beta)


def _excess(a, b):
    """``a - b``, reading ``inf - inf`` as ``+inf``: where a marginal value
    overflows with ``mu``, no finite multiplier is certified."""
    if b < math.inf:
        return a - b
    return np.where(a == math.inf, math.inf, -math.inf)


def kkt_residual(
    market: RaceMarket,
    beta: float,
    sol: PartialAllocation,
    gamma_cap: float | None = None,
) -> KktReport:
    """Residuals of the optimality conditions at a partial allocation.

    The multiplier is read off the cash equality when cash is held,
    otherwise off the first backed horse.  Values are extended reals, never
    NaN: with no cash an unbacked horse pays 0, so its marginal value and
    the cash's are ``+inf``, and so are the feasibility gaps.  That is the
    report for an optimum whose cash rounds to 0.0 close to ``beta = 1``.
    A gap between two marginal values that both overflow, as payoffs below 1
    give at very negative beta, is ``+inf`` too.
    """
    _require(PartialAllocation, sol, "kkt_residual")
    beta = _check_beta(beta)
    if math.isinf(beta):
        raise BetaOutOfRangeError(f"the conditions need a finite beta, got {beta!r}")
    if beta >= 1.0:
        raise NotEvaluableError("the conditions are stated for finite beta < 1")
    probs, bets, odds, cash = _outcomes(market, sol)
    active = sol.bets > 0.0

    # 0^(beta-1) is +inf, and so is a small payoff's at very negative beta
    with np.errstate(divide="ignore", over="ignore"):
        marginal = (cash + bets * odds) ** (beta - 1.0)  # the payoffs, linear as stated
        grad_cash = float(np.sum(probs * marginal))
        grad_bets = probs * market.odds * marginal
        mu = grad_cash if sol.cash > 0.0 else float(grad_bets[np.flatnonzero(active)[0]])
        mu_gamma_gap = None
        if gamma_cap is not None and sol.cash > 0.0:
            capped = gamma_cap * np.float64(sol.cash) ** (beta - 1.0)
            mu_gamma_gap = abs(float(_excess(mu, capped)))

    excess = _excess(grad_bets, mu)
    stationarity = float(np.max(np.abs(excess[active]), initial=0.0))
    feasibility = float(np.max(np.maximum(excess[~active], 0.0), initial=0.0))
    # held cash sets mu, so it has no gap of its own
    cash_feasibility = 0.0 if sol.cash > 0.0 else max(float(_excess(grad_cash, mu)), 0.0)

    return KktReport(
        mu=mu,
        stationarity_gap=stationarity,
        feasibility_gap=feasibility,
        cash_stationarity_gap=0.0,
        cash_feasibility_gap=cash_feasibility,
        mu_gamma_gap=mu_gamma_gap,
    )


def _certificate(market: RaceMarket | SideInfoMarket, beta: float, log_fractions) -> float:
    """Frank-Wolfe gap, in nats, of an allocation given by its natural-log fractions,
    for finite ``beta < 1``: the m bets of a full one, or its cash (paying 1 on every
    outcome) then the m bets, or a conditional table, one simplex per signal.

    ``ln M_beta`` (``M_beta = E[S^beta]^(1/beta)``) is concave and 1-homogeneous in the
    fractions, so it is within ``sum_y max_{j in y} g_j - 1`` of the optimum, ``g_j =
    E[dS/db_j S^(beta-1)] / E[S^beta]`` (Jaggi 2013).  Each ``ln g_j`` is a difference
    of log-sum-exps over the live outcomes: scale-free, O(outcomes), never NaN, +inf
    where a possible outcome pays 0.  Each ``max g_j`` is weighed by its simplex's total,
    for the gap of the point the fractions normalize to: exactly 0 at Kelly, b = p."""
    log_o = market._log_o
    if isinstance(market, SideInfoMarket):
        log_w, log_x, log_cash = _log(market.joint), log_fractions, None
    else:
        log_w, log_x = market._log_p[None, :], log_fractions[None, -market.m :]
        log_cash = log_fractions[0] if log_fractions.size > market.m else None
    log_s = log_x + log_o if log_cash is None else np.logaddexp(log_cash, log_x + log_o)
    dead = log_w == -math.inf
    if np.any(log_s[~dead] == -math.inf):
        return math.inf  # a possible outcome pays 0: its marginal value is infinite
    with np.errstate(all="ignore"):  # 0 * inf off the live outcomes, ln 0, an infinite gap
        terms = log_w + beta * log_s  # ln(w S^beta)
        marginal = (log_w + log_o) + (beta - 1.0) * log_s  # ln(w o S^(beta-1)), one bet's
        terms[dead] = marginal[dead] = -math.inf
        rows = _logsumexp(terms, axis=1)
        peak, size = marginal.max(axis=1), _logsumexp(log_x, axis=1)
        if log_cash is not None:
            peak = np.maximum(peak, _logsumexp(log_w + (beta - 1.0) * log_s))
            size = np.logaddexp(size, log_cash)
        # simplex y adds share_y (max g_j / share_y - 1), share_y = sum_{j in y} b_j g_j
        excess = np.maximum(peak + size - rows, 0.0)
        gaps = np.exp(rows - _logsumexp(rows) + excess + _log(-np.expm1(-excess)))
    return float(gaps.sum())


def _certify(market: RaceMarket | SideInfoMarket, beta: float, alloc: _Bet) -> float:
    """:func:`_certificate` of the doubles ``alloc`` holds, read as logs: their own, but
    below the smallest normal double, where a fraction keeps fewer bits, those of the
    ``_logs`` record its optimizer attached, if they round to it within a factor of 2 or
    a step of 2^-1074 (else +inf: not this point).  Without a record, its doubles alone."""
    printed = alloc.table if isinstance(alloc, ConditionalAllocation) else alloc.bets
    if isinstance(alloc, PartialAllocation):
        printed = np.append(alloc.cash, printed)
    read = _log(printed)
    logs, low = getattr(alloc, "_logs", None), printed < _NORMAL_MIN
    if logs is not None and np.any(low):
        exact, printed = np.exp(logs[low]), printed[low]
        if np.any(np.abs(exact - printed) > np.minimum(exact, printed) + 2.0**-1074):
            return math.inf
        read[low] = logs[low]
    return _certificate(market, beta, read)


def _check_stream(n: int, seed: int, unit: str) -> None:
    """Refuse a number ``n`` of ``unit``s or a ``seed`` that is not an integer in range."""
    if isinstance(n, bool) or not isinstance(n, Integral) or not 1 <= n < _COUNT_BOUND:
        raise NotEvaluableError(f"number of {unit}s must be an integer in [1, 2**63), got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < _SEED_BOUND:
        raise NotEvaluableError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _block_races(m: int) -> int:
    """Races per block of a simulation of ``m`` outcomes: 64 or more per outcome, so a block's
    O(m) counts cost a few ns a race, within 2^14 to 2^18, as larger shuffles miss the cache."""
    return 1 << min(18, max(14, (m - 1).bit_length() + 6))


def _stream(seed: int, jumps: int) -> np.random.Generator:
    """The seed's Philox stream advanced ``jumps * 2^128`` draws, ``Philox.jumped(jumps)``:
    0 for a cold estimate, 1 for a simulation's block counts, 2 for its races' order."""
    return np.random.Generator(np.random.Philox(counter=[0, 0, jumps, 0], key=int(seed)))


def _block_counts(stream: np.random.Generator, probs: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """``n`` races' outcome counts, a row per block of ``_block_races(m)`` (the last shorter),
    ``_BLOCK_CELLS`` counts a call, or one block: numpy's multinomial draws rows in turn."""
    block, rows = _block_races(probs.size), max(1, _BLOCK_CELLS // probs.size)
    full, rest = divmod(n, block)
    for lo in range(0, full, rows):
        yield stream.multinomial(block, probs, size=min(rows, full - lo))
    if rest:
        yield stream.multinomial(rest, probs, size=1)


def simulate_growth(
    market: RaceMarket | SideInfoMarket, b: _Bet, n_races: int, seed: int
) -> WealthTrajectory:
    """Simulate repeated betting, each race drawing one outcome of the bet, from each block's
    outcome counts, summed in O(outcomes) memory, for :meth:`WealthTrajectory.estimate_ubeta`.

    Identical (market, allocation, n, seed) inputs reproduce the trajectory bit for bit on one
    numpy version: NEP 19 keeps Philox's raw stream fixed, but not ``Generator.multinomial`` or
    ``shuffle``.  The final log2 wealth is the ``math.fsum`` of each drawn outcome's count times
    its log2 payoff, whatever the race order or block size: ``-inf`` once an outcome paying 0
    is drawn, and never NaN, as an outcome not drawn is left out.
    """
    probs, bets, odds, cash = _outcomes(market, b)
    _check_stream(n_races, seed, "race")
    increments = _power_mean_read(probs, bets, odds, cash, math.inf)  # the log2 payoffs
    counts = sum(rows.sum(axis=0) for rows in _block_counts(_stream(seed, 1), probs, n_races))
    counts.flags.writeable = False
    drawn = counts > 0  # an undrawn zero payoff adds no 0 * -inf
    final = math.fsum((counts[drawn] * increments[drawn]).tolist())
    return WealthTrajectory(n_races, seed, final, probs, increments, counts)


def _ubeta(counts: np.ndarray, log2_payoffs: np.ndarray, beta: float) -> float:
    """``(1/beta) log2`` of the mean ``S^beta`` over outcomes drawn ``counts`` times, from their
    log2 payoffs.  One not drawn is left out: a zero payoff adds +inf at beta < 0 only if drawn."""
    drawn = counts > 0
    freq, read = counts[drawn] / counts.sum(), log2_payoffs[drawn]  # copies
    if not math.isinf(beta):  # read as _power_mean_read reads a payoff
        read *= _LN2 * (beta if abs(beta) > _CENTERED_T else 1.0)
    if _CENTERED_T < abs(beta) < math.inf:
        read += np.log(freq)
    return _log2_power_mean(freq, None, None, None, beta, read)


def estimate_ubeta(
    market: RaceMarket | SideInfoMarket, b: _Bet, beta: float, n_samples: int, seed: int
) -> float:
    """Monte Carlo estimate of ``(1/beta) log2 E[S^beta]`` from seeded samples of
    the bet's outcomes: the mean log2 payoff at ``beta = 0``, and the largest or
    smallest log2 payoff drawn at ``beta = +-inf``.

    The mean of ``S^beta`` is taken over per-outcome counts, one Multinomial(``n_samples``,
    outcome PMF) vector from the seed's own Philox stream, in O(outcomes) time and memory for
    any ``n_samples`` below 2**63: the law of ``n_samples`` independent races, but drawn apart
    from the races :func:`simulate_growth` draws from that seed
    (:meth:`WealthTrajectory.estimate_ubeta`).
    """
    beta = _check_beta(beta)
    probs, bets, odds, cash = _outcomes(market, b)
    _check_stream(n_samples, seed, "sample")
    counts = _stream(seed, 0).multinomial(n_samples, probs)
    return _ubeta(counts, _power_mean_read(probs, bets, odds, cash, math.inf), beta)
