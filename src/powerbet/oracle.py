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
* seeded Monte Carlo race simulation with a counter-based generator, so
  the sample stream is a pure function of (seed, race index).

Full and partial grid searches share one scan that differs only in the
payoff map.  It takes the points in lexicographic order, in numpy blocks
of at most ``_BLOCK_CELLS`` cells, so memory stays bounded.  A full bet
pays coordinate ``j`` on its own, so from 3 coordinates on, where values
repeat, each value's log is taken once and blocks of indices gather it;
cash enters every partial payoff, so those blocks take logs cell by cell.
Blocks are coordinate-major: numpy sums a point's coordinates far faster
down contiguous columns than along short rows.  Only strict improvements
are accepted, so the lowest lexicographic point wins ties however the scan
is blocked.

The Monte Carlo oracles take every allocation kind and draw the outcomes
of its bet: the horses of a full or partial allocation, and the (signal,
horse) cells of positive probability of a conditional one, each paying what
the utilities' outcome map says.  They stream too: outcomes are drawn
``_MC_CHUNK`` races at a time from one Philox stream, which continues
across chunks, so every result is bit-identical whatever the chunk size.
Each race takes one raw 64-bit word, and an integer inverse CDF through a
guide table maps it to the outcome that numpy's uniform from the same word
would pick.  Neither keeps a per-race array: a trajectory holds its final
wealth and the O(outcomes) PMF, log2 payoffs and outcome counts, and replays
its races from the seed, a chunk at a time, when they are asked for; a
``U_beta`` estimate keeps only the counts.  So both take O(chunk + outcomes)
memory for any number of races, and ``log_wealth`` costs 8 bytes per race
only once it is read.  The counts, a pure function of (outcome PMF, n, seed),
serve every beta, so one slot keeps the latest stream's key and counts: an
estimate right after ``simulate_growth`` of the same stream does not draw it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from numbers import Integral
from typing import Iterator

import numpy as np

from .divergence import _NORMAL_MIN, _log, _log2_power_mean, _logsumexp, _power_mean_read
from .errors import BetaOutOfRangeError, GridTooLargeError, LengthMismatchError, NotEvaluableError
from .market import RaceMarket, SideInfoMarket
from .strategy import Allocation, ConditionalAllocation, PartialAllocation, _Bet
from .strategy import _check_beta, _outcomes
from .utility import utility_full

MAX_GRID_POINTS = 10**7
# Grid blocks and Monte Carlo chunks keep each 8-byte temporary at 128 KB.
# With glibc's default malloc thresholds, larger temporaries go back to the
# system when freed and fault in again for the next block, which cost 2-2.5x
# per race for 2^15- or 2^16-race chunks, and made a (200,4) grid scan in
# 2^18-cell blocks 1.5x slower unless an earlier large free had raised the
# threshold.  Freeing several 128 KB temporaries per chunk still let glibc
# trim the heap and fault them in again (68 page faults per 2^14-race chunk,
# 12 instead of 8 ns per race), so the sampler reuses its buffers.
_BLOCK_CELLS = 1 << 14
_MC_CHUNK = 1 << 14
_SEED_BOUND = 1 << 128  # Philox keys are 128-bit
_GUIDE_BITS = 14  # the outcome sampler's guide table has at most 2^14 entries (128 KB)
_drawn: tuple = (None, None)  # (key, read-only counts) of the latest stream drawn
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

    It holds the final log2 wealth and, apart from ``__eq__`` and ``repr``,
    the bet's outcome PMF, log2 payoffs and how often each outcome was drawn
    (read-only), so its memory is O(outcomes) however many races it covers.
    :meth:`chunks` replays the races from the seed in O(chunk) memory;
    ``log_wealth`` replays them into one array of 8 bytes per race, built when
    it is first read and kept.
    """

    n_races: int
    seed: int
    final_log2_wealth: float
    _probs: np.ndarray = field(repr=False, compare=False)
    _increments: np.ndarray = field(repr=False, compare=False)
    _counts: np.ndarray = field(repr=False, compare=False)

    @property
    def final_rate(self) -> float:
        """Average log2 growth per race over the whole run."""
        return self.final_log2_wealth / self.n_races

    def chunks(self) -> Iterator[np.ndarray]:
        """The entries of ``log_wealth`` in order, as fresh arrays of at most
        ``_MC_CHUNK`` races each."""
        return (c.copy() for c in self._replay())

    @cached_property
    def log_wealth(self) -> np.ndarray:
        """Entry ``n`` is the log2 wealth after ``n+1`` races."""
        out, lo = np.empty(self.n_races), 0
        for c in self._replay():
            out[lo : lo + c.size] = c
            lo += c.size
        return out

    def _replay(self) -> Iterator[np.ndarray]:
        return _log_wealth_chunks(self._probs, self._increments, self.n_races, self.seed)


def _grid_blocks(grid: GridSpec, offsets=None) -> Iterator[np.ndarray]:
    """The grid's integer compositions in lexicographic order, in blocks of at most
    ``_BLOCK_CELLS`` cells (rows x dimension), coordinate ``j`` plus ``offsets[j]``.

    Bars ``c_1 < ... < c_{d-2}`` from ``combinations(range(k + d - 2))``, in
    lexicographic order, give the heads ``x_j = c_j - c_{j-1} - 1`` (with
    ``c_0 = -1``); a head leaving ``room`` units is repeated along its points
    ``(head, t, room - t)``, ``t = 0..room``.  Each block is the transpose of
    a C-ordered (dimension, rows) array, so a sum over a point's coordinates
    adds whole columns in order; a row-major sum goes pairwise from 8 of them
    on, so there the two may differ in the last bits.  Entries take the offsets'
    dtype, float64 zeros by default: exact for these small integers, so scaling
    a block to points is a float divide rather than an integer true-divide.
    """
    k, d = grid.resolution, grid.dimension
    offsets = np.zeros(d) if offsets is None else offsets
    if d == 1:
        yield (offsets + k)[:, None]
        return
    rows = max(1, _BLOCK_CELLS // d)
    # combinations keeps its pool as a tuple of ints, 36 MB at k = 10^6: 2 coordinates need none
    bars = chain.from_iterable(combinations(range(k + d - 2) if d > 2 else (), d - 2))
    left = math.comb(k + d - 2, d - 2)
    while left:
        n = min(rows, left)
        left -= n
        pos = np.fromiter(bars, dtype=np.intp, count=n * (d - 2)).reshape(n, d - 2).T
        heads = np.empty((d, n), offsets.dtype)  # x_1..x_{d-2}, -first point's index, last's
        heads[:-2] = pos
        heads[1:-2] -= pos[:-1] + 1
        sizes = k + 1 - heads[:-2].sum(axis=0).astype(np.intp)  # room + 1 points per head
        ends = np.cumsum(sizes)  # one past each head's last point
        heads[-2], heads[-1] = sizes - ends, ends - 1
        heads += offsets[:, None]
        for lo in range(0, int(ends[-1]), rows):
            hi = min(lo + rows, int(ends[-1]))
            first, last = ends.searchsorted((lo, hi - 1), side="right").tolist()
            counts = sizes[first : last + 1].copy()  # whole runs, but the first and last
            counts[0] = ends[first] - lo
            counts[-1] -= ends[last] - hi
            block, index = np.repeat(heads[:, first : last + 1], counts, axis=1), np.arange(lo, hi)
            block[-2] += index  # t
            block[-1] -= index  # room - t
            yield block.T


def _grid_argmax(
    market: RaceMarket, beta: float, grid: GridSpec, dimension: int, payoffs, separable=False
):
    """The lexicographically first grid point maximizing the utility of
    ``payoffs(points)``: only strict improvements replace the incumbent.  A
    ``separable`` map (payoff ``j`` of coordinate ``j`` alone) of 3 coordinates
    or more has one :func:`_power_mean_read` per coordinate value, by the
    per-cell ops, in a table of at most 13,413 doubles below the guard: blocks
    of its indices gather it, and only the winning point is divided by k."""
    beta = _check_beta(beta)
    if grid.dimension != dimension:
        raise LengthMismatchError(
            f"grid dimension {grid.dimension} does not match the required {dimension}"
        )
    if grid.n_points > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid would enumerate {grid.n_points} points, above the {MAX_GRID_POINTS} guard"
        )
    k, offsets, table = grid.resolution, np.zeros(dimension), None
    if separable and dimension > 2:
        offsets, column = np.arange(dimension) * (k + 1), np.arange(k + 1.0)[:, None] / k
        table = _power_mean_read(market.probs, payoffs(column), beta).T.ravel()
    best_point, best_value = None, -math.inf
    for block in _grid_blocks(grid, offsets):
        if table is None:
            values = _log2_power_mean(market.probs, payoffs(block / k), beta)
        else:
            values = _log2_power_mean(market.probs, None, beta, table.take(block.T).T)
        idx = int(np.argmax(values))
        if best_point is None or values[idx] > best_value:
            best_point, best_value = block[idx], values[idx]
    return (best_point - offsets) / k


def grid_search_full(
    market: RaceMarket, beta: float, grid: GridSpec
) -> tuple[Allocation, float]:
    """Exhaustive full-investment search; returns the best grid point and its utility.
    At ``beta = +-inf`` it maximizes the best- or worst-case payoff."""
    best = _grid_argmax(market, beta, grid, market.m, lambda pts: pts * market.odds, separable=True)
    alloc = Allocation(best)
    return alloc, utility_full(market, alloc, beta)


def grid_search_partial(
    market: RaceMarket, beta: float, grid: GridSpec
) -> tuple[PartialAllocation, float]:
    """Exhaustive search over (cash, bets) vectors; the cash coordinate comes first."""
    best = _grid_argmax(
        market, beta, grid, market.m + 1, lambda pts: pts[:, :1] + pts[:, 1:] * market.odds
    )
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
    beta = _check_beta(beta)
    if math.isinf(beta):
        raise BetaOutOfRangeError(f"the conditions need a finite beta, got {beta!r}")
    if beta >= 1.0:
        raise NotEvaluableError("the conditions are stated for finite beta < 1")
    probs, payoffs = _outcomes(market, sol)
    active = sol.bets > 0.0

    # 0^(beta-1) is +inf, and so is a small payoff's at very negative beta
    with np.errstate(divide="ignore", over="ignore"):
        marginal = payoffs ** (beta - 1.0)
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
    log_o = np.log(market.odds)
    if isinstance(market, SideInfoMarket):
        log_w, log_x, log_cash = _log(market.joint), log_fractions, None
    else:
        log_w, log_x = np.log(market.probs)[None, :], log_fractions[None, -market.m :]
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


def _stream_key(probs: np.ndarray, n: int, seed: int, unit: str) -> tuple:
    """``(PMF bytes, n, seed)``, the stream's key, once ``n`` and ``seed`` are checked."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise NotEvaluableError(f"the number of {unit}s must be an integer, got {n!r}")
    if n < 1:
        raise NotEvaluableError(f"need at least one {unit}, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < _SEED_BOUND:
        raise NotEvaluableError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return probs.tobytes(), int(n), int(seed)


def _winner_chunks(probs: np.ndarray, n: int, seed: int) -> Iterator[np.ndarray]:
    """Outcome indices of ``n`` seeded races drawn from the PMF ``probs``, in
    chunks of at most ``_MC_CHUNK``.

    Raw 64-bit words come from one Philox stream, drawn a chunk at a time;
    successive draws continue the stream, so the outcomes do not depend on the
    chunk size.  numpy's Philox uniform is ``u = (word >> 11) * 2^-53``, and
    the outcome is the number of inner CDF bounds ``<= u`` (the first outcome
    whose cumulative probability exceeds ``u``, the last if none does).  A
    bound is crossed exactly when ``word >> 11`` reaches its integer threshold
    ``ceil(bound * 2^53)``, so a bound that rounds to ``>= 1`` in ``cumsum``
    is never crossed.  The top ``k`` of those 53 bits, ``k`` growing with the
    number of outcomes up to ``_GUIDE_BITS``, index a guide table holding the
    number of thresholds at or below each bucket's start (Chen & Asau 1974,
    "indexed search").  A branchless binary search from that count, with as
    many steps as the fullest bucket needs (usually one), finishes it.

    Every chunk is a view of one buffer that the next chunk overwrites, and
    the search works in two more, so a chunk allocates only its raw words.
    """
    bitgen = np.random.Philox(key=int(seed))
    top = 1 << 53
    thresholds = np.ceil(np.cumsum(probs)[:-1] * top).astype(np.int64)
    shift = 53 - min(_GUIDE_BITS, (probs.size - 1).bit_length() + 3)
    starts = np.arange((top >> shift) + 1, dtype=np.int64) << shift
    guide = np.searchsorted(thresholds, starts, side="right")
    steps = int(np.max(np.diff(guide))).bit_length()  # covers the fullest bucket
    guide = guide[:-1]
    padded = np.full(thresholds.size + (1 << steps), top, dtype=np.int64)  # top: never crossed
    padded[: thresholds.size] = thresholds
    probes = [(s, padded[(1 << s) - 1 :]) for s in reversed(range(steps))]

    size = min(_MC_CHUNK, n)
    scratch, out, hits = np.empty(size, np.int64), np.empty(size, np.int64), np.empty(size, bool)

    def search(words: np.ndarray) -> np.ndarray:
        # every index is in range, so "clip" changes none; unlike "raise" it
        # writes straight into the buffer instead of through a temporary
        k = words.size
        x = np.right_shift(words, 11, out=words).view(np.int64)
        w, tmp, hit = out[:k], scratch[:k], hits[:k]
        guide.take(np.right_shift(x, shift, out=tmp), out=w, mode="clip")
        for s, probe in probes:
            np.less_equal(probe.take(w, out=tmp, mode="clip"), x, out=hit)
            w += np.left_shift(hit, s, out=tmp) if s else hit
        return w

    draws = (bitgen.random_raw(min(_MC_CHUNK, n - lo)) for lo in range(0, n, _MC_CHUNK))
    return map(search, draws)


def _log_wealth_chunks(
    probs: np.ndarray, increments: np.ndarray, n_races: int, seed: int, counts=None
) -> Iterator[np.ndarray]:
    """Cumulative log2 wealth of ``n_races`` seeded races, a chunk at a time, each
    race adding its outcome's ``increments`` entry and, if given, one to its
    ``counts`` entry.  Every chunk is a view of one buffer the next overwrites."""
    buf = np.empty(min(_MC_CHUNK, n_races))
    carry = 0.0
    for outcomes in _winner_chunks(probs, n_races, seed):
        if counts is not None:
            counts += np.bincount(outcomes, minlength=counts.size)
        step = buf[: outcomes.size]
        # outcomes are in range, so "clip" changes none; unlike "raise" it
        # writes straight into the buffer instead of through a temporary
        increments.take(outcomes, out=step, mode="clip")
        step[0] += carry  # before the running sum, so each entry rounds as one long cumsum
        np.cumsum(step, out=step)
        carry = step[-1]
        yield step


def simulate_growth(
    market: RaceMarket | SideInfoMarket, b: _Bet, n_races: int, seed: int
) -> WealthTrajectory:
    """Simulate repeated betting, each race drawing one outcome of the bet, in one
    pass of O(chunk) memory.

    Identical (market, allocation, n, seed) inputs reproduce the trajectory
    bit for bit.  An outcome paying 0 sends the wealth to ``-inf`` and it
    stays there.  The pass counts the outcomes, for the trajectory and :func:`estimate_ubeta`.
    """
    global _drawn
    probs, payoffs = _outcomes(market, b)
    key = _stream_key(probs, n_races, seed, "race")
    with np.errstate(divide="ignore"):
        increments = np.log2(payoffs)
    counts = np.zeros(probs.size, dtype=np.int64)
    for chunk in _log_wealth_chunks(probs, increments, n_races, seed, counts):
        final = chunk[-1]
    counts.flags.writeable = False
    _drawn = (key, counts)
    return WealthTrajectory(n_races, seed, float(final), probs, increments, counts)


def estimate_ubeta(
    market: RaceMarket | SideInfoMarket, b: _Bet, beta: float, n_samples: int, seed: int
) -> float:
    """Monte Carlo estimate of ``(1/beta) log2 E[S^beta]`` from seeded samples of
    the bet's outcomes: the mean log2 payoff at ``beta = 0``, and the largest or
    smallest log2 payoff drawn at ``beta = +-inf``.

    The sample mean of ``S^beta`` is taken from exact per-outcome counts, so
    memory is O(chunk + outcomes) and the value does not depend on the chunk size.
    It reuses the counts of the latest stream drawn (by :func:`simulate_growth`
    or an estimate) when its outcome PMF, ``n`` and seed match: same value, bit for bit.
    """
    global _drawn
    beta = _check_beta(beta)
    probs, payoffs = _outcomes(market, b)
    key = _stream_key(probs, n_samples, seed, "sample")
    latest, counts = _drawn
    if latest != key:
        counts = np.zeros(probs.size, dtype=np.int64)
        for outcomes in _winner_chunks(probs, n_samples, seed):
            counts += np.bincount(outcomes, minlength=probs.size)
        counts.flags.writeable = False
        _drawn = (key, counts)
    drawn = counts > 0
    # outcomes never drawn are left out: a zero payoff would give -inf + inf
    # for beta < 0, while one that was drawn is a +inf term, so the estimate is -inf
    return _log2_power_mean(counts[drawn] / n_samples, payoffs[drawn], beta)
