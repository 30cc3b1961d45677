import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from powerbet import (
    Allocation,
    BetaOutOfRangeError,
    ConditionalAllocation,
    GridSpec,
    GridTooLargeError,
    LengthMismatchError,
    NotEvaluableError,
    PartialAllocation,
    dispatch,
    estimate_ubeta,
    grid_search_full,
    grid_search_partial,
    kelly,
    kkt_residual,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    simulate_growth,
    track_constant,
    utility_full,
    utility_partial,
    utility_side_info,
)
from powerbet import divergence, oracle, strategy
from powerbet.utility import _log2_power_mean

from helpers import (
    EDGE_BETAS,
    compositions,
    random_market,
    random_subfair_market,
    reference_final,
    reference_grid_argmax,
    reference_grid_values,
    reference_log_wealth,
    reference_ubeta,
    reference_winners,
)

MARKET_B = new_race([0.6, 0.4], [2, 2])
SUBFAIR = new_race([0.9, 0.1], [1.5, 1.5])
# At beta = 3 the utility is convex in the bets, so the optimum sits on the
# vertices, and these four tie bit for bit; the first in lexicographic order
# backs the last horse.
TIED_VERTICES = new_race([0.25] * 4, [4.0] * 4)
# one beta or more in every regime of the power mean: the limits, the far form of
# the tilted mean on either side of 0 and of 1, its near form and Kelly
GRID_REGIME_BETAS = (
    -math.inf, -5.0, -0.5, 0.0, -(2.0**-11), 2.0**-11, 0.5, 1.0 - 1e-6, 1.0, 3.0, math.inf
)
# and the edges of the near and far forms, of the beta range and of the normal doubles
EDGE_GRID_BETAS = (-1e-4, 1e-4, -(1 + 1e-4) * 2.0**-10, (1 + 1e-4) * 2.0**-10, -1e6, 1e6)
EDGE_GRID_BETAS += (-5e-324, 5e-324, 1e-310, 1e-301)
# every regime of a Monte Carlo estimate: the limits, the far form either side of 0, Kelly
SHARED_BETAS = (-math.inf, -2.0, -0.5, 0.0, 0.5, 3.0, math.inf)
EPS = np.finfo(float).eps


class TestGridSpec:
    def test_point_count(self):
        assert GridSpec(4, 2).n_points == 5
        assert GridSpec(4, 3).n_points == 15
        assert GridSpec(np.int64(4), np.int32(3)).n_points == 15

    def test_enumeration_is_lexicographic_and_complete(self, monkeypatch):
        points = list(compositions(4, 3))
        assert len(points) == 15
        assert points == sorted(points)
        assert all(sum(p) == 4 for p in points)
        shapes = [(4, 1), (9, 1), (5, 2), (4, 3), (7, 4), (3, 6), (6, 5), (2, 9), (12, 3)]
        for cells in (oracle._BLOCK_CELLS, 1, 7, 16):
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
            for k, d in shapes:
                blocks = list(oracle._grid_blocks(GridSpec(k, d)))
                assert all(b.dtype == np.intp for b in blocks)
                assert all(b.shape[0] <= max(1, cells // d) for b in blocks)
                assert all(b.flags.f_contiguous for b in blocks)  # one column per coordinate
                np.testing.assert_array_equal(np.concatenate(blocks), list(compositions(k, d)))
                # table indices: coordinate j shifted by j (k + 1)
                offsets = np.arange(d) * (k + 1)
                blocks = list(oracle._grid_blocks(GridSpec(k, d), offsets))
                assert all(b.dtype == np.intp and b.flags.f_contiguous for b in blocks)
                assert all(b.shape[0] <= max(1, cells // d) for b in blocks)
                points = np.concatenate(blocks) - offsets
                np.testing.assert_array_equal(points, list(compositions(k, d)))

    def test_blocks_stay_within_the_cell_budget(self):
        # a (2, 600) grid used to come in blocks of 65,536 x 600 cells
        for grid in (GridSpec(2, 600), GridSpec(200, 4)):
            rows = 0
            for block in oracle._grid_blocks(grid):
                assert block.shape[1] == grid.dimension
                assert block.size <= 1 << 18
                rows += block.shape[0]
            assert rows == grid.n_points

    def test_rejects_tiny_resolution(self):
        with pytest.raises(GridTooLargeError):
            GridSpec(1, 2)
        with pytest.raises(GridTooLargeError, match="grid dimension must be >= 1, got 0"):
            GridSpec(4, 0)

    def test_rejects_non_integer_sizes(self):
        for size in [(2.5, 3), (4, 3.0), ("4", 3), (True, 3), (4, True), (None, 2)]:
            with pytest.raises(GridTooLargeError, match="must be an integer"):
                GridSpec(*size)

    def test_guard_against_huge_grids(self):
        market = new_race([0.2] * 5, [5] * 5)
        with pytest.raises(GridTooLargeError):
            grid_search_full(market, 0.5, GridSpec(400, 5))
        # the dimension comes first: one per horse, and one more for the cash
        for search, d, want in ((grid_search_full, 6, 5), (grid_search_partial, 5, 6)):
            match = f"grid dimension {d} does not match the required {want}"
            with pytest.raises(LengthMismatchError, match=match):
                search(market, 0.5, GridSpec(400, d))


class TestGridSearchFull:
    def test_agrees_with_closed_form(self):
        g = optimal_full(MARKET_B, 0.5)
        best, value = grid_search_full(MARKET_B, 0.5, GridSpec(400, 2))
        assert utility_full(MARKET_B, g, 0.5) >= value - 1e-12
        assert np.max(np.abs(best.bets - g.bets)) <= 2 / 400

    def test_expected_return_lands_on_a_vertex(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            market = random_market(rng, 3)
            best, _ = grid_search_full(market, 1.0, GridSpec(100, 3))
            assert np.max(best.bets) == 1.0

    def test_single_horse(self):
        market = new_race([1.0], [3.0])
        best, value = grid_search_full(market, 0.5, GridSpec(10, 1))
        np.testing.assert_array_equal(best.bets, [1.0])
        assert value == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_negative_beta_skips_boundary(self):
        best, value = grid_search_full(MARKET_B, -1.0, GridSpec(50, 2))
        assert np.all(best.bets > 0.0)
        assert math.isfinite(value)


def _full_payoffs(market):
    return lambda pts: pts * market.odds


def _partial_payoffs(market):
    return lambda pts: pts[:, :1] + pts[:, 1:] * market.odds


def _scan_blocks(market, beta, grid):
    """Every grid point and its value as the scan computes it, in lexicographic order, from
    the pieces it passes: the bets, the odds and, with a coordinate more, the cash first."""
    for block in oracle._grid_blocks(grid):
        pts = block / grid.resolution
        bets, cash = (pts[:, 1:], pts[:, :1]) if grid.dimension > market.m else (pts, None)
        yield block, _log2_power_mean(market.probs, bets, market.odds, cash, beta)


def _scan_values(market, beta, grid):
    return np.concatenate([values for _, values in _scan_blocks(market, beta, grid)])


def _first_argmax(market, beta, grid):
    """The point of ``np.argmax(_scan_values(market, beta, grid))``, streamed, over k."""
    best, top = None, -math.inf
    for block, values in _scan_blocks(market, beta, grid):
        i = int(np.argmax(values))
        if best is None or values[i] > top:
            best, top = block[i], values[i]
    return best / grid.resolution


def _hard_races(rng, m):
    """A random race, a tied one, one with probabilities of 1e-300 and one with odds of
    1e+-200."""
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    probs /= probs.sum()
    tiny = probs.copy()
    tiny[rng.choice(m, 2, replace=False)] = (1e-300, 3e-300)
    tiny[np.argmax(tiny)] += 1.0 - tiny.sum()
    odds = rng.uniform(1.2, 8.0, m)
    wide = odds.copy()
    wide[rng.choice(m, 2, replace=False)] = (1e200, 1e-200)
    return [new_race(probs, odds), _tied_race(m), new_race(tiny, odds), new_race(probs, wide)]


def _tied_race(m):
    """m horses of equal probability and odds m: grid points tie at every beta."""
    return new_race(np.full(m, 1.0 / m), np.full(m, float(m)))


def _reference_values(market, beta, grid, payoffs):
    return np.concatenate(
        [values for _, values in reference_grid_values(market.probs, beta, grid, payoffs)]
    )


class TestGridScan:
    def test_matches_the_reference_scan_bit_for_bit(self):
        # Below 8 terms numpy sums a point's coordinates in order whatever the
        # block layout, so up to dimension 7 every value matches exactly.
        rng = np.random.default_rng(31)
        for m in range(1, 8):
            for beta in (-2.0, -0.5, 0.5, 0.9, 1.0, 3.0):
                for k in (7, 30, 60) if m <= 3 else (5, 9):
                    market = random_market(rng, m)
                    grid, payoffs = GridSpec(k, m), _full_payoffs(market)
                    best, _ = grid_search_full(market, beta, grid)
                    want = reference_grid_argmax(market.probs, beta, grid, payoffs)
                    np.testing.assert_array_equal(best.bets, Allocation(want).bets)
                    want = _reference_values(market, beta, grid, payoffs)
                    assert _scan_values(market, beta, grid).tobytes() == want.tobytes()
                    if m > 6:
                        continue
                    grid, payoffs = GridSpec(k, m + 1), _partial_payoffs(market)
                    best, _ = grid_search_partial(market, beta, grid)
                    want = reference_grid_argmax(market.probs, beta, grid, payoffs)
                    want = PartialAllocation(want[0], want[1:])
                    assert best.cash == want.cash
                    np.testing.assert_array_equal(best.bets, want.bets)
                    want = _reference_values(market, beta, grid, payoffs)
                    assert _scan_values(market, beta, grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,partial,k", [(8, False, 9), (8, True, 8), (12, False, 6)])
    def test_high_dimensions_match_the_reference_to_rounding(self, m, partial, k):
        # From 8 coordinates on, numpy sums a contiguous row pairwise but whole
        # columns in order, so values may differ in the last bits.
        rng = np.random.default_rng(33)
        for beta in (-2.0, -0.5, 0.5, 3.0):
            market = random_market(rng, m)
            grid = GridSpec(k, m + partial)
            payoffs = (_partial_payoffs if partial else _full_payoffs)(market)
            search = grid_search_partial if partial else grid_search_full
            best, _ = search(market, beta, grid)
            want = reference_grid_argmax(market.probs, beta, grid, payoffs)
            got_point = np.concatenate([[best.cash], best.bets]) if partial else best.bets
            np.testing.assert_array_equal(got_point, want)
            got = _scan_values(market, beta, grid)
            want = _reference_values(market, beta, grid, payoffs)
            same = got == want  # equal infinities included
            with np.errstate(invalid="ignore"):
                err = np.where(same, 0.0, np.abs(got - want))
            assert np.all(err <= 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("d,k", [(1, 9), (2, 40), (3, 25), (4, 12), (8, 4), (12, 3)])
    def test_point_is_the_first_argmax_of_the_per_cell_values(self, d, k):
        # _scan_values reads each cell's payoffs on its own, as the scan did before
        # it read a table of one entry per coordinate value: at every beta regime the
        # point found is the first point of the largest per-cell value, bit for bit
        rng = np.random.default_rng(34 + d)
        grid = GridSpec(k, d)
        points = np.concatenate(list(oracle._grid_blocks(grid))) / k
        for beta in GRID_REGIME_BETAS:
            for tied in (False, True):
                market = _tied_race(d) if tied else random_market(rng, d)
                best, _ = grid_search_full(market, beta, grid)
                want = points[np.argmax(_scan_values(market, beta, grid))]
                np.testing.assert_array_equal(best.bets, Allocation(want).bets)
                if d == 1:
                    continue
                market = _tied_race(d - 1) if tied else random_market(rng, d - 1)
                best, _ = grid_search_partial(market, beta, grid)
                want = points[np.argmax(_scan_values(market, beta, grid))]
                assert best.cash == want[0]
                np.testing.assert_array_equal(best.bets, PartialAllocation(want[0], want[1:]).bets)

    @pytest.mark.parametrize(
        "d,k,cells,partial",
        [(3, 200, None, False), (4, 60, None, False), (5, 20, None, False), (6, 8, 64, False)]
        + [(8, 4, 64, False), (3, 40, 64, False), (3, 200, None, True), (4, 60, None, True)]
        + [(5, 20, None, True), (3, 40, 64, True), (4, 12, 64, True), (6, 8, 64, True)],
    )
    def test_pruned_scan_finds_the_first_argmax_of_every_point(
        self, d, k, cells, partial, monkeypatch
    ):
        # From 3 coordinates on, full or partial, only the heads whose bound may reach the
        # maximum are scanned; blocks of 64 cells send small grids that way too.  The point
        # is still the first one of the largest per-cell value, bit for bit, in every regime.
        rng = np.random.default_rng(40 + d + 10 * partial)
        grid = GridSpec(k, d)
        for market in _hard_races(rng, d - partial):
            for beta in GRID_REGIME_BETAS + EDGE_GRID_BETAS:
                want = _first_argmax(market, beta, grid)
                monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells or oracle._BLOCK_CELLS)
                if partial:
                    best, _ = grid_search_partial(market, beta, grid)
                    sol = PartialAllocation(want[0], want[1:])
                    got, want = np.append(best.cash, best.bets), np.append(sol.cash, sol.bets)
                else:
                    got, want = grid_search_full(market, beta, grid)[0].bets, Allocation(want).bets
                monkeypatch.undo()
                np.testing.assert_array_equal(got, want)

    def test_pair_tails_are_the_best_of_every_split(self, monkeypatch):
        # Each tail the pruned scans take, from the splits about the pair's optimum or at its
        # ends, is bit for bit the largest mean over every split wherever its row is not
        # flagged, at no cash (full grids) and at each head's own (partial ones), in every beta
        # regime; where the four splits do not settle it, as on the race with odds of 1e+-200,
        # the row is flagged, and its tail is still the mean of one of its splits.
        calls, pair_tails, read = [], oracle._pair_tails, oracle._power_mean_read

        def recording(*args):
            calls.append((market, args, *pair_tails(*args)))
            return calls[-1][2:]

        monkeypatch.setattr(oracle, "_pair_tails", recording)
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", 64)
        rng = np.random.default_rng(47)
        races = _hard_races(rng, 2) + _hard_races(rng, 3) + [random_market(rng, 3)]
        for market in races:
            for beta in GRID_REGIME_BETAS + EDGE_GRID_BETAS:
                if market.m == 3:
                    grid_search_full(market, beta, GridSpec(40, 3))
                grid_search_partial(market, beta, GridSpec(30, market.m + 1))
        assert len(calls) > 1000
        flagged = []
        for market, (probs, odds, beta, k, room, cash, _), tail, unsure in calls:
            pair = probs[-2:] / (probs[-2] + probs[-1])
            scale = 1.0  # scaled as a read: the far form's terms, else nats
            if not math.isinf(beta):
                scale = math.log(2.0) * (beta if abs(beta) > 2.0**-10 else 1.0)
            for r, c, got, flag in zip(room, cash, tail, unsure):
                bets = np.column_stack((np.arange(r + 1), r - np.arange(r + 1))) / k
                reads = read(probs[-2:], bets, odds[-2:], c / k, beta)
                means = _log2_power_mean(pair, None, None, None, beta, reads)
                if flag:
                    flagged.append(market)
                    assert np.any(np.float64(got) == means * scale)
                else:
                    want = np.float64(means.max() * scale)
                    assert np.float64(got).tobytes() == want.tobytes()
        wide = [m for m in races if m.odds.max() == 1e200]
        assert any(any(m is w for m in flagged) for w in wide)

    @pytest.mark.parametrize("beta", [-5.0, -0.5])
    def test_pair_tails_settle_every_room_at_odds_of_1e200(self, beta, monkeypatch):
        # The pair's optimum is solved in logs, so 1 - sigma does not cancel to 0 at odds
        # of 1e+-200: the four splits about it settle every room of a full (2000, 3) grid,
        # and the point found is the whole scan's.
        market, grid = new_race([0.3, 0.3, 0.4], [2.0, 1e200, 1e-200]), GridSpec(2000, 3)
        flags, pair_tails = [], oracle._pair_tails

        def recording(*args):
            tail, unsure = pair_tails(*args)
            flags.append(unsure)
            return tail, unsure

        monkeypatch.setattr(oracle, "_pair_tails", recording)
        best, _ = grid_search_full(market, beta, grid)
        assert [f.size for f in flags] == [2001] and not flags[0].any()
        monkeypatch.setattr(oracle, "_pruned_blocks", lambda *args: None)
        np.testing.assert_array_equal(best.bets, grid_search_full(market, beta, grid)[0].bets)

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("tied", [False, True])
    def test_a_pruned_search_reads_at_most_a_whole_scan_and_its_bounds(
        self, partial, tied, monkeypatch
    ):
        # Rows whose four splits do not settle their tail, on a tied race at beta = 1 and on
        # odds of 1e+-200 at beta = -5 with cash, keep their heads for the scan instead of a
        # search over every split: the payoff cells read are at most a whole scan's (its table
        # too), plus the heads' own reads and the read corners, plus four splits of two horses
        # per row bounded.  The point found is the whole scan's.
        market = _tied_race(3) if tied else new_race([0.3, 0.3, 0.4], [2.0, 1e200, 1e-200])
        beta, m = 1.0 if tied else -5.0, market.m
        grid = GridSpec(60, m + 1) if partial else GridSpec(200, m)
        assert grid.n_points > 2 * oracle._BLOCK_CELLS // grid.dimension  # pruned
        cells, read = [0], oracle._power_mean_read

        def counting(*args):
            out = read(*args)
            cells[0] += out.size
            return out

        monkeypatch.setattr(oracle, "_power_mean_read", counting)
        monkeypatch.setattr(divergence, "_power_mean_read", counting)
        pruned = oracle._grid_argmax(market, beta, grid, cash=partial)
        pruned_cells, cells[0] = cells[0], 0
        monkeypatch.setattr(oracle, "_pruned_blocks", lambda *args: None)
        whole = oracle._grid_argmax(market, beta, grid, cash=partial)
        heads = GridSpec(grid.resolution, grid.dimension - 1).n_points
        rows = heads if partial else grid.resolution + 1
        head_reads = 4 * m + heads * (m - 2) if partial else 0  # the corners, each head's bets
        assert pruned_cells <= cells[0] + head_reads + 8 * rows
        np.testing.assert_array_equal(pruned, whole)

    @pytest.mark.parametrize("beta", [0.5, -1.0, 1e-4, -1e-4])
    def test_pruned_scan_of_the_check_grid(self, beta, monkeypatch):
        # optimize --check's default (200, 4) grid: of its 1.37M points in 20,301 heads,
        # a few heads' points are scanned
        market = random_market(np.random.default_rng(44), 4)
        scanned, pruned = [], oracle._pruned_blocks
        monkeypatch.setattr(
            oracle, "_pruned_blocks", lambda *a: (scanned.append(len(b)) or b for b in pruned(*a))
        )
        best, _ = grid_search_full(market, beta, GridSpec(200, 4))
        assert 0 < sum(scanned) < 1000
        want = _first_argmax(market, beta, GridSpec(200, 4))
        np.testing.assert_array_equal(best.bets, Allocation(want).bets)

    @pytest.mark.parametrize("beta", [0.5, -1.0, 1e-4, -1e-4])
    def test_pruned_scan_of_the_partial_check_grid(self, beta, monkeypatch):
        # optimize --mode partial --check's default (200, 4) grid of three horses: of its
        # 1.37M points in 20,301 heads (the cash, then the first bet), a few heads' points
        # are scanned, on a subfair race whose optimum holds cash and on a random one
        rng, pruned = np.random.default_rng(46), oracle._pruned_blocks
        for market in (random_subfair_market(rng, 3), random_market(rng, 3)):
            scanned = []
            patched = lambda *a: (scanned.append(len(b)) or b for b in pruned(*a))
            monkeypatch.setattr(oracle, "_pruned_blocks", patched)
            best, _ = grid_search_partial(market, beta, GridSpec(200, 4))
            monkeypatch.undo()
            assert 0 < sum(scanned) < 1000
            want = _first_argmax(market, beta, GridSpec(200, 4))
            assert best.cash == want[0]
            np.testing.assert_array_equal(best.bets, PartialAllocation(want[0], want[1:]).bets)

    def test_pruned_scan_streams_its_heads(self):
        # the tails, the heads' bounds and the scanned heads come in blocks too: 8,008
        # heads of 12 horses, the grid next to the guard, ties at -inf that keep 24 heads
        # of 3,472 points, and a partial grid next to the guard, whose 72,771 heads each
        # take their own tail at their own cash
        market = new_race([0.1, 0.2, 0.3, 0.4], [3.0, 6.0, 2.5, 4.0])
        three = new_race([0.2, 0.3, 0.5], [4.0, 3.5, 2.5])
        wide = random_market(np.random.default_rng(45), 12)
        scans = ((wide, 0.5, GridSpec(6, 12)), (market, 1e-4, GridSpec(385, 4)))
        scans += ((market, -math.inf, GridSpec(200, 4)), (three, 1e-4, GridSpec(380, 4)))
        for race, beta, grid in scans:
            search = grid_search_full if grid.dimension == race.m else grid_search_partial
            tracemalloc.start()
            try:
                search(race, beta, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_memory_holds_no_extra_block_copies(self):
        # a block of 2^14 cells is 128 KB per float temporary, whatever the grid;
        # 2 coordinates read each value once and build no table, which at 10^6
        # points would hold 16 MB
        market = new_race([0.1, 0.2, 0.3, 0.4], [3.0, 6.0, 2.5, 4.0])
        pair = new_race([0.6, 0.4], [2.5, 2.0])
        scans = (
            (grid_search_full, market, GridSpec(200, 4)),
            (grid_search_partial, market, GridSpec(60, 5)),
            (grid_search_full, pair, GridSpec(10**6, 2)),
        )
        for search, race, grid in scans:
            tracemalloc.start()
            try:
                search(race, 0.5, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_ties_go_to_the_first_lexicographic_point(self, monkeypatch):
        for cells in (oracle._BLOCK_CELLS, 5):
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
            best, value = grid_search_full(TIED_VERTICES, 3.0, GridSpec(10, 4))
            np.testing.assert_array_equal(best.bets, [0.0, 0.0, 0.0, 1.0])
            assert value == pytest.approx(2.0 - 2.0 / 3.0, abs=1e-12)
            best, _ = grid_search_partial(TIED_VERTICES, 3.0, GridSpec(10, 5))
            assert best.cash == 0.0
            np.testing.assert_array_equal(best.bets, [0.0, 0.0, 0.0, 1.0])

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases = [(random_market(rng, 3), beta) for beta in (-0.5, 0.5, 1.0)]
        cases.append((TIED_VERTICES, 1.0))

        def run():
            out = []
            for market, beta in cases:
                full, _ = grid_search_full(market, beta, GridSpec(12, market.m))
                part, _ = grid_search_partial(market, beta, GridSpec(10, market.m + 1))
                out.append((full.bets, part.cash, part.bets))
            return out

        default = run()
        for cells in (5, 13):
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
            for got, want in zip(run(), default):
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1] == want[1]
                np.testing.assert_array_equal(got[2], want[2])


class TestGridAtTheLimits:
    # r = (1/2, 1/4, 1/4) is a grid point and c = 1
    MARKET = new_race([0.5, 0.3, 0.2], [2.0, 4.0, 4.0])

    def test_best_case_is_the_longest_odds(self):
        alloc, value = grid_search_full(self.MARKET, math.inf, GridSpec(4, 3))
        assert value == math.log2(4.0)
        assert value == utility_full(self.MARKET, dispatch(self.MARKET, math.inf), math.inf)
        np.testing.assert_array_equal(alloc.bets, [0.0, 0.0, 1.0])  # first of the tied vertices

    def test_worst_case_is_the_track_constant(self):
        alloc, value = grid_search_full(self.MARKET, -math.inf, GridSpec(4, 3))
        assert value == math.log2(track_constant(self.MARKET)) == 0.0
        np.testing.assert_array_equal(alloc.bets, dispatch(self.MARKET, -math.inf).bets)

    def test_partial_worst_case_keeps_everything_in_cash_on_subfair_odds(self):
        alloc, value = grid_search_partial(SUBFAIR, -math.inf, GridSpec(8, 3))
        assert (alloc.cash, value) == (1.0, 0.0)


class TestGridSearchPartial:
    def test_matches_partial_optimum(self):
        sol = optimal_partial(SUBFAIR, 0.5)
        best, value = grid_search_partial(SUBFAIR, 0.5, GridSpec(400, 3))
        assert abs(best.cash - sol.allocation.cash) <= 1 / 400 + 1e-12
        assert sol.utility >= value

    def test_superfair_grid_keeps_no_cash(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        k = 60
        best, _ = grid_search_partial(market, 0.5, GridSpec(k, 4))
        assert best.cash <= 1 / k + 1e-12

    def test_hopeless_market_goes_all_cash(self):
        market = new_race([0.5, 0.5], [1, 1])
        best, value = grid_search_partial(market, 0.5, GridSpec(100, 3))
        assert best.cash == 1.0
        assert value == pytest.approx(0.0, abs=1e-14)


class TestKktResidual:
    def test_certifies_the_closed_form(self):
        sol = optimal_partial(SUBFAIR, 0.5)
        report = kkt_residual(SUBFAIR, 0.5, sol.allocation, gamma_cap=sol.gamma_cap)
        assert report.mu == pytest.approx(0.3 * (6 / 83) ** -0.5, rel=1e-12)
        for gap in (
            report.stationarity_gap,
            report.feasibility_gap,
            report.cash_stationarity_gap,
            report.cash_feasibility_gap,
            report.mu_gamma_gap,
        ):
            assert gap < 1e-8

    def test_perturbed_solution_fails(self):
        sol = optimal_partial(SUBFAIR, 0.5)
        shifted = PartialAllocation(
            sol.allocation.cash + 0.05, sol.allocation.bets * (1 - 0.05 / (1 - sol.allocation.cash))
        )
        report = kkt_residual(SUBFAIR, 0.5, shifted)
        assert report.stationarity_gap > 1e-3

    def test_all_cash_satisfies_the_inequalities(self):
        market = new_race([0.5, 0.5], [1, 1])
        report = kkt_residual(market, 0.5, PartialAllocation(1.0, [0.0, 0.0]))
        assert report.feasibility_gap == 0.0
        assert report.cash_feasibility_gap == 0.0

    def test_zero_cash_with_an_unbacked_horse_has_infinite_gaps(self):
        # the unbacked horse pays 0, so its marginal value 0^(beta-1) is +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = kkt_residual(SUBFAIR, 0.5, PartialAllocation(0.0, [1.0, 0.0]))
        assert report.mu == pytest.approx(0.9 * 1.5**0.5, rel=1e-15)  # p o s^(beta-1)
        assert report.feasibility_gap == math.inf
        assert report.cash_feasibility_gap == math.inf
        assert report.stationarity_gap == 0.0

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
    def test_certifies_a_race_whose_unbacked_mass_is_tiny(self, beta):
        # 1 - sum p over the support cancels to 0 here; the unbacked mass is 1e-20
        market = new_race([1 - 1e-20, 1e-20], [1.5, 1.5])
        sol = optimal_partial(market, beta)
        assert sol.support == (0,)
        assert sol.gamma_cap == pytest.approx(3e-20, rel=1e-15)
        report = kkt_residual(market, beta, sol.allocation, gamma_cap=sol.gamma_cap)
        for name, gap in vars(report).items():
            assert name == "mu" or gap < 1e-8

    def test_certifies_or_reports_infinite_gaps_close_to_one(self):
        rng = np.random.default_rng(32)
        for beta in EDGE_BETAS:
            for _ in range(100):
                market = random_subfair_market(rng, int(rng.integers(2, 12)))
                sol = optimal_partial(market, beta)
                report = kkt_residual(market, beta, sol.allocation, gamma_cap=sol.gamma_cap)
                gaps = [gap for name, gap in vars(report).items() if name != "mu" and gap is not None]
                assert not np.isnan([report.mu, *gaps]).any()
                if sol.allocation.cash >= np.finfo(float).tiny:
                    assert max(gaps) < 1e-8
                elif sol.allocation.cash == 0.0:
                    assert report.feasibility_gap == report.cash_feasibility_gap == math.inf

    def test_held_cash_has_no_stationarity_gap(self):
        # mu is read off the cash equality, so the gap is 0.0 by construction,
        # also here, where the cash's marginal value overflows
        market = new_race([0.5, 0.3, 0.2], [1.6, 2.9, 4.5])
        report = kkt_residual(market, -1e6, PartialAllocation(0.5, [0.2, 0.2, 0.1]))
        assert report.cash_stationarity_gap == 0.0

    def test_marginals_overflowing_with_mu_give_infinite_gaps_without_warnings(self):
        # payoffs below 1 overflow s^(beta - 1) at beta = -1e6, and mu with them
        market = new_race([0.5, 0.3, 0.2], [1.6, 2.9, 4.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = kkt_residual(market, -1e6, PartialAllocation(0.5, [0.2, 0.2, 0.1]), 1.0)
            unbacked = kkt_residual(market, -1e6, PartialAllocation(0.5, [0.3, 0.2, 0.0]))
            no_cash = kkt_residual(market, -1e6, PartialAllocation(0.0, [0.5, 0.5, 0.0]))
        assert held.mu == math.inf
        assert held.stationarity_gap == math.inf
        assert held.feasibility_gap == held.cash_feasibility_gap == 0.0
        assert held.mu_gamma_gap == math.inf
        assert unbacked.stationarity_gap == unbacked.feasibility_gap == math.inf
        assert no_cash.feasibility_gap == no_cash.cash_feasibility_gap == math.inf
        for report in (held, unbacked, no_cash):
            assert not any(isinstance(v, float) and math.isnan(v) for v in vars(report).values())

    def test_certifies_kelly_with_cash(self):
        # at beta = 0 the multiplier is sum p_i / s_i, which is 1 at the optimum
        rng = np.random.default_rng(31)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(2, 12)), odds_lo=1.05, odds_hi=6.0)
            sol = optimal_partial(market, 0.0)
            report = kkt_residual(market, 0.0, sol.allocation, gamma_cap=sol.gamma_cap)
            assert report.mu == pytest.approx(1.0, rel=1e-12)
            for name, gap in vars(report).items():
                assert name == "mu" or gap is None or gap < 1e-8


def _gap(market, beta, fractions, cash=None):
    """``oracle._certify``'s certificate gap of these doubles, as a full allocation, a
    partial one holding ``cash`` or a conditional table, with no record of logs."""
    if cash is not None:
        alloc = strategy._trusted(PartialAllocation, cash=cash, bets=np.array(fractions))
    elif np.ndim(fractions) == 2:
        alloc = strategy._trusted(ConditionalAllocation, table=np.array(fractions))
    else:
        alloc = strategy._trusted(Allocation, bets=np.array(fractions))
    kind, gap, tol, bound = oracle._certify(market, beta, alloc)
    assert kind == "certificate" and tol == oracle._GAP_TOL * max(1.0, 1.0 - beta) and bound is None
    return gap


class TestCertificate:
    """``oracle._certify``'s Frank-Wolfe gap in nats, against its closed form at Kelly,
    where ``g_j = E[dS/db_j / S]``: ``max_j p_j / b_j - 1`` for full bets, and
    ``sum_y max_x p(y, x) / b(x|y) - 1`` for a conditional table."""

    def test_full_kelly_gap_is_the_largest_ratio(self):
        market = new_race([0.6, 0.4], [2.0, 2.0])
        assert _gap(market, 0.0, [0.5, 0.5]) == pytest.approx(0.2, rel=1e-14)
        assert _gap(market, 0.0, market.probs) == 0.0

    @pytest.mark.parametrize(
        "market,cash,bets,gap",
        [
            # payoffs 0.5 + 0.25 * (2, 2) = (1, 1): the cash's marginal value E[1/S]
            # is 1, the bets' p o / S are 1.2 and 0.8
            (new_race([0.6, 0.4], [2.0, 2.0]), 0.5, [0.25, 0.25], 0.2),
            # payoffs 0.1 + (0.9, 0) * 1.5 = (1.45, 0.1): E[1/S] = 0.9/1.45 + 1 beats
            # the bets' 1.35/1.45 and 1.5, so the cash sets the gap
            (new_race([0.9, 0.1], [1.5, 1.5]), 0.1, [0.9, 0.0], 0.9 / 1.45),
        ],
    )
    def test_partial_kelly_gap_counts_the_cash(self, market, cash, bets, gap):
        assert _gap(market, 0.0, bets, cash) == pytest.approx(gap, rel=1e-14)

    def test_side_info_kelly_gap_sums_over_signals(self):
        market = new_side_info([[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]], [2.0, 3.0, 4.0])
        gap = _gap(market, 0.0, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        assert gap == pytest.approx(0.6 + 0.8 - 1.0, rel=1e-14)

    @pytest.mark.parametrize("beta", [-1e6, -5.0, 0.0, 0.5, 1 - 1e-9])
    def test_a_possible_outcome_paying_zero_gives_inf(self, beta):
        market = new_race([0.5, 0.3, 0.2], [1.8, 3.5, 4.2])
        assert _gap(market, beta, [0.6, 0.4, 0.0]) == math.inf
        # with cash held the horse pays the cash: a finite gap
        assert 0.0 < _gap(market, beta, [0.3, 0.2, 0.0], cash=0.5) < math.inf

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 0.5, 0.999])
    def test_a_common_shift_of_one_simplex_changes_nothing(self, beta):
        # the gap is of the point the doubles normalize to, whatever their sum
        market, fractions = new_race([0.5, 0.3, 0.2], [1.8, 3.5, 4.2]), np.array([0.5, 0.3, 0.2])
        gap = _gap(market, beta, fractions)
        assert _gap(market, beta, fractions * math.exp(-3.0)) == pytest.approx(gap, rel=1e-12)

    def test_optimum_from_its_logs(self):
        market = new_race([0.5, 0.3, 0.2], [1.8, 3.5, 4.2])
        for beta in (-1e6, -5.0, 0.0, 0.5, 0.99, 1 - 1e-9):
            kind, gap, tol, _ = oracle._certify(market, beta, optimal_full(market, beta))
            assert 0.0 <= gap <= tol


class TestCertifyBounds:
    """``oracle._certify`` at ``+-inf`` and ``beta >= 1``: the distance in bits of an
    allocation's utility from the exact optimal value, the payoff bound or a vertex's."""

    MARKET = new_race([0.5, 0.3, 0.2], [1.8, 3.5, 4.2])

    @pytest.mark.parametrize("market", [MARKET, new_race([0.5, 0.3, 0.2], [1.5, 2.5, 3.0])])
    @pytest.mark.parametrize("beta", [math.inf, -math.inf])
    def test_the_limits_take_the_payoff_bound(self, market, beta):
        best = dispatch(market, beta)
        bound = math.log2(market.odds.max() if beta > 0 else track_constant(market))
        kind, gap, tol, got = oracle._certify(market, beta, best)
        assert (kind, got, tol) == ("limit_bound", bound, 1e-12)
        assert gap == abs(utility_full(market, best, beta) - bound) <= tol
        # the bet moved one horse on misses the bound
        moved = strategy._trusted(Allocation, bets=np.roll(best.bets, 1))
        assert oracle._certify(market, beta, moved)[1] > tol

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_beta_from_one_takes_the_vertex_bound(self, beta):
        market, best = self.MARKET, dispatch(self.MARKET, beta)
        bound = max(math.log2(o) + math.log2(p) / beta for p, o in zip(market.probs, market.odds))
        kind, gap, tol, got = oracle._certify(market, beta, best)
        assert (kind, tol) == ("vertex_bound", 1e-9) and got == pytest.approx(bound, abs=1e-15)
        assert gap == got - utility_full(market, best, beta) and abs(gap) <= tol
        moved = strategy._trusted(Allocation, bets=np.roll(best.bets, 1))
        assert oracle._certify(market, beta, moved)[1] > tol


# three tied backed horses: at beta = 0.99848 the optimum's cash is a subnormal double
TIED_CASH = new_race([0.3, 0.3, 0.3, 0.1], [4.0, 4.0, 4.0, 1.05])


def _recorded(alloc, **record):
    """``alloc``'s doubles, with the log record ``_logs`` if given, else none."""
    return strategy._trusted(PartialAllocation, cash=alloc.cash, bets=alloc.bets, **record)


class TestCertify:
    """``oracle._certify``, the one reader of an allocation's logs: its doubles', but
    below the smallest normal double its optimizer's record, which must round to them."""

    def test_an_agreeing_record_certifies_a_subnormal_cash(self):
        alloc = optimal_partial(TIED_CASH, 0.99848).allocation
        assert 0.0 < alloc.cash < np.finfo(float).tiny
        assert oracle._certify(TIED_CASH, 0.99848, alloc)[1] == 0.0
        # within a factor of 2 of the printed cash the record still agrees
        nearby = alloc._logs + [0.5, 0.0, 0.0, 0.0, 0.0]
        assert oracle._certify(TIED_CASH, 0.99848, _recorded(alloc, _logs=nearby))[1] == 0.0

    # the subnormal cash, and SUBFAIR's at beta = 0.999, which rounds to 0.0
    @pytest.mark.parametrize("market,beta", [(TIED_CASH, 0.99848), (SUBFAIR, 0.999)])
    def test_a_disagreeing_record_gives_inf(self, market, beta):
        alloc = optimal_partial(market, beta).allocation
        assert alloc.cash < np.finfo(float).tiny
        logs = alloc._logs.copy()
        logs[0] = -720.0  # a subnormal cash, 15 times the tied race's
        assert oracle._certify(market, beta, _recorded(alloc, _logs=logs))[1] == math.inf

    def test_without_a_record_the_doubles_are_read(self):
        alloc = optimal_partial(SUBFAIR, 0.999).allocation
        assert alloc.cash == 0.0 and oracle._certify(SUBFAIR, 0.999, alloc)[1] == 0.0
        # the cash read as 0.0 leaves the second horse paying 0
        assert oracle._certify(SUBFAIR, 0.999, _recorded(alloc))[1] == math.inf


class TestSimulateGrowth:
    def test_deterministic_for_fixed_seed(self):
        a = simulate_growth(MARKET_B, kelly(MARKET_B), 1000, seed=42)
        b = simulate_growth(MARKET_B, kelly(MARKET_B), 1000, seed=42)
        np.testing.assert_array_equal(a.log_wealth, b.log_wealth)

    def test_different_seeds_differ(self):
        a = simulate_growth(MARKET_B, kelly(MARKET_B), 1000, seed=1)
        b = simulate_growth(MARKET_B, kelly(MARKET_B), 1000, seed=2)
        assert not np.array_equal(a.log_wealth, b.log_wealth)

    def test_bookie_mix_earns_exactly_log_c(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        r = Allocation([4 / 7, 2 / 7, 1 / 7])
        traj = simulate_growth(market, r, 500, seed=3)
        increments = np.diff(traj.log_wealth, prepend=0.0)
        np.testing.assert_allclose(increments, math.log2(track_constant(market)), rtol=1e-12)

    def test_growth_rate_within_clt_band(self):
        rate = 0.6 * math.log2(1.2) + 0.4 * math.log2(0.8)
        traj = simulate_growth(MARKET_B, kelly(MARKET_B), 10**5, seed=4)
        increments = np.diff(traj.log_wealth, prepend=0.0)
        band = 3 * increments.std(ddof=1) / math.sqrt(traj.n_races)
        assert abs(traj.final_rate - rate) <= band

    def test_rejects_allocation_of_the_wrong_length(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        for bets in ([0.5, 0.5], [0.25] * 4):
            with pytest.raises(LengthMismatchError):
                simulate_growth(market, Allocation(bets), 100, seed=1)

    def test_ruin_is_permanent(self):
        traj = simulate_growth(MARKET_B, Allocation([1.0, 0.0]), 200, seed=5)
        hits = np.flatnonzero(np.isneginf(traj.log_wealth))
        assert hits.size > 0
        assert np.all(np.isneginf(traj.log_wealth[hits[0]:]))


class TestWealthTrajectory:
    def test_streamed_values_match_the_reference(self):
        block = oracle._block_races(MARKET_B.m)
        b = Allocation([0.7, 0.3])
        for n in (1, block - 1, block, 2 * block + 3):
            traj = simulate_growth(MARKET_B, b, n, seed=9)
            expected = reference_log_wealth(MARKET_B, b, n, 9)
            final = reference_final(MARKET_B, b, n, 9)
            assert np.float64(traj.final_log2_wealth).tobytes() == np.float64(final).tobytes()
            # the serial running sum ends within its rounding of the exact final
            assert abs(expected[-1] - final) <= n * EPS * np.max(np.abs(expected))
            rate = np.float64(final / n)
            assert np.float64(traj.final_rate).tobytes() == rate.tobytes()
            chunks = list(traj.chunks())
            assert max(c.size for c in chunks) <= block
            assert np.concatenate(chunks).tobytes() == expected.tobytes()
            assert traj.log_wealth.tobytes() == expected.tobytes()

    def test_log_wealth_is_built_once_on_first_read(self):
        traj = simulate_growth(MARKET_B, Allocation([0.7, 0.3]), 10**5, seed=9)
        assert "log_wealth" not in vars(traj)
        assert max(np.size(v) for v in vars(traj).values()) == MARKET_B.m  # O(outcomes)
        first = traj.log_wealth
        assert traj.log_wealth is first

    def test_equality_and_repr_leave_out_the_arrays(self):
        b = Allocation([0.7, 0.3])
        traj, again = (simulate_growth(MARKET_B, b, 100, seed=3) for _ in range(2))
        traj.log_wealth  # the cached array is left out too
        assert traj == again
        assert traj != simulate_growth(MARKET_B, b, 100, seed=4)
        final = traj.final_log2_wealth
        assert repr(traj) == f"WealthTrajectory(n_races=100, seed=3, final_log2_wealth={final!r})"


class TestFinalWealth:
    def test_is_the_exact_sum_rounded_once_per_term(self):
        cases = list(_streaming_cases()) + [(mk, b) for mk, b, _ in OUTCOME_CASES.values()]
        for i, (market, b) in enumerate(cases):
            probs, bets, odds, cash = strategy._outcomes(market, b)
            with np.errstate(divide="ignore"):  # a zero bet pays 0
                log2_payoffs = np.log2(bets * odds if cash is None else cash + bets * odds)
            for n in (1, 1000, 3 * oracle._block_races(probs.size) + 7):
                traj = simulate_growth(market, b, n, seed=60 + i)
                final, counts = traj.final_log2_wealth, traj.counts
                drawn = counts > 0
                if np.any(log2_payoffs[drawn] == -math.inf):
                    assert final == -math.inf
                    continue
                pairs = list(zip(counts[drawn].tolist(), log2_payoffs[drawn].tolist()))
                exact = sum(Fraction(c) * Fraction(x) for c, x in pairs)
                slack = sum(Fraction(math.ulp(c * x)) / 2 for c, x in pairs)
                assert abs(Fraction(final) - exact) <= slack + Fraction(math.ulp(final)) / 2

    def test_does_not_depend_on_how_many_blocks_one_call_draws(self, monkeypatch):
        n, cases = 20 * oracle._block_races(3) + 5, list(_streaming_cases())[:6]
        expected = [simulate_growth(mk, b, n, 8) for mk, b in cases]
        paths = [first.log_wealth.tobytes() for first in expected]
        for cells in (1, 40, 1 << 14):  # a block per call, then 40 // m, then all
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
            for (mk, b), first, path in zip(cases, expected, paths):
                again = simulate_growth(mk, b, n, 8)
                assert again == first and again.counts.tobytes() == first.counts.tobytes()
                assert again.log_wealth.tobytes() == path
                assert again.estimate_ubeta(-0.5) == first.estimate_ubeta(-0.5)

    def test_a_zero_payoff_counts_only_once_drawn(self):
        ruin = simulate_growth(MARKET_B, Allocation([1.0, 0.0]), 200, seed=5)
        assert ruin.counts[1] > 0
        assert ruin.final_log2_wealth == -math.inf and ruin.final_rate == -math.inf
        # the first horse's chance rounds to 1.0, so its binomial takes every race: the
        # second is never drawn
        market = new_race([1.0, 1e-300], [2.0, 2.0])
        traj = simulate_growth(market, Allocation([1.0, 0.0]), 1000, seed=5)
        assert traj.counts.tolist() == [1000, 0]
        assert traj.final_log2_wealth == 1000.0 and not math.isnan(traj.final_rate)

    def test_bookie_mix_rate_is_log_c_at_a_million_races(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        r = Allocation([4 / 7, 2 / 7, 1 / 7])
        traj = simulate_growth(market, r, 10**6, seed=3)
        assert traj.final_rate == pytest.approx(math.log2(track_constant(market)), rel=1e-14)


class TestEstimateUbeta:
    def test_bookie_mix_is_exact_for_any_sample_size(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        r = Allocation([4 / 7, 2 / 7, 1 / 7])
        c = track_constant(market)
        for n in (1, 7, 100):
            assert estimate_ubeta(market, r, 0.5, n, seed=6) == pytest.approx(
                math.log2(c), rel=1e-12
            )

    def test_single_sample_is_the_sampled_payoff(self):
        b = Allocation([0.7, 0.3])
        traj = simulate_growth(MARKET_B, b, 1, seed=7)
        for beta in SHARED_BETAS:
            assert traj.estimate_ubeta(beta) == pytest.approx(traj.log_wealth[0], abs=1e-12)
        # a cold estimate of one sample is the log2 payoff of the outcome it drew
        payoffs = np.log2(b.bets * MARKET_B.odds)
        for seed in range(8):
            assert estimate_ubeta(MARKET_B, b, 0.5, 1, seed) in payoffs

    def test_converges_to_utility(self):
        g = optimal_full(MARKET_B, 0.5)
        n = 10**6
        est = estimate_ubeta(MARKET_B, g, 0.5, n, seed=8)
        # exact moments of S^beta under the two-outcome market
        payoffs = g.bets * MARKET_B.odds
        mean = float(np.sum(MARKET_B.probs * payoffs**0.5))
        var = float(np.sum(MARKET_B.probs * payoffs) - mean**2)
        sampled_mean = 2 ** (0.5 * est)
        assert abs(sampled_mean - mean) <= 3 * math.sqrt(var / n)

    def test_rejects_allocation_of_the_wrong_length(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        for bets in ([0.5, 0.5], [0.25] * 4):
            with pytest.raises(LengthMismatchError):
                estimate_ubeta(market, Allocation(bets), 0.5, 100, seed=1)

    def test_zero_bet_negative_beta(self):
        assert estimate_ubeta(MARKET_B, Allocation([1.0, 0.0]), -0.5, 100, seed=9) == -math.inf

    def test_zero_beta_is_the_simulated_growth_rate(self):
        # the same races give the mean log2 payoff both ways
        for i, (market, b) in enumerate(_streaming_cases()):
            traj = simulate_growth(market, b, 10**5 + i, seed=i)
            rate, est = traj.final_rate, traj.estimate_ubeta(0.0)
            if math.isinf(rate):
                assert est == rate
            else:
                assert est == pytest.approx(rate, rel=1e-10, abs=0.0)


# a bet with cash on subfair odds, and a side-info bet with an impossible cell,
# on which it puts nothing
OUTCOME_RACE = new_race([0.5, 0.3, 0.2], [1.8, 2.9, 4.5])
OUTCOME_SIDE = new_side_info([[0.3, 0.1, 0.0], [0.1, 0.2, 0.3]], [2.2, 3.5, 6.0])
OUTCOME_CASES = {
    "partial": (OUTCOME_RACE, PartialAllocation(0.3, [0.3, 0.2, 0.2]), utility_partial),
    "side_info": (
        OUTCOME_SIDE,
        ConditionalAllocation([[0.6, 0.4, 0.0], [0.2, 0.3, 0.5]]),
        utility_side_info,
    ),
}


def _outcome_moments(case):
    """Each outcome's probability and payoff, written out independently of the library."""
    market, b, _ = OUTCOME_CASES[case]
    if case == "partial":
        return market.probs, b.cash + b.bets * market.odds
    live = market.joint > 0.0
    return market.joint[live], (b.table * market.odds)[live]


def _delta_se(probs, payoffs, beta, n):
    """The delta-method standard error of an estimate of ``n`` samples."""
    if beta == 0.0:
        mean = float(np.sum(probs * np.log2(payoffs)))
        return math.sqrt(float(np.sum(probs * (np.log2(payoffs) - mean) ** 2)) / n)
    mean = float(np.sum(probs * payoffs**beta))
    sd = math.sqrt(float(np.sum(probs * payoffs ** (2 * beta))) - mean**2)
    return sd / (math.sqrt(n) * abs(beta) * math.log(2.0) * mean)


@pytest.mark.parametrize("case", list(OUTCOME_CASES))
class TestMonteCarloOverOutcomes:
    def test_deterministic(self, case):
        market, b, _ = OUTCOME_CASES[case]
        first, again = (simulate_growth(market, b, 5000, seed=3) for _ in range(2))
        np.testing.assert_array_equal(first.log_wealth, again.log_wealth)
        assert estimate_ubeta(market, b, 0.5, 5000, 3) == estimate_ubeta(market, b, 0.5, 5000, 3)
        assert np.all(np.isfinite(first.log_wealth))  # the impossible cell is never drawn

    def test_zero_beta_is_the_simulated_growth_rate(self, case):
        market, b, _ = OUTCOME_CASES[case]
        for seed in range(3):
            traj = simulate_growth(market, b, 10**5, seed)
            assert traj.estimate_ubeta(0.0) == pytest.approx(traj.final_rate, rel=1e-10)

    @pytest.mark.parametrize("beta", [-2.0, -0.5, 0.0, 0.5])
    def test_within_four_standard_errors_of_the_utility(self, case, beta):
        market, b, utility = OUTCOME_CASES[case]
        n = 20000
        exact = utility(market, b, beta)
        se = _delta_se(*_outcome_moments(case), beta, n)
        for seed in range(12):
            assert abs(estimate_ubeta(market, b, beta, n, seed) - exact) < 4.0 * se

    def test_limits_are_the_extreme_payoffs_sampled(self, case):
        market, b, utility = OUTCOME_CASES[case]
        for beta in (math.inf, -math.inf):
            assert estimate_ubeta(market, b, beta, 5000, seed=4) == utility(market, b, beta)


def _streaming_cases():
    """Markets and allocations for the streaming Monte Carlo checks: interior
    bets, a zero bet on a likely horse (ruin), and probabilities near underflow."""
    rng = np.random.default_rng(2024)
    for m in (1, 2, 3, 5, 8, 33, 1000):
        market = random_market(rng, m)
        yield market, Allocation(rng.dirichlet(np.ones(m)))
        if m > 1:
            bets = rng.dirichlet(np.ones(m))
            bets[int(np.argmax(market.probs))] = 0.0
            yield market, Allocation(bets / bets.sum())
            probs = np.full(m, 1e-300)
            probs[rng.integers(m)] = 1.0
            yield new_race(probs / probs.sum(), market.odds), Allocation(np.full(m, 1.0 / m))


def _clustered(m, tiny):
    """A race whose ``m - 3`` tiny probabilities sit between 0.3, 0.2 and 0.5, so the
    counts of most outcomes are one binomial draw of a near-zero chance each."""
    half = (m - 3) // 2
    probs = [0.3, *[tiny] * half, 0.2, *[tiny] * (m - 3 - half), 0.5]
    return new_race(probs, np.full(m, 2.0))


# the chances' running sum reaches 1 + 2^-52 at the third, above the total: numpy's
# multinomial gives the third a conditional chance of 1 + 2.2e-15, and every race left
_BOUND_ABOVE_ONE = new_race([0.63, 0.298, 0.072, 1e-300], [2.0] * 4)


class TestStreamingMonteCarlo:
    def test_matches_the_one_shot_reference(self):
        for market, b in _streaming_cases():
            block = oracle._block_races(market.m)
            for n in (1, block - 1, block, block + 1, 3 * block + 7):
                seed = 1000 + n
                traj = simulate_growth(market, b, n, seed)
                expected = reference_log_wealth(market, b, n, seed)
                assert traj.log_wealth.tobytes() == expected.tobytes()
                for beta in (-2.0, -0.5, 0.5, 3.0):
                    est = traj.estimate_ubeta(beta)
                    assert not math.isnan(est)
                    assert est == pytest.approx(reference_ubeta(market, b, beta, n, seed), rel=1e-12)

    def test_streams_are_the_seeds_jumped_philox_streams(self):
        # cold estimates, block counts and race orders each read their own Philox stream,
        # 2^128 draws apart, whatever the seed
        for seed in (0, 7, 2**64 + 3, 2**128 - 1):
            for jumps in (0, 1, 2):
                raw = np.random.Philox(key=seed).jumped(jumps).random_raw(5)
                stream = oracle._stream(seed, jumps).bit_generator
                assert raw.tobytes() == stream.random_raw(5).tobytes()

    def test_paths_match_the_reference_bit_for_bit(self):
        size = oracle._block_races
        cases = [
            new_race([1.0], [2.0]),
            new_race([0.6, 0.4], [2.0, 2.0]),
            new_race([1e-300, 1.0], [2.0, 2.0]),
            _BOUND_ABOVE_ONE,
            _clustered(10**4, 1e-300),
            _clustered(1000, 2.0**-50),
        ]
        rng = np.random.default_rng(11)
        cases += [random_market(rng, m) for m in (2, 5, 8, 100, 10**4)]
        for i, market in enumerate(cases):
            b = Allocation(rng.dirichlet(np.ones(market.m)))
            block = size(market.m)
            for n in (1, block - 1, block, block + 1, 2 * block):
                seed = 500 + i + n
                traj = simulate_growth(market, b, n, seed)
                expected = reference_log_wealth(market, b, n, seed)
                assert traj.log_wealth.tobytes() == expected.tobytes()

    def test_memory_is_bounded_by_the_chunk(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        b = Allocation([0.5, 0.3, 0.2])
        n = 2 * 10**6
        few_mb = 4 * 2**20
        tracemalloc.start()
        try:
            estimate_ubeta(market, b, 0.5, n, seed=1)
            _, estimate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            simulate_growth(market, b, n, seed=1)
            _, trajectory_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n-long float64 temporary alone would be 16 MB
        assert estimate_peak <= few_mb
        assert trajectory_peak <= few_mb

    def test_trajectory_memory_does_not_grow_with_the_races(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        b = Allocation([0.5, 0.3, 0.2])
        simulate_growth(market, b, 10, seed=1)  # one-time allocations come before the counts
        peaks = []
        for n in (2**14, 2**22):
            tracemalloc.start()
            try:
                simulate_growth(market, b, n, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 64 * 2**10

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True, "3", np.float64(2.0)])
    def test_rejects_a_bad_seed(self, seed):
        with pytest.raises(NotEvaluableError, match="seed"):
            simulate_growth(MARKET_B, kelly(MARKET_B), 10, seed)
        with pytest.raises(NotEvaluableError, match="seed"):
            estimate_ubeta(MARKET_B, kelly(MARKET_B), 0.5, 10, seed)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), 0, -4])
    def test_rejects_a_bad_count(self, n):
        with pytest.raises(NotEvaluableError):
            simulate_growth(MARKET_B, kelly(MARKET_B), n, 1)
        with pytest.raises(NotEvaluableError):
            estimate_ubeta(MARKET_B, kelly(MARKET_B), 0.5, n, 1)

    def test_numpy_integers_and_the_largest_seed_pass(self):
        b = kelly(MARKET_B)
        for seed in (np.int64(7), np.uint64(7)):
            traj = simulate_growth(MARKET_B, b, np.int32(50), seed)
            assert traj.log_wealth.tobytes() == reference_log_wealth(MARKET_B, b, 50, 7).tobytes()
            assert traj.estimate_ubeta(0.5) == pytest.approx(
                reference_ubeta(MARKET_B, b, 0.5, 50, 7), rel=1e-12
            )
            est = estimate_ubeta(MARKET_B, b, 0.5, np.int64(50), seed)
            assert est == estimate_ubeta(MARKET_B, b, 0.5, 50, 7)
        top = 2**128 - 1
        traj = simulate_growth(MARKET_B, b, 50, top)
        assert traj.log_wealth.tobytes() == reference_log_wealth(MARKET_B, b, 50, top).tobytes()
        counts = np.random.Generator(np.random.Philox(key=top)).multinomial(50, MARKET_B.probs)
        assert estimate_ubeta(MARKET_B, b, 0.0, 50, top) == pytest.approx(
            float(np.sum(counts * np.log2(b.bets * MARKET_B.odds))) / 50, rel=1e-12
        )

    def test_the_count_bound_starts_no_draw(self, monkeypatch):
        def must_not_draw(*args, **kwargs):
            raise AssertionError("drew a stream past the count bound")

        monkeypatch.setattr(oracle, "_stream", must_not_draw)
        monkeypatch.setattr(np.random, "Philox", must_not_draw)
        for n in (2**63, 2**64, 10**30):
            with pytest.raises(NotEvaluableError, match="in \\[1, 2\\*\\*63\\)"):
                simulate_growth(MARKET_B, kelly(MARKET_B), n, 1)
            with pytest.raises(NotEvaluableError, match="in \\[1, 2\\*\\*63\\)"):
                estimate_ubeta(MARKET_B, kelly(MARKET_B), 0.5, n, 1)

    def test_a_billion_races_take_o_m_memory(self):
        market = random_market(np.random.default_rng(5), 5)
        b = Allocation(np.full(5, 0.2))
        simulate_growth(market, b, 10, seed=1)  # one-time allocations
        tracemalloc.start()
        try:
            traj = simulate_growth(market, b, 10**9, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(traj.counts.sum()) == 10**9
        assert peak < 2**20  # counts only: no array grows with the number of races

    def test_replay_memory_is_bounded_by_the_block(self):
        m = 1000  # blocks of 2^16 races
        market, size = random_market(np.random.default_rng(6), m), oracle._block_races(m)
        b, peaks = Allocation(np.full(m, 1.0 / m)), []
        for n in (2 * size, 3 * size):
            traj = simulate_growth(market, b, n, seed=2)
            tracemalloc.start()
            try:
                for _ in traj.chunks():
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # at a block's edge the block the loop holds and the next, 8 bytes a race each
        assert peaks[1] <= 8 * 2 * size + 64 * 2**10
        assert abs(peaks[1] - peaks[0]) <= 16 * 2**10

    def test_a_caller_dropping_each_block_holds_one(self):
        # the replay drops its own reference once a block is taken: a caller that deletes
        # each block before asking for the next holds one block, plus the O(m) counts
        m = 1000  # blocks of 2^16 races, 512 KB
        market, size = random_market(np.random.default_rng(6), m), oracle._block_races(m)
        traj = simulate_growth(market, Allocation(np.full(m, 1.0 / m)), 3 * size, seed=2)
        tracemalloc.start()
        try:
            for block in traj.chunks():
                del block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size + 64 * 2**10


def _logged_streams(monkeypatch) -> list:
    """Stand in for ``oracle._stream`` with a wrapper that logs each stream's
    (seed, jumps)."""
    calls, stream = [], oracle._stream

    def logging(seed, jumps):
        calls.append((seed, jumps))
        return stream(seed, jumps)

    monkeypatch.setattr(oracle, "_stream", logging)
    return calls


class _Multinomials(np.random.Generator):
    """A ``np.random.Generator`` that logs each multinomial vector it draws."""

    drawn: list = []

    def multinomial(self, n, pvals, size=None):
        counts = super().multinomial(n, pvals, size)
        self.drawn.append(counts)
        return counts


def _recorded_multinomials(monkeypatch) -> list:
    """Build every ``np.random.Generator`` as a :class:`_Multinomials`; returns its log."""
    monkeypatch.setattr(_Multinomials, "drawn", [])
    monkeypatch.setattr(np.random, "Generator", _Multinomials)
    return _Multinomials.drawn


class TestTrajectoryEstimate:
    def test_matches_the_reference_over_its_own_races(self):
        cases = list(_streaming_cases())
        cases += [(market, b) for market, b, _ in OUTCOME_CASES.values()]
        for i, (market, b) in enumerate(cases):
            probs, bets, odds, cash = strategy._outcomes(market, b)
            with np.errstate(divide="ignore"):  # a zero bet pays 0
                log2_payoffs = np.log2(bets * odds if cash is None else cash + bets * odds)
            block = oracle._block_races(probs.size)
            for n in (1, block - 1, block, block + 1, 2 * block):
                seed = 300 + i
                traj = simulate_growth(market, b, n, seed)
                drawn = log2_payoffs[traj.counts > 0]
                assert traj.estimate_ubeta(math.inf) == drawn.max()
                assert traj.estimate_ubeta(-math.inf) == drawn.min()
                if not isinstance(b, Allocation):
                    continue  # the reference takes a full bet on a race
                for beta in (-2.0, -0.5, 0.5, 3.0):
                    expected = reference_ubeta(market, b, beta, n, seed)
                    assert traj.estimate_ubeta(beta) == pytest.approx(expected, rel=1e-12)

    def test_a_simulation_and_its_estimates_draw_once(self, monkeypatch):
        calls = _logged_streams(monkeypatch)
        b = kelly(MARKET_B)
        traj = simulate_growth(MARKET_B, b, 1000, 3)
        for beta in SHARED_BETAS:
            traj.estimate_ubeta(beta)
            estimate_ubeta(MARKET_B, b, beta, 1000, 3)  # draws counts, not races
        # the block counts once, no race order, and each cold estimate its own counts
        assert calls == [(3, 1)] + [(3, 0)] * len(SHARED_BETAS)

    def test_checks_beta(self):
        traj = simulate_growth(MARKET_B, kelly(MARKET_B), 100, 3)
        for beta in (math.nan, 1e7, -1e7):
            with pytest.raises(BetaOutOfRangeError):
                traj.estimate_ubeta(beta)

    def test_allocates_nothing_per_race(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        traj = simulate_growth(market, Allocation([0.5, 0.3, 0.2]), 2 * 10**6, seed=1)
        tracemalloc.start()
        try:
            traj.estimate_ubeta(0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10  # one 2^14-race block's payoffs alone are 128 KB


class TestMultinomialEstimate:
    def test_counts_sum_to_n(self, monkeypatch):
        drawn = _recorded_multinomials(monkeypatch)
        for market, b, _ in OUTCOME_CASES.values():
            for n in (1, 7, 10**6, 10**12, 2**63 - 1):
                estimate_ubeta(market, b, 0.5, n, seed=n % 97)
                assert drawn[-1].dtype == np.int64 and int(drawn[-1].sum()) == n
                assert np.all(drawn[-1] >= 0)

    def test_an_impossible_outcome_is_never_sampled(self, monkeypatch):
        # horse 2 never wins and the cell (1, 0) is impossible: the bet puts nothing on
        # either, so drawing one at beta < 0 would make the estimate -inf
        market = new_side_info([[0.3, 0.2, 0.0], [0.0, 0.5, 0.0]], [2.5, 2.5, 9.0])
        b = ConditionalAllocation([[0.6, 0.4, 0.0], [0.0, 1.0, 0.0]])
        drawn = _recorded_multinomials(monkeypatch)
        for seed in range(50):
            assert math.isfinite(estimate_ubeta(market, b, -0.5, 10**12, seed))
            assert drawn[-1].size == 3  # the live cells
        assert math.isfinite(simulate_growth(market, b, 10**4, 0).final_log2_wealth)

    def test_estimates_follow_the_delta_method_law(self):
        # 400 seeds at n = 10^6: each estimate's z-score against the exact utility,
        # with the 3-SE band of the delta method; 0.27% fall outside by chance
        n, seeds = 10**6, range(400)
        for case, (market, b, utility) in OUTCOME_CASES.items():
            probs, payoffs = _outcome_moments(case)
            for beta in (-2.0, 0.0, 0.5):
                se = _delta_se(probs, payoffs, beta, n)
                exact = utility(market, b, beta)
                z = np.array([estimate_ubeta(market, b, beta, n, s) - exact for s in seeds]) / se
                assert np.mean(np.abs(z) > 3.0) <= 0.01
                assert abs(z.mean()) < 0.2 and 0.85 < z.std() < 1.15

    def test_estimates_read_the_seeds_multinomial_counts(self):
        # bets on the same outcomes read the same counts, each at its own payoffs
        bets = [Allocation([0.7, 0.3]), Allocation([0.2, 0.8]), PartialAllocation(0.5, [0.3, 0.2])]
        counts = np.random.Generator(np.random.Philox(key=6)).multinomial(5000, MARKET_B.probs)
        values = []
        for b in bets:
            payoffs = b.bets * MARKET_B.odds + (b.cash if isinstance(b, PartialAllocation) else 0)
            expected = math.log2(float(np.sum(counts * np.sqrt(payoffs))) / 5000) / 0.5
            values.append(estimate_ubeta(MARKET_B, b, 0.5, 5000, 6))
            assert values[-1] == pytest.approx(expected, rel=1e-12)
        assert len(set(values)) == 3

    def test_a_trillion_samples_take_milliseconds_and_o_m_memory(self):
        for m in (3, 1000):
            market = random_market(np.random.default_rng(m), m)
            b = Allocation(np.full(m, 1.0 / m))
            estimate_ubeta(market, b, 0.5, 10, seed=1)  # one-time allocations
            tracemalloc.start()
            try:
                start = time.perf_counter()
                estimate_ubeta(market, b, 0.5, 10**12, seed=1)
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert elapsed < 0.25  # about 50 us at m = 3; a race a ns would take 17 minutes
            assert peak < 4096 + 64 * m

    def test_no_side_info_table_makes_numpy_refuse_its_pmf(self):
        # numpy refuses a PMF whose first m - 1 entries sum past 1 + 1e-12; tables whose
        # entries span the double range, sum to 1 +- 1e-9, or have 10^4 live cells
        rng = np.random.default_rng(36)
        tables = []
        for shape in ((1, 2), (2, 3), (7, 5), (100, 100), (3, 3000)):
            for _ in range(5):
                joint = rng.dirichlet(np.full(shape[0] * shape[1], 0.05)).reshape(shape)
                joint[rng.random(shape) < 0.3] = 0.0
                joint[:, 0] += 1e-300  # every signal keeps a live cell
                tables.append(joint / joint.sum() * (1.0 + rng.uniform(-1e-9, 1e-9)))
        tables.append(np.array([[1.0 - 3e-10, 1e-300], [2e-10, 1e-10]]))
        tables.append(np.full((100, 100), 1e-4 * (1.0 + 9e-10)))
        for joint in tables:
            m = joint.shape[1]  # a bet of 1/m at odds m pays 1 on every cell
            market = new_side_info(joint, np.full(m, float(m)))
            b = ConditionalAllocation(np.full(joint.shape, 1.0 / m))
            for seed in range(3):
                assert estimate_ubeta(market, b, 0.5, 10**9, seed) == pytest.approx(0.0, abs=1e-12)

    def test_checks_run_in_order(self):
        b = kelly(MARKET_B)
        for beta in (math.nan, 1e7):
            with pytest.raises(BetaOutOfRangeError):
                estimate_ubeta(MARKET_B, b, beta, 1, 1)
        with pytest.raises(BetaOutOfRangeError):  # beta comes first
            estimate_ubeta(MARKET_B, Allocation([1.0]), math.nan, True, -1)
        with pytest.raises(LengthMismatchError):  # then the bet
            estimate_ubeta(MARKET_B, Allocation([1.0]), 0.5, True, -1)
        for seed in (-1, 1):  # then n
            with pytest.raises(NotEvaluableError, match="number of samples"):
                estimate_ubeta(MARKET_B, b, 0.5, True, seed)
        for seed in (-1, 2**128, 1.0):
            with pytest.raises(NotEvaluableError, match="seed"):
                estimate_ubeta(MARKET_B, b, 0.5, 1, seed)


def _block_edge_cases():
    rng = np.random.default_rng(34)
    markets = [new_race([1.0], [2.0]), MARKET_B, _BOUND_ABOVE_ONE, _clustered(1000, 2.0**-50)]
    markets += [_clustered(10**4, 1e-300), random_market(rng, 10**4)]
    return [(market, Allocation(rng.dirichlet(np.ones(market.m)))) for market in markets]


def _blocks_of(monkeypatch, size):
    """Make every simulation draw blocks of ``size`` races."""
    monkeypatch.setattr(oracle, "_block_races", lambda m: size)


class TestBlockEdges:
    def check(self, market, b, n, seed):
        expected = reference_log_wealth(market, b, n, seed)
        traj = simulate_growth(market, b, n, seed)
        final = reference_final(market, b, n, seed)
        assert np.float64(traj.final_log2_wealth).tobytes() == np.float64(final).tobytes()
        assert abs(expected[-1] - final) <= n * EPS * np.max(np.abs(expected))
        drawn = reference_winners(market, n, seed)
        assert traj.counts.tobytes() == np.bincount(drawn, minlength=market.m).tobytes()
        assert traj.log_wealth.tobytes() == expected.tobytes()
        assert np.concatenate(list(traj.chunks())).tobytes() == expected.tobytes()
        for beta in (-0.5, 0.5, 3.0):
            reference = reference_ubeta(market, b, beta, n, seed)
            assert traj.estimate_ubeta(beta) == pytest.approx(reference, rel=1e-12)

    def test_block_edges_match_the_reference(self, monkeypatch):
        # each block size, and runs ending on, before and after a block's edge
        for i, (market, b) in enumerate(_block_edge_cases()):
            for size in (1, 2, 3, 7):
                _blocks_of(monkeypatch, size)
                for n in (1, size + 1, 3 * size, 3 * size + 2):
                    self.check(market, b, n, 10 * i + size)
            monkeypatch.undo()

    def test_chunks_never_span_a_block(self, monkeypatch):
        # one array of its own per block, the last one shorter
        traj = simulate_growth(MARKET_B, Allocation([0.7, 0.3]), 13, seed=1)
        for size, sizes in ((5, [5, 5, 3]), (3, [3, 3, 3, 3, 1]), (13, [13]), (20, [13])):
            _blocks_of(monkeypatch, size)
            chunks = list(traj.chunks())
            assert [c.size for c in chunks] == sizes
            assert all(c.flags.owndata for c in chunks)
        monkeypatch.undo()
        market, b = _block_edge_cases()[3]  # 1000 outcomes: blocks of 2^16 races
        traj = simulate_growth(market, b, 3 * 2**16 + 5, seed=1)
        assert [c.size for c in traj.chunks()] == [2**16] * 3 + [5]

    def test_seeded_streams_match_the_reference(self):
        for i, (market, b) in enumerate(_block_edge_cases()):
            size = oracle._block_races(market.m)
            for n in (300, size + 1, 2 * size + 5):
                self.check(market, b, n, 40 + i)


# full, partial and side-info bets whose payoffs are distinct powers of 2: their log2
# payoffs are small integers, so every running sum is exact and each step names its outcome
EXACT_CASES = {
    "full": (new_race([0.5, 0.3, 0.2], [2.0, 8.0, 32.0]), Allocation([0.5, 0.25, 0.25])),
    "partial": (
        new_race([0.5, 0.3, 0.2], [2.0, 12.0, 60.0]),
        PartialAllocation(0.5, [0.25, 0.125, 0.125]),
    ),
    "side_info": (
        new_side_info([[0.3, 0.1, 0.0], [0.1, 0.2, 0.3]], [4.0, 16.0, 64.0]),
        ConditionalAllocation([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]),
    ),
}


def _replayed_outcomes(traj, log2_payoffs):
    """Each replayed race's outcome, read off its exact log2 payoff."""
    steps = np.diff(traj.log_wealth, prepend=0.0)
    order = np.argsort(log2_payoffs)
    found = order[np.searchsorted(log2_payoffs[order], steps)]
    assert log2_payoffs[found].tobytes() == steps.tobytes()
    return found


class TestBlockLaw:
    def test_paths_follow_the_product_law(self, monkeypatch):
        # 4 races over blocks of 3: every one of the 81 paths appears as often as
        # the product of its outcomes' chances, within 4.5 standard errors
        _blocks_of(monkeypatch, 3)
        market, b = EXACT_CASES["full"]
        log2_payoffs, seeds = np.log2(b.bets * market.odds), 30000
        paths = np.zeros(3**4, np.int64)
        for seed in range(seeds):
            won = _replayed_outcomes(simulate_growth(market, b, 4, seed), log2_payoffs)
            paths[int(won @ [27, 9, 3, 1])] += 1
        chances = np.prod(market.probs[np.indices((3,) * 4).reshape(4, -1)], axis=0)
        se = np.sqrt(seeds * chances * (1.0 - chances))
        assert np.all(np.abs(paths - seeds * chances) <= 4.5 * se)

    @pytest.mark.parametrize("kind", list(EXACT_CASES))
    def test_replayed_outcomes_count_to_the_counts(self, kind):
        market, b = EXACT_CASES[kind]
        probs, bets, odds, cash = strategy._outcomes(market, b)
        log2_payoffs = np.log2(bets * odds if cash is None else cash + bets * odds)
        assert np.unique(log2_payoffs).size == probs.size
        for n in (1, 1000, 3 * oracle._block_races(probs.size) + 5):
            traj = simulate_growth(market, b, n, seed=n % 89)
            won = _replayed_outcomes(traj, log2_payoffs)
            assert np.bincount(won, minlength=probs.size).tobytes() == traj.counts.tobytes()
