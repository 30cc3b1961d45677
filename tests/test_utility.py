import math

import numpy as np
import pytest

from powerbet import (
    Allocation,
    BetaOutOfRangeError,
    ConditionalAllocation,
    PartialAllocation,
    bookie_distribution,
    cond_renyi_div,
    decompose_full,
    decompose_kelly,
    decompose_side_info,
    doubling_rate,
    kelly,
    limit_utilities,
    new_race,
    new_side_info,
    optimal_full,
    optimal_side_info,
    renyi_div,
    utility_full,
    utility_partial,
    utility_side_info,
)

from helpers import (
    random_conditional_allocation,
    random_interior_allocation,
    random_joint_market,
    random_market,
    random_partial_allocation,
)

MARKET_B = new_race([0.6, 0.4], [2, 2])
EPS = np.finfo(float).eps


def test_one_utility_serves_every_allocation_kind():
    assert utility_partial is utility_full
    assert utility_side_info is utility_full


class TestUtilityFull:
    def test_flat_payoff_is_zero(self):
        flat = Allocation([0.5, 0.5])
        market = new_race([0.5, 0.5], [2, 2])
        for beta in (-3.0, -0.5, 0.5, 1.0, 4.0):
            assert utility_full(market, flat, beta) == pytest.approx(0.0, abs=1e-14)

    def test_optimal_value_from_the_split(self):
        # at the optimum the gambler term vanishes, leaving log2 of the
        # order-2 power sum against the bookie distribution
        g = optimal_full(MARKET_B, 0.5)
        expected = math.log2(0.6**2 * 2 + 0.4**2 * 2)
        assert utility_full(MARKET_B, g, 0.5) == pytest.approx(expected, abs=1e-13)

    def test_zero_bet_negative_beta(self):
        assert utility_full(MARKET_B, Allocation([1.0, 0.0]), -1.0) == -math.inf

    def test_zero_bet_positive_beta_drops_the_term(self):
        value = utility_full(MARKET_B, Allocation([1.0, 0.0]), 0.5)
        assert value == pytest.approx(2 * math.log2(0.6 * math.sqrt(2)), abs=1e-13)

    @pytest.mark.parametrize("beta", [2e-308, 1e-310])
    def test_subnormal_beta_keeps_the_dropped_share(self, beta):
        # log2(1 - 1e-30) / beta, from the lost share, dwarfs the live mean
        market = new_race([0.6, 0.4, 1e-30], [2.2, 3.5, 6.0])
        value = utility_full(market, Allocation([0.6, 0.4, 0.0]), beta)
        assert math.isfinite(value)
        assert value == pytest.approx(math.log1p(-1e-30) / math.log(2.0) / beta, rel=1e-12)

    def test_zero_beta_is_the_doubling_rate(self):
        # flat payoffs of 1: zero bits, the same double as doubling_rate
        flat = Allocation([0.5, 0.5])
        assert utility_full(MARKET_B, flat, 0.0) == 0.0
        rng = np.random.default_rng(23)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(2, 12)))
            b = random_interior_allocation(rng, market.m)
            value = utility_full(market, b, 0.0)
            assert value == doubling_rate(market, b)  # bit for bit
            explicit = float(market.probs @ np.log2(b.bets * market.odds))
            assert value == pytest.approx(explicit, rel=1e-14, abs=1e-15)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(20)
        betas = np.array([-8.0, -2.0, -0.5, 0.25, 0.9, 1.0, 2.0, 8.0])
        for _ in range(100):
            market = random_market(rng, int(rng.integers(2, 6)))
            b = random_interior_allocation(rng, market.m)
            values = [utility_full(market, b, beta) for beta in betas]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_kelly_limit(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            market = random_market(rng, int(rng.integers(2, 6)), odds_lo=1.5, odds_hi=8.0)
            b = random_interior_allocation(rng, market.m)
            rate = doubling_rate(market, b)
            for beta in (1e-4, -1e-4):
                assert abs(utility_full(market, b, beta) - rate) < 1e-3

    def test_continuous_at_kelly(self):
        # U_beta - W = beta Var_p(ln S) / (2 ln 2) + O(beta^2), for payoffs S = b o
        rng = np.random.default_rng(22)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(2, 12)))
            b = random_interior_allocation(rng, market.m)
            rate = doubling_rate(market, b)
            log_s = np.log(b.bets * market.odds)
            slope = float(market.probs @ (log_s - market.probs @ log_s) ** 2) / math.log(2.0)
            for t in (1e-6, 1e-9, 1e-12, 1e-15, 1e-300, 1e-310, 5e-324):
                for beta in (t, -t):
                    gap = utility_full(market, b, beta) - rate
                    assert abs(gap) <= slope * t + 4 * EPS * max(1.0, abs(rate))
                    assert math.copysign(1.0, beta) * gap >= -4 * EPS * max(1.0, abs(rate))


class TestDoublingRate:
    def test_fair_proportional(self):
        market = new_race([0.5, 0.5], [2, 2])
        assert doubling_rate(market, Allocation([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_edge_over_entropy(self):
        expected = 1.0 - (-0.6 * math.log2(0.6) - 0.4 * math.log2(0.4))
        value = doubling_rate(MARKET_B, Allocation([0.6, 0.4]))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.029049, abs=1e-6)

    def test_unbacked_winner(self):
        assert doubling_rate(MARKET_B, Allocation([1.0, 0.0])) == -math.inf


class TestUtilityPartial:
    def test_all_cash_is_zero(self):
        alloc = PartialAllocation(1.0, [0.0, 0.0])
        for beta in (-2.0, -0.5, 0.5, 2.0):
            assert utility_partial(MARKET_B, alloc, beta) == pytest.approx(0.0, abs=1e-14)

    def test_no_cash_reduces_to_full(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            market = random_market(rng, 3)
            b = random_interior_allocation(rng, 3)
            beta = float(rng.uniform(-2, 0.9)) or 0.25
            assert utility_partial(
                market, PartialAllocation(0.0, b.bets), beta
            ) == pytest.approx(utility_full(market, b, beta), abs=1e-13)

    def test_finite_with_positive_cash_despite_zero_bets(self):
        alloc = PartialAllocation(0.5, [0.5, 0.0])
        assert math.isfinite(utility_partial(MARKET_B, alloc, -2.0))


class TestUtilitySideInfo:
    def test_single_signal_reduces_to_full(self):
        market = new_side_info([[0.6, 0.4]], [2, 3])
        row = Allocation([0.7, 0.3])
        table = ConditionalAllocation([[0.7, 0.3]])
        flat = new_race([0.6, 0.4], [2, 3])
        for beta in (-1.0, 0.5):
            assert utility_side_info(market, table, beta) == pytest.approx(
                utility_full(flat, row, beta), abs=1e-13
            )

    def test_independent_signal_adds_nothing(self):
        p_x = np.array([0.6, 0.4])
        p_y = np.array([0.3, 0.7])
        market = new_side_info(p_y[:, None] * p_x[None, :], [2, 3])
        flat = new_race(p_x, [2, 3])
        table, _ = optimal_side_info(market, 0.5)
        g = optimal_full(flat, 0.5)
        assert utility_side_info(market, table, 0.5) == pytest.approx(
            utility_full(flat, g, 0.5), abs=1e-12
        )

    def test_zero_bet_negative_beta(self):
        market = new_side_info([[0.3, 0.2], [0.1, 0.4]], [2, 3])
        table = ConditionalAllocation([[1.0, 0.0], [0.5, 0.5]])
        assert utility_side_info(market, table, -0.5) == -math.inf


class TestLimitUtilities:
    def test_flat(self):
        market = new_race([0.5, 0.5], [2, 2])
        assert limit_utilities(market, Allocation([0.5, 0.5])) == (0.0, 0.0)

    def test_zero_bet(self):
        best, worst = limit_utilities(new_race([0.5, 0.5], [2, 4]), Allocation([1.0, 0.0]))
        assert best == 1.0
        assert worst == -math.inf

    def test_bookie_mix_pins_both_sides(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        best, worst = limit_utilities(market, Allocation([4 / 7, 2 / 7, 1 / 7]))
        assert best == pytest.approx(math.log2(8 / 7), abs=1e-12)
        assert worst == pytest.approx(math.log2(8 / 7), abs=1e-12)

    def test_matches_extreme_beta(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            market = random_market(rng, 2, odds_lo=1.5, odds_hi=6.0)
            probs = rng.uniform(0.45, 0.55)
            market = new_race([probs, 1 - probs], market.odds)
            b = random_interior_allocation(rng, 2, floor=0.1)
            payoffs = b.bets * market.odds
            if payoffs.max() / payoffs.min() > 8.0:
                continue
            best, worst = limit_utilities(market, b)
            assert abs(utility_full(market, b, 64.0) - best) < 0.02
            assert abs(utility_full(market, b, -64.0) - worst) < 0.02


class TestUtilitiesAtTheLimits:
    def _extremes(self, payoffs):
        with np.errstate(divide="ignore"):
            logs = np.log2(payoffs)
        return float(logs.max()), float(logs.min())

    def test_full_is_limit_utilities_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            market = random_market(rng, m)
            bets = rng.dirichlet(np.ones(m))
            if m > 1:
                bets[rng.integers(m)] *= float(rng.integers(2))  # often a zero bet
            b = Allocation(bets / bets.sum())
            limits = (utility_full(market, b, math.inf), utility_full(market, b, -math.inf))
            assert limits == limit_utilities(market, b)
            assert limits == self._extremes(b.bets * market.odds)

    def test_partial_takes_the_cash_into_every_payoff(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            market = random_market(rng, m)
            b = random_partial_allocation(rng, m)
            limits = (utility_partial(market, b, math.inf), utility_partial(market, b, -math.inf))
            assert limits == self._extremes(b.cash + b.bets * market.odds)
        # all cash pays 1 whoever wins
        market = new_race([0.5, 0.5], [2, 3])
        for beta in (math.inf, -math.inf):
            assert utility_partial(market, PartialAllocation(1.0, [0.0, 0.0]), beta) == 0.0

    def test_side_info_runs_over_the_cells_that_can_occur(self):
        # a zero bet where the joint is 0 pays nothing, but that cell never happens
        market = new_side_info([[0.5, 0.0], [0.1, 0.4]], [2.0, 3.0])
        table = ConditionalAllocation([[1.0, 0.0], [0.25, 0.75]])
        assert utility_side_info(market, table, math.inf) == math.log2(2.25)
        assert utility_side_info(market, table, -math.inf) == -1.0
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_y, n_x = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            joint = rng.dirichlet(np.ones(n_y * n_x)).reshape(n_y, n_x)
            joint[:, 1:] *= rng.random((n_y, n_x - 1)) < 0.7
            market = new_side_info(joint / joint.sum(), rng.uniform(1.2, 8.0, size=n_x))
            table = random_conditional_allocation(rng, n_y, n_x)
            live = market.joint > 0.0
            expected = self._extremes((table.table * market.odds)[live])
            limits = tuple(utility_side_info(market, table, beta) for beta in (math.inf, -math.inf))
            assert limits == expected

    def test_the_worst_case_of_a_zero_bet_is_minus_inf(self):
        market = new_race([0.5, 0.5], [2, 4])
        assert utility_full(market, Allocation([1.0, 0.0]), -math.inf) == -math.inf
        assert utility_full(market, Allocation([1.0, 0.0]), math.inf) == 1.0


# a possible winner with a zero bet: both sides of the identity are about
# log2(1 - p_dead) / beta, so the residual is bounded relative to |direct|
ZERO_BET_RACE = new_race([0.5, 0.3, 0.2], [2.2, 3.5, 6.0])
ZERO_BET_SIDE = new_side_info([[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]], [2.2, 3.5, 6.0])


@pytest.mark.parametrize("beta", [1e-15, 1e-12, 1e-9, 1e-6, 1e-3])
def test_a_zero_bet_keeps_the_identity_at_small_beta(beta):
    # the gambler term used to take the order fl(1 - beta), whose rounding is
    # 8e-4 of beta at 1e-15: a residual of 2.6e11 bits
    full = decompose_full(ZERO_BET_RACE, Allocation([0.6, 0.4, 0.0]), beta)
    table = ConditionalAllocation([[0.6, 0.4, 0.0], [0.3, 0.3, 0.4]])
    side = decompose_side_info(ZERO_BET_SIDE, table, beta)
    for report in (full, side):
        assert report.residual / max(1.0, abs(report.direct)) < 1e-14
        if beta == 1e-6:
            assert report.residual < 1e-9


@pytest.mark.parametrize("beta", [-1e-17, -1e-300])
def test_a_zero_bet_where_the_order_rounds_to_one_is_not_nan(beta):
    # fl(1 - beta) = 1, so the gambler term's q = 0 term used to weigh ln q = -inf
    # by 1 - 1 = 0: a NaN term, gambler term and residual
    full = decompose_full(ZERO_BET_RACE, Allocation([0.6, 0.4, 0.0]), beta)
    table = ConditionalAllocation([[0.6, 0.4, 0.0], [0.3, 0.3, 0.4]])
    side = decompose_side_info(ZERO_BET_SIDE, table, beta)
    for report in (full, side):
        assert report.gambler_term == math.inf
        assert report.total == report.direct == -math.inf
        assert report.residual == 0.0


class TestDecomposeFull:
    def test_optimal_allocation_has_zero_gambler_term(self):
        g = optimal_full(MARKET_B, 0.5)
        report = decompose_full(MARKET_B, g, 0.5)
        assert report.gambler_term == pytest.approx(0.0, abs=1e-12)
        assert report.residual < 1e-12

    def test_uniform_fair_market(self):
        market = new_race([1 / 3, 1 / 3, 1 / 3], [3, 3, 3])
        b = Allocation([0.5, 0.25, 0.25])
        report = decompose_full(market, b, 0.5)
        assert report.log_c == pytest.approx(0.0, abs=1e-12)
        assert report.bookie_term == pytest.approx(0.0, abs=1e-12)
        assert report.total == pytest.approx(-report.gambler_term, abs=1e-12)
        assert report.residual < 1e-10

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            market = random_market(rng, int(rng.integers(2, 6)))
            b = random_interior_allocation(rng, market.m)
            beta = float(rng.choice([-2.0, -0.5, 0.25, 0.9]))
            report = decompose_full(market, b, beta)
            assert report.residual < 1e-9

    def test_optimum_with_underflowed_weights(self):
        # near beta = 1 most optimal weights underflow to 0, yet the gambler
        # term, evaluated from the optimizer's log-weights, keeps the identity
        rng = np.random.default_rng(28)
        underflowed = 0
        for beta in (0.999, 1 - 1e-6, 1 - 1e-9):
            for _ in range(50):
                market = random_market(rng, int(rng.integers(3, 9)), odds_hi=100.0)
                g = optimal_full(market, beta)
                underflowed += int(np.any(g.bets == 0.0))
                assert decompose_full(market, g, beta).residual < 1e-9
        assert underflowed > 0

    def test_matching_infinities_flagged_as_zero_residual(self):
        report = decompose_full(MARKET_B, Allocation([1.0, 0.0]), -0.5)
        assert report.total == -math.inf
        assert report.direct == -math.inf
        assert report.residual == 0.0

    def test_rejects_beta_at_or_above_one(self):
        with pytest.raises(BetaOutOfRangeError):
            decompose_full(MARKET_B, Allocation([0.5, 0.5]), 1.0)


class TestDecomposeKelly:
    def test_proportional_betting(self):
        report = decompose_kelly(MARKET_B, Allocation([0.6, 0.4]))
        assert report.gambler_term == pytest.approx(0.0, abs=1e-14)
        assert report.total == pytest.approx(0.029049, abs=1e-6)
        assert report.residual < 1e-12

    def test_gambler_term_of_kelly_is_never_negative(self):
        # a KL divergence of p from (a rounding of) itself: >= 0, not -4e-16
        rng = np.random.default_rng(26)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(2, 30)))
            assert decompose_full(market, kelly(market), 0.0).gambler_term >= 0.0

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            market = random_market(rng, int(rng.integers(2, 6)))
            b = random_interior_allocation(rng, market.m)
            report = decompose_kelly(market, b)
            assert report.residual < 1e-9

    def test_zero_bet_is_minus_inf_with_zero_residual(self):
        # the same extended-real report decompose_full gives for beta < 0
        report = decompose_kelly(MARKET_B, Allocation([1.0, 0.0]))
        assert report.gambler_term == math.inf
        assert report.total == -math.inf
        assert report.direct == -math.inf
        assert report.residual == 0.0

    def test_full_identity_at_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            market = random_market(rng, int(rng.integers(2, 30)))
            b = random_interior_allocation(rng, market.m)
            report = decompose_full(market, b, 0.0)
            assert report.residual < 1e-9
            assert report.direct == doubling_rate(market, b)
            # the KL split, written out
            kl_r = float(market.probs @ np.log2(market.probs * market.odds * sum(1 / market.odds)))
            kl_b = float(market.probs @ np.log2(market.probs / b.bets))
            assert report.bookie_term == pytest.approx(kl_r, rel=1e-12, abs=1e-14)
            assert report.gambler_term == pytest.approx(kl_b, rel=1e-12, abs=1e-14)


class TestDecomposeSideInfo:
    def test_optimal_table_has_zero_gambler_term(self):
        rng = np.random.default_rng(26)
        market = random_joint_market(rng, 3, 4)
        table, _ = optimal_side_info(market, 0.5)
        report = decompose_side_info(market, table, 0.5)
        assert report.gambler_term == pytest.approx(0.0, abs=1e-12)
        assert report.residual < 1e-10

    def test_single_signal_matches_flat_decomposition(self):
        market = new_side_info([[0.6, 0.4]], [2, 3])
        flat = new_race([0.6, 0.4], [2, 3])
        table = ConditionalAllocation([[0.7, 0.3]])
        b = Allocation([0.7, 0.3])
        for beta in (-1.0, 0.5):
            side = decompose_side_info(market, table, beta)
            full = decompose_full(flat, b, beta)
            assert side.log_c == pytest.approx(full.log_c, abs=1e-14)
            assert side.bookie_term == pytest.approx(full.bookie_term, abs=1e-12)
            assert side.gambler_term == pytest.approx(full.gambler_term, abs=1e-12)
            assert side.direct == pytest.approx(full.direct, abs=1e-12)

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n_y = int(rng.integers(2, 4))
            n_x = int(rng.integers(2, 5))
            market = random_joint_market(rng, n_y, n_x)
            table = random_conditional_allocation(rng, n_y, n_x)
            beta = float(rng.choice([-2.0, -0.5, 0.25, 0.9]))
            report = decompose_side_info(market, table, beta)
            assert report.residual < 1e-9

    @pytest.mark.parametrize("beta", [0.0, 5e-17, -5e-17, 1e-300])
    def test_identity_at_and_next_to_kelly(self, beta):
        # 1/(1 - beta) rounds to exactly 1 here, so the bookie term is the
        # conditional divergence at order 1: the signal-averaged KL
        rng = np.random.default_rng(30)
        for _ in range(100):
            n_y = int(rng.integers(1, 5))
            n_x = int(rng.integers(2, 8))
            market = random_joint_market(rng, n_y, n_x)
            table = random_conditional_allocation(rng, n_y, n_x)
            report = decompose_side_info(market, table, beta)
            assert report.residual < 1e-9
            optimal, _ = optimal_side_info(market, beta)
            assert decompose_side_info(market, optimal, beta).residual < 1e-9


# every regime of the interior reports, from the worst case to next to beta = 1
REPORT_BETAS = (-1e6, -5.0, -1.0, -0.5, 0.0, 1e-6, 0.25, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_bookie_terms_are_the_public_divergences(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 17))
    market = random_market(rng, m)
    side = random_joint_market(rng, int(rng.integers(1, 6)), m)
    r_table = np.broadcast_to(bookie_distribution(side), side.joint.shape)

    def gaps(beta):
        alpha = 1.0 / (1.0 - beta)
        full = decompose_full(market, kelly(market), beta).bookie_term
        public = renyi_div(market.probs, bookie_distribution(market), alpha)
        table, _ = optimal_side_info(side, beta)
        cond = decompose_side_info(side, table, beta).bookie_term
        cond_public = cond_renyi_div(side.conditional(), r_table, side.signal_probs, alpha)
        return abs(full - public), abs(cond - cond_public)

    for beta in REPORT_BETAS:
        assert max(gaps(beta)) <= 1e-14
    # Just past the centered threshold, |alpha - 1| > 2^-10, the log-sum-exp form
    # divides the rounding of sum p by alpha - 1 (divergence._CENTERED_T); the
    # reports use p and r as the market rounds them, the public calls normalize
    # them once more, so there the two agree to a few eps / |alpha - 1| only.
    for beta in (-1.1e-3, 1.1e-3):
        assert max(gaps(beta)) <= 16 * EPS / abs(1.0 / (1.0 - beta) - 1.0)
