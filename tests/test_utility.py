import math

import numpy as np
import pytest

from powerbet import (
    Allocation,
    BetaOutOfRangeError,
    ConditionalAllocation,
    PartialAllocation,
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
    utility_full,
    utility_partial,
    utility_side_info,
)

from helpers import (
    random_conditional_allocation,
    random_interior_allocation,
    random_joint_market,
    random_market,
)

MARKET_B = new_race([0.6, 0.4], [2, 2])
EPS = np.finfo(float).eps


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
