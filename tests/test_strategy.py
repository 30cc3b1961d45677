import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from powerbet import (
    Allocation,
    BetaOutOfRangeError,
    NotApplicableError,
    PartialAllocation,
    dispatch,
    fold_cash_into_bets,
    kelly,
    kkt_residual,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    track_constant,
    utility_full,
    utility_partial,
    utility_side_info,
)

from helpers import (
    prefix_search_partial,
    random_interior_allocation,
    random_market,
    random_partial_allocation,
    random_subfair_market,
    random_superfair_market,
)

MARKET_B = new_race([0.6, 0.4], [2, 2])


class TestOptimalFull:
    def test_symmetric(self):
        g = optimal_full(new_race([0.5, 0.5], [2, 2]), 0.5)
        np.testing.assert_allclose(g.bets, [0.5, 0.5], atol=1e-15)

    def test_half_beta(self):
        # exponents 1/(1-b) = 2 and b/(1-b) = 1: weights (0.72, 0.32)
        g = optimal_full(MARKET_B, 0.5)
        np.testing.assert_allclose(g.bets, [9 / 13, 4 / 13], atol=1e-14)

    def test_negative_beta(self):
        # exponents 1/2 and -1/2; the common odds factor cancels
        g = optimal_full(MARKET_B, -1.0)
        expected = np.sqrt([0.6, 0.4])
        expected /= expected.sum()
        np.testing.assert_allclose(g.bets, expected, atol=1e-14)

    def test_all_entries_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            market = random_market(rng, int(rng.integers(2, 6)))
            beta = float(rng.uniform(-3, 0.95))
            if beta == 0.0:
                continue
            assert np.all(optimal_full(market, beta).bets > 0.0)

    @pytest.mark.parametrize("beta", [1.0, 1.5, math.inf])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(BetaOutOfRangeError):
            optimal_full(MARKET_B, beta)

    def test_tied_weights_stay_equal_close_to_one(self):
        # scores near 1e9 before normalizing used to leave tied weights at
        # 1/m +- 1e-9, which Allocation rejected as not summing to one
        rng = np.random.default_rng(20)
        for _ in range(500):
            m = int(rng.integers(2, 20))
            market = new_race(np.full(m, 1.0 / m), np.full(m, rng.uniform(1.2, 8.0)))
            bets = optimal_full(market, 1.0 - 1e-9).bets
            assert np.all(bets == bets[0])
            assert bets.sum() == pytest.approx(1.0, rel=1e-15)

    def test_zero_beta_is_proportional_betting(self):
        np.testing.assert_allclose(optimal_full(MARKET_B, 0.0).bets, [0.6, 0.4], rtol=4e-16)
        rng = np.random.default_rng(19)
        for _ in range(100):
            market = random_market(rng, int(rng.integers(2, 30)))
            g = optimal_full(market, 0.0)
            np.testing.assert_allclose(g.bets, kelly(market).bets, rtol=1e-14)

    def test_optimality_against_random_rivals(self):
        rng = np.random.default_rng(12)
        for beta in (-2.0, -0.5, 0.25, 0.9):
            for _ in range(125):
                m = int(rng.choice([2, 3, 5]))
                market = random_market(rng, m)
                g = optimal_full(market, beta)
                best = utility_full(market, g, beta)
                for _ in range(20):
                    rival = random_interior_allocation(rng, m, floor=0.0)
                    value = utility_full(market, rival, beta)
                    assert value <= best + 1e-12
                    if np.max(np.abs(rival.bets - g.bets)) > 1e-6:
                        assert value < best

    def test_simplex_perturbations_strictly_lose(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            market = random_market(rng, m)
            beta = float(rng.uniform(-2, 0.9)) or 0.5
            g = optimal_full(market, beta)
            best = utility_full(market, g, beta)
            step = rng.normal(size=m)
            step -= step.mean()
            step *= 1e-3 / np.linalg.norm(step)
            if np.any(g.bets + step < 0):
                continue
            perturbed = Allocation(g.bets + step)
            assert utility_full(market, perturbed, beta) < best


class TestKelly:
    def test_matches_probabilities(self):
        np.testing.assert_array_equal(kelly(MARKET_B).bets, MARKET_B.probs)
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        np.testing.assert_array_equal(kelly(market).bets, market.probs)

    def test_is_the_probabilities_bit_for_bit(self):
        # about one market in five has probabilities summing to 1 -+ 1 ulp, which
        # a second normalization would move
        rng = np.random.default_rng(31)
        for _ in range(2000):
            market = random_market(rng, int(rng.integers(2, 17)))
            for b in (kelly(market), dispatch(market, 0.0)):
                np.testing.assert_array_equal(b.bets, market.probs, strict=True)
                assert not b.bets.flags.writeable


class TestOptimalDegenerate:
    """``dispatch`` at ``beta >= 1``: the single-horse bet."""

    def test_expected_return(self):
        g = dispatch(MARKET_B, 1.0)
        np.testing.assert_array_equal(g.bets, [1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        g = dispatch(new_race([0.5, 0.5], [2, 2]), 1.0)
        np.testing.assert_array_equal(g.bets, [1.0, 0.0])

    def test_square_root_weighting(self):
        # p^(1/2) * o = (31.6.., 0.94..): the long shot wins the argmax
        g = dispatch(new_race([0.1, 0.9], [100, 1]), 2.0)
        np.testing.assert_array_equal(g.bets, [1.0, 0.0])

    def test_achieves_the_bound(self):
        rng = np.random.default_rng(14)
        for beta in (1.0, 2.0, 5.0):
            for _ in range(60):
                market = random_market(rng, int(rng.integers(2, 5)))
                g = dispatch(market, beta)
                bound = math.log2(np.max(market.probs ** (1 / beta) * market.odds))
                assert utility_full(market, g, beta) == pytest.approx(bound, abs=1e-12)
                rival = random_interior_allocation(rng, market.m)
                assert utility_full(market, rival, beta) <= bound + 1e-12


class TestOptimalLimit:
    """``dispatch`` at ``+-inf``: the longest odds, and risk-free odds replication."""

    def test_best_case(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        g = dispatch(market, math.inf)
        np.testing.assert_array_equal(g.bets, [0.0, 0.0, 1.0])

    def test_worst_case_replicates_track_constant(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        g = dispatch(market, -math.inf)
        np.testing.assert_allclose(g.bets, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)
        payoffs = g.bets * market.odds
        np.testing.assert_allclose(payoffs, track_constant(market), rtol=1e-14)

    def test_fair_market_worst_case_is_flat(self):
        g = dispatch(new_race([0.5, 0.5], [2, 2]), -math.inf)
        np.testing.assert_allclose(g.bets * 2.0, 1.0, rtol=1e-15)

    def test_best_case_tie_breaks_to_lowest_index(self):
        g = dispatch(new_race([0.2, 0.5, 0.3], [2, 4, 4]), math.inf)
        np.testing.assert_array_equal(g.bets, [0.0, 1.0, 0.0])

    def test_best_case_reads_the_odds_not_their_logs(self):
        # both odds have the same log, but the second is the longer
        odds = [1e300, np.nextafter(1e300, math.inf)]
        assert math.log(odds[0]) == math.log(odds[1])
        g = dispatch(new_race([0.5, 0.5], odds), math.inf)
        np.testing.assert_array_equal(g.bets, [0.0, 1.0])


class TestOptimalSideInfo:
    def test_independent_signal_matches_marginal_optimum(self):
        p_x = np.array([0.6, 0.4])
        p_y = np.array([0.3, 0.7])
        joint = p_y[:, None] * p_x[None, :]
        market = new_side_info(joint, [2, 3])
        table, g_y = optimal_side_info(market, 0.5)
        marginal = optimal_full(new_race(p_x, [2, 3]), 0.5)
        for row in table.table:
            np.testing.assert_allclose(row, marginal.bets, atol=1e-12)
        # with nothing to learn, signal weights follow the signal itself
        np.testing.assert_allclose(g_y, p_y, atol=1e-12)

    def test_single_signal(self):
        market = new_side_info([[0.6, 0.4]], [2, 3])
        table, g_y = optimal_side_info(market, -0.5)
        marginal = optimal_full(new_race([0.6, 0.4], [2, 3]), -0.5)
        np.testing.assert_allclose(table.table[0], marginal.bets, atol=1e-14)
        np.testing.assert_allclose(g_y, [1.0])

    def test_perfect_information_bets_on_the_winner(self):
        market = new_side_info([[0.5, 0.0], [0.0, 0.5]], [2.0, 3.0])
        table, _ = optimal_side_info(market, 0.5)
        np.testing.assert_array_equal(table.table, [[1.0, 0.0], [0.0, 1.0]])

    def test_tied_weights_stay_equal_close_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n, m = int(rng.integers(1, 5)), int(rng.integers(2, 10))
            market = new_side_info(np.full((n, m), 1.0 / (n * m)), np.full(m, rng.uniform(1.2, 8.0)))
            table, g_y = optimal_side_info(market, 1.0 - 1e-9)
            assert np.all(table.table == table.table[0, 0])
            assert np.all(g_y == g_y[0])

    def test_beats_every_rival_table(self):
        rng = np.random.default_rng(15)
        from helpers import random_conditional_allocation, random_joint_market

        for _ in range(50):
            market = random_joint_market(rng, 2, 3)
            beta = float(rng.choice([-1.0, 0.5]))
            table, _ = optimal_side_info(market, beta)
            best = utility_side_info(market, table, beta)
            for _ in range(10):
                rival = random_conditional_allocation(rng, 2, 3)
                assert utility_side_info(market, rival, beta) <= best + 1e-12


class TestOptimalPartial:
    def test_subfair_two_horse_closed_form(self):
        market = new_race([0.9, 0.1], [1.5, 1.5])
        sol = optimal_partial(market, 0.5)
        assert sol.support == (0,)
        assert sol.gamma_cap == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(sol.gammas, [77 / 6, 0.0], atol=1e-12)
        assert sol.allocation.cash == pytest.approx(6 / 83, abs=1e-12)
        np.testing.assert_allclose(sol.allocation.bets, [77 / 83, 0.0], atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, -3.0])
    def test_fairness_band_below_one_holds_the_cash(self, beta):
        # c = 1 - 1e-12 is "fair" to classify_fairness, but betting everything
        # loses 1.44e-12 bits there, and all cash loses nothing
        sol = optimal_partial(new_race(np.full(5, 0.2), np.full(5, 5 * (1 - 1e-12))), beta)
        assert sol.allocation.cash == 1.0 and sol.support == ()
        assert sol.utility == 0.0

    def test_superfair_invests_everything(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            market = random_superfair_market(rng, int(rng.integers(2, 5)))
            sol = optimal_partial(market, 0.5)
            assert sol.allocation.cash == 0.0
            full = optimal_full(market, 0.5)
            np.testing.assert_allclose(sol.allocation.bets, full.bets, atol=1e-14)
            assert sol.gamma_cap is None and sol.gammas is None

    def test_superfair_support_leaves_out_a_bet_rounded_to_zero(self):
        # close to beta = 1 the long shot's bet underflows: it is not in the support
        sol = optimal_partial(new_race([0.999, 0.001], [1.5, 3.0]), 0.999)
        assert sol.allocation.bets.tolist() == [1.0, 0.0]
        assert sol.support == (0,)

    def test_hopeless_market_keeps_all_cash(self):
        # every p*o = 0.5 below the empty-support threshold of 1
        market = new_race([0.5, 0.5], [1, 1])
        sol = optimal_partial(market, 0.5)
        assert sol.allocation.cash == 1.0
        assert sol.support == ()
        assert sol.gamma_cap == pytest.approx(1.0)
        assert sol.utility == 0.0

    def test_support_is_a_payoff_prefix_with_positive_cash(self):
        rng = np.random.default_rng(17)
        for beta in (-0.5, 0.5, 0.9, 0.99, 0.0):
            for _ in range(50):
                market = random_subfair_market(rng, int(rng.integers(2, 6)))
                sol = optimal_partial(market, beta)
                assert sol.allocation.cash > 0.0
                scores = market.probs * market.odds
                inside = np.zeros(market.m, dtype=bool)
                inside[list(sol.support)] = True
                # every backed horse strictly beats the threshold, others do not
                assert np.all(scores[inside] > sol.gamma_cap)
                assert np.all(scores[~inside] <= sol.gamma_cap + 1e-12)
                # claim: bets = gamma_i * cash and cash = 1/(1 + sum gamma)
                np.testing.assert_allclose(
                    sol.allocation.bets, sol.gammas * sol.allocation.cash, atol=1e-12
                )
                assert sol.allocation.cash == pytest.approx(
                    1.0 / (1.0 + sol.gammas.sum()), rel=1e-12
                )
                report = kkt_residual(market, beta, sol.allocation, gamma_cap=sol.gamma_cap)
                assert report.stationarity_gap < 1e-8
                assert report.feasibility_gap < 1e-8
                assert report.cash_stationarity_gap < 1e-8
                assert report.cash_feasibility_gap < 1e-8
                assert report.mu_gamma_gap < 1e-8

    def test_threshold_support_matches_prefix_search(self):
        rng = np.random.default_rng(21)
        for beta in (-3.0, -0.5, 0.3, 0.5, 0.0):
            for _ in range(100):
                market = random_subfair_market(rng, int(rng.integers(2, 12)))
                sol = optimal_partial(market, beta)
                support, value = prefix_search_partial(market, beta)
                assert sol.support == support
                assert abs(sol.utility - value) <= 1e-12

    def test_cash_rounds_to_zero_close_to_one(self):
        # p*o / cap = 4.5 for the backed horse: its coefficient is
        # 4.5^(1/(1-beta)) / 1.5, past the largest double at beta = 0.999, so
        # the cash 1 / (1 + gamma) rounds to 0.0
        market = new_race([0.9, 0.1], [1.5, 1.5])
        assert optimal_partial(market, 0.99).support == (0,)
        sol = optimal_partial(market, 0.999)
        assert sol.allocation.cash == 0.0
        np.testing.assert_array_equal(sol.allocation.bets, [1.0, 0.0])
        assert sol.support == (0,)
        np.testing.assert_array_equal(sol.gammas, [math.inf, 0.0])

    def test_matches_a_60_digit_closed_form(self):
        # cap over the solver's support, then gamma_i = ((p_i o_i / cap)^(1/(1-beta)) - 1) / o_i,
        # cash = 1 / (1 + sum gamma) and bets = gamma * cash, all in 60-digit decimals
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(60):
            market = random_subfair_market(rng, int(rng.integers(2, 65)))
            for beta in (-1e6, -1e3, -1.0, 0.0, float(rng.uniform(-1.0, 0.99)), 0.99):
                sol = optimal_partial(market, beta)
                with localcontext() as ctx:
                    ctx.prec = 60
                    p = [Decimal(float(x)) for x in market.probs]
                    o = [Decimal(float(x)) for x in market.odds]
                    backed = set(sol.support)
                    unbacked_mass = sum(p[i] for i in range(market.m) if i not in backed)
                    cap = unbacked_mass / (1 - sum(1 / o[i] for i in backed))
                    power = 1 / (1 - Decimal(beta))
                    gammas = [
                        (((p[i] * o[i] / cap).ln() * power).exp() - 1) / o[i] if i in backed else 0
                        for i in range(market.m)
                    ]
                    cash = 1 / (1 + sum(gammas))
                    exact = [float(cash)] + [float(g * cash) for g in gammas]
                got = [sol.allocation.cash, *sol.allocation.bets]
                worst = max(worst, max(abs(a - b) / b for a, b in zip(got, exact) if b > 0))
        assert worst <= 1e-10

    def test_beats_random_partial_rivals(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            market = random_subfair_market(rng, int(rng.integers(2, 5)))
            beta = float(rng.choice([-0.5, 0.5]))
            sol = optimal_partial(market, beta)
            for _ in range(20):
                rival = random_partial_allocation(rng, market.m)
                assert utility_partial(market, rival, beta) <= sol.utility + 1e-12

    def test_rejects_bad_beta(self):
        with pytest.raises(BetaOutOfRangeError):
            optimal_partial(MARKET_B, 1.5)

    # Exactly tied scores p o, from tied (p, o) pairs or from p halved where o doubles: inside
    # the support, on the threshold (cap rounds just below their 0.75, though neither is
    # backed), and every horse tied; then 200 horses in three bands of ties, the top two
    # backed, which numpy's default sort ranks unlike a stable one.  The order of tied
    # horses changes the suffix sums, so the cap and every fraction may move by an ulp.
    _w = 2.0 ** np.random.default_rng(44).integers(0, 3, 200)
    _b = np.random.default_rng(45).choice([1.0, 1.5, 3.0], 200)
    TIED = {
        "inside": ([0.2, 0.1, 0.3, 0.15, 0.25], [6.0, 12.0, 2.5, 2.0, 1.2]),
        "threshold": ([0.5, 0.2, 0.1, 0.2], [3.0, 3.75, 7.5, 1.5]),
        "all": ([0.5, 0.25, 0.125, 0.125], [1.8, 3.6, 7.2, 7.2]),
        "bands": (_w / _w.sum(), _b / _w * (0.9 * np.sum(_w / _b))),
    }

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.5, 0.99])
    @pytest.mark.parametrize("case", sorted(TIED))
    def test_tied_scores_rank_as_a_stable_sort(self, monkeypatch, case, beta):
        market = new_race(*self.TIED[case])
        scores = market.probs * market.odds
        assert np.unique(scores).size < market.m  # the race has exact ties

        def bits(sol):
            alloc, cap = sol.allocation, sol.gamma_cap
            return (
                sol.support, alloc.cash.hex(), alloc.bets.tobytes(),
                sol.gammas.tobytes(), cap.hex(), sol.utility.hex(),
            )

        sol = optimal_partial(market, beta)
        # the threshold from the suffix sums in the stable order, ties to the smaller index
        order = np.argsort(-scores, kind="stable")
        slack = 1.0 - np.concatenate(([0.0], np.cumsum(1.0 / market.odds[order])))
        outside = np.append(np.cumsum(market.probs[order][::-1])[::-1], 0.0)
        k = len(sol.support)
        assert sol.gamma_cap.hex() == float(outside[k] / slack[k]).hex()
        argsort = np.argsort  # and every other output as when each sort is stable
        monkeypatch.setattr(np, "argsort", lambda a, kind=None: argsort(a, kind="stable"))
        assert bits(sol) == bits(optimal_partial(market, beta))


class TestFoldCashIntoBets:
    def test_all_cash_becomes_bookie_mix(self):
        folded = fold_cash_into_bets(MARKET_B, PartialAllocation(1.0, [0.0, 0.0]))
        np.testing.assert_allclose(folded.bets, [0.5, 0.5], atol=1e-15)

    def test_no_cash_is_identity(self):
        folded = fold_cash_into_bets(MARKET_B, PartialAllocation(0.0, [0.7, 0.3]))
        np.testing.assert_allclose(folded.bets, [0.7, 0.3], atol=1e-15)

    def test_mixed(self):
        folded = fold_cash_into_bets(MARKET_B, PartialAllocation(0.4, [0.6, 0.0]))
        np.testing.assert_allclose(folded.bets, [0.8, 0.2], atol=1e-15)

    def test_never_decreases_utility(self):
        partial = PartialAllocation(0.4, [0.6, 0.0])
        folded = fold_cash_into_bets(MARKET_B, partial)
        as_partial = PartialAllocation(0.0, folded.bets)
        for beta in (-2.0, -0.5, 0.5, 1.0, 2.0):
            assert utility_partial(MARKET_B, as_partial, beta) >= utility_partial(
                MARKET_B, partial, beta
            ) - 1e-12

    def test_rejects_subfair(self):
        market = new_race([0.9, 0.1], [1.5, 1.5])
        with pytest.raises(NotApplicableError):
            fold_cash_into_bets(market, PartialAllocation(0.5, [0.5, 0.0]))

    def test_rejects_the_fairness_band_below_one(self):
        # c = 1 - 5e-13 is "fair" to classify_fairness, but folding lowers each payoff
        market = new_race([0.9, 0.1], [2 * (1 - 5e-13)] * 2)
        with pytest.raises(NotApplicableError):
            fold_cash_into_bets(market, PartialAllocation(0.5, [0.5, 0.0]))


class TestDispatch:
    def test_routes_zero_to_kelly(self):
        np.testing.assert_array_equal(dispatch(MARKET_B, 0.0).bets, MARKET_B.probs)

    # with cash allowed, the route is optimal_partial(market, beta).allocation
    def test_routes_partial(self):
        market = new_race([0.9, 0.1], [1.5, 1.5])
        result = optimal_partial(market, 0.5).allocation
        assert isinstance(result, PartialAllocation)
        assert result.cash > 0.0

    def test_routes_limits(self):
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        np.testing.assert_array_equal(dispatch(market, math.inf).bets, [0, 0, 1])
        np.testing.assert_allclose(dispatch(market, -math.inf).bets, [4 / 7, 2 / 7, 1 / 7])

    def test_routes_degenerate(self):
        np.testing.assert_array_equal(dispatch(MARKET_B, 2.0).bets, [1.0, 0.0])

    def test_routes_interior(self):
        np.testing.assert_allclose(dispatch(MARKET_B, 0.5).bets, [9 / 13, 4 / 13], atol=1e-14)

    @pytest.mark.parametrize("beta", [math.nan, 2e6, -2e6])
    def test_refuses_beta_out_of_range(self, beta):
        with pytest.raises(BetaOutOfRangeError, match=r"\|beta\| <= 1e\+06"):
            dispatch(MARKET_B, beta)

    @pytest.mark.parametrize("beta", [1.0, 2.0, math.inf, -math.inf])
    def test_partial_needs_interior_beta(self, beta):
        with pytest.raises(BetaOutOfRangeError):
            optimal_partial(MARKET_B, beta).allocation

    def test_routes_partial_kelly(self):
        # fair odds: all in, proportionally; subfair: Kelly's cash threshold
        fair = optimal_partial(MARKET_B, 0.0).allocation
        assert fair.cash == 0.0
        np.testing.assert_allclose(fair.bets, [0.6, 0.4], rtol=4e-16)
        subfair = optimal_partial(new_race([0.9, 0.1], [1.5, 1.5]), 0.0).allocation
        assert subfair.cash == pytest.approx(0.3, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(subfair.bets, [0.7, 0.0], rtol=1e-15)
