import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from powerbet import (
    FairnessTag,
    LengthMismatchError,
    NonPositiveOddsError,
    NonPositiveProbabilityError,
    NotNormalizedError,
    bookie_distribution,
    classify_fairness,
    decompose_full,
    decompose_side_info,
    dispatch,
    kelly,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    track_constant,
)
from powerbet.divergence import _log
from powerbet.errors import InvalidDistributionError
from powerbet.strategy import ConditionalAllocation, _trusted

from helpers import random_market


class TestNewRace:
    def test_uniform_fair_race(self):
        market = new_race([0.5, 0.5], [2, 2])
        assert market.m == 2
        np.testing.assert_allclose(market.probs, [0.5, 0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            new_race([0.6, 0.5], [2, 2])

    def test_rejects_negative_odds(self):
        with pytest.raises(NonPositiveOddsError):
            new_race([0.6, 0.4], [2, -1])

    def test_rejects_zero_probability(self):
        with pytest.raises(NonPositiveProbabilityError):
            new_race([1.0, 0.0], [2, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            new_race([0.6, 0.4], [2, 2, 2])

    def test_renormalizes_within_tolerance(self):
        market = new_race([0.6 + 2e-10, 0.4], [2, 2])
        assert market.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        market = new_race([0.5, 0.5], [2, 2])
        with pytest.raises(ValueError):
            market.probs[0] = 0.9


class TestTrackConstant:
    def test_fair_two_horse(self):
        assert track_constant(new_race([0.5, 0.5], [2, 2])) == pytest.approx(1.0, abs=1e-15)

    def test_superfair(self):
        # direct harmonic sum: 1/2 + 1/4 + 1/8 = 7/8
        market = new_race([0.5, 0.3, 0.2], [2, 4, 8])
        assert track_constant(market) == pytest.approx(8 / 7, abs=1e-15)

    def test_subfair(self):
        market = new_race([0.5, 0.5], [1.5, 1.5])
        assert track_constant(market) == pytest.approx(0.75, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            market = random_market(rng, 5)
            perm = rng.permutation(5)
            shuffled = new_race(market.probs[perm], market.odds[perm])
            assert track_constant(shuffled) == pytest.approx(
                track_constant(market), rel=1e-14
            )


class TestBookieDistribution:
    def test_equal_odds(self):
        np.testing.assert_allclose(
            bookie_distribution(new_race([0.5, 0.5], [2, 2])), [0.5, 0.5]
        )

    def test_mixed_odds(self):
        r = bookie_distribution(new_race([0.5, 0.3, 0.2], [2, 4, 8]))
        np.testing.assert_allclose(r, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)

    def test_short_odds(self):
        r = bookie_distribution(new_race([0.5, 0.5], [1.5, 1.5]))
        np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(1, 7)))
            assert abs(bookie_distribution(market).sum() - 1.0) < 1e-12


class TestFairness:
    def test_fair(self):
        f = classify_fairness(new_race([0.5, 0.5], [2, 2]))
        assert f.tag is FairnessTag.FAIR
        assert f.c == track_constant(new_race([0.5, 0.5], [2, 2]))

    def test_subfair(self):
        assert classify_fairness(new_race([0.5, 0.5], [1.5, 1.5])).tag is FairnessTag.SUBFAIR

    def test_superfair(self):
        assert classify_fairness(new_race([0.5, 0.3, 0.2], [2, 4, 8])).tag is FairnessTag.SUPERFAIR


class TestSideInfoMarket:
    def test_valid(self):
        market = new_side_info([[0.3, 0.1], [0.2, 0.4]], [2, 3])
        assert market.n_signals == 2
        assert market.n_horses == 2
        np.testing.assert_allclose(market.signal_probs, [0.4, 0.6])
        np.testing.assert_allclose(market.horse_probs, [0.5, 0.5])
        rows = market.conditional()
        np.testing.assert_allclose(rows.sum(axis=1), [1.0, 1.0])

    def test_zero_horse_marginal_allowed(self):
        market = new_side_info([[0.5, 0.0], [0.5, 0.0]], [2, 3])
        assert market.horse_probs[1] == 0.0

    def test_zero_signal_rejected(self):
        with pytest.raises(InvalidDistributionError):
            new_side_info([[0.0, 0.0], [0.5, 0.5]], [2, 3])

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            new_side_info([[0.5, 0.2], [0.2, 0.2]], [2, 3])

    def test_odds_shape_mismatch(self):
        with pytest.raises(LengthMismatchError):
            new_side_info([[0.5, 0.5]], [2, 3, 4])


def _side_market(rng, signals=3, horses=5):
    joint = rng.dirichlet(np.ones(signals * horses)).reshape(signals, horses)
    joint[rng.random(joint.shape) < 0.2] = 0.0
    joint[:, 0] += 0.01  # every signal possible
    return new_side_info(joint / joint.sum(), rng.uniform(1.2, 8.0, size=horses))


def _report_bits(report) -> list[str]:
    return [value.hex() for value in dataclasses.astuple(report)]


class TestSolvedOnce:
    """What a market stores at construction, read-only, and the record an optimizer leaves
    on its allocation: its market, beta and log-weights, which the decomposition reads."""

    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_logs_and_track_constant_are_read_only_and_exact(self, m):
        rng = np.random.default_rng(m)
        market = random_market(rng, m)
        # a reversed view of the inputs: the stored copies are contiguous all the same
        backwards = new_race(market.probs[::-1], market.odds[::-1])
        for race in (market, backwards):
            assert race._log_p.tobytes() == np.log(race.probs).tobytes()
        side = _side_market(rng, horses=max(m, 2))
        assert side._log_cond.tobytes() == _log(side.conditional()).tobytes()
        assert side._log_p_y.tobytes() == np.log(side.signal_probs).tobytes()
        for mk in (market, backwards, side):
            assert mk._log_o.tobytes() == np.log(mk.odds).tobytes()
            assert mk._c.hex() == (1 / float((1 / mk.odds).sum())).hex()
            assert track_constant(mk) == classify_fairness(mk).c == mk._c
        stored = [market._log_p, backwards._log_p, side._log_cond, side._log_p_y]
        for values in stored + [mk._log_o for mk in (market, backwards, side)]:
            with pytest.raises(ValueError):
                values.flat[0] = 0.0

    def test_the_optimum_never_serves_a_stale_beta(self):
        # solved at 0.5, then decomposed at 0.9 and at 0.5: each report is a fresh market's
        rng = np.random.default_rng(44)
        race, side = random_market(rng, 6), _side_market(rng)
        cases = [
            (race, optimal_full(race, 0.5), lambda: new_race(race.probs, race.odds)),
            (side, optimal_side_info(side, 0.5)[0], lambda: new_side_info(side.joint, side.odds)),
        ]
        for market, bets, fresh in cases:
            for beta in (0.9, 0.5):
                got = decompose_full(market, bets, beta)
                assert _report_bits(got) == _report_bits(decompose_full(fresh(), bets, beta))

    def test_no_call_changes_a_market_after_it_is_built(self):
        rng = np.random.default_rng(46)
        race, side = random_market(rng, 6), _side_market(rng)
        before = [(mk, dict(vars(mk))) for mk in (race, side)]
        for beta in (-2.0, 0.0, 0.5, 0.9):
            decompose_full(race, optimal_full(race, beta), beta)
            decompose_full(race, kelly(race), beta)
            optimal_partial(race, beta)
            decompose_side_info(side, optimal_side_info(side, beta)[0], beta)
        for beta in (0.5, 2.0, math.inf, -math.inf):
            dispatch(race, beta)
        for mk, fields in before:
            assert vars(mk).keys() == fields.keys()
            assert all(vars(mk)[name] is value for name, value in fields.items())

    def test_an_optimum_of_another_market_decomposes_as_any_bet(self):
        # A's optimum on B, of the same shape, at the same beta: bit for bit the report of its
        # bets without a record on B rebuilt from its inputs, and not a report of A's weights
        rng = np.random.default_rng(47)
        race, side = random_market(rng, 6), _side_market(rng)
        cases = [
            (race, new_race(race.probs, race.odds), random_market(rng, 6), optimal_full),
            (
                side,
                new_side_info(side.joint, side.odds),
                _side_market(rng),
                lambda market, beta: optimal_side_info(market, beta)[0],
            ),
        ]
        for b, fresh, a, optimal in cases:
            for beta in (-2.0, 0.0, 0.5, 0.9):
                optimal(b, beta)  # B solved at this beta too
                foreign = optimal(a, beta)
                field = "table" if isinstance(foreign, ConditionalAllocation) else "bets"
                plain = _trusted(type(foreign), **{field: getattr(foreign, field)})
                got = _report_bits(decompose_full(b, foreign, beta))
                assert got == _report_bits(decompose_full(fresh, plain, beta))
                assert got != _report_bits(decompose_full(a, foreign, beta))

    def test_threads_sharing_a_market_never_pair_two_betas(self):
        # each thread solves the shared market at its own beta and decomposes at it, while
        # the others replace the optimum: every report must be the fresh market's
        rng = np.random.default_rng(45)
        market = random_market(rng, 40)
        betas = (-2.0, 0.0, 0.5, 0.9)
        want = {
            beta: _report_bits(decompose_full(new_race(market.probs, market.odds), bets, beta))
            for beta in betas
            for bets in [optimal_full(new_race(market.probs, market.odds), beta)]
        }
        wrong = []

        def work(beta):
            for _ in range(200):
                bets = optimal_full(market, beta)
                if _report_bits(decompose_full(market, bets, beta)) != want[beta]:
                    wrong.append(beta)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(beta,)) for beta in betas * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
