import math

import numpy as np
import pytest

from powerbet import (
    InvalidDistributionError,
    LengthMismatchError,
    UnsupportedOrderError,
    cond_renyi_div,
    renyi_div,
)

from powerbet.divergence import _logsumexp

from helpers import random_pmf


class TestRenyiDiv:
    def test_identical_distributions(self):
        assert renyi_div([0.3, 0.7], [0.3, 0.7], 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_against_uniform(self):
        # (1/(0.5-1)) * log2(sqrt(0.5)) = 1 bit
        assert renyi_div([1, 0], [0.5, 0.5], 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_kl_at_order_one(self):
        expected = 0.6 * math.log2(1.2) + 0.4 * math.log2(0.8)
        assert renyi_div([0.6, 0.4], [0.5, 0.5], 1.0) == pytest.approx(expected, abs=1e-15)

    def test_support_violation_above_one(self):
        assert renyi_div([0.5, 0.5], [1, 0], 2.0) == math.inf

    def test_kl_support_violation(self):
        assert renyi_div([0.5, 0.5], [1, 0], 1.0) == math.inf

    def test_disjoint_support_below_one(self):
        assert renyi_div([1, 0], [0, 1], 0.5) == math.inf

    def test_zero_p_entries_are_dropped(self):
        # q mass outside p's support lowers nothing at alpha > 1
        value = renyi_div([0.5, 0.5, 0.0], [0.25, 0.25, 0.5], 2.0)
        assert math.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            renyi_div([1.0], [0.5, 0.5], 0.5)

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistributionError):
            renyi_div([0.6, 0.6], [0.5, 0.5], 0.5)
        with pytest.raises(InvalidDistributionError):
            renyi_div([1.5, -0.5], [0.5, 0.5], 0.5)

    def test_bad_order(self):
        with pytest.raises(UnsupportedOrderError):
            renyi_div([0.5, 0.5], [0.5, 0.5], -0.5)

    def test_kl_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.02)
            q = random_pmf(rng, n, floor=0.02)
            kl = renyi_div(p, q, 1.0)
            for eps in (1e-5, -1e-5):
                assert abs(renyi_div(p, q, 1.0 + eps) - kl) < 1e-3

    def test_nonnegative_and_monotone_in_order(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.02)
            q = random_pmf(rng, n, floor=0.02)
            values = [renyi_div(p, q, a) for a in (0.3, 0.7, 1.5, 3.0)]
            assert all(v >= -1e-12 for v in values)
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


class TestCondRenyiDiv:
    def test_single_signal_reduces_to_unconditional(self):
        value = cond_renyi_div([[1, 0]], [[0.5, 0.5]], [1.0], 0.5)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_signal_matches_renyi_exactly(self):
        rng = np.random.default_rng(8)
        for alpha in (0.3, 0.7, 1.5, 3.0):
            p = random_pmf(rng, 4, floor=0.02)
            q = random_pmf(rng, 4, floor=0.02)
            assert cond_renyi_div([p], [q], [1.0], alpha) == pytest.approx(
                renyi_div(p, q, alpha), abs=1e-13
            )

    def test_identical_conditionals(self):
        table = [[0.2, 0.8], [0.7, 0.3]]
        assert cond_renyi_div(table, table, [0.5, 0.5], 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_perfectly_informative_signal(self):
        # each bracket is 0.5^(1/2); raised to 1/alpha = 2 gives 0.5, so the
        # average is 0.5 and the prefactor -1 yields exactly 1 bit
        value = cond_renyi_div(
            [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 0.5
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_order_one_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            cond_renyi_div([[1, 0]], [[0.5, 0.5]], [1.0], 1.0)

    def test_support_violation(self):
        value = cond_renyi_div([[0.5, 0.5]], [[1.0, 0.0]], [1.0], 2.0)
        assert value == math.inf

    def test_zero_probability_signal_skipped(self):
        # the second row is garbage but carries no weight
        value = cond_renyi_div(
            [[0.5, 0.5], [9.0, 9.0]], [[0.5, 0.5], [0.0, 0.0]], [1.0, 0.0], 0.5
        )
        assert value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p_y", [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [1.0]])
    def test_tables_need_one_row_per_signal(self, p_y):
        # the row count is checked before any row is indexed
        rows = [[0.5, 0.5], [0.25, 0.75]]
        with pytest.raises(LengthMismatchError):
            cond_renyi_div(rows, rows, p_y, 2.0)


def _random_conditional_setup(rng, n_signals, n_horses):
    p_y = random_pmf(rng, n_signals, floor=0.02)
    p_cond = np.vstack([random_pmf(rng, n_horses, floor=0.02) for _ in range(n_signals)])
    q_cond = np.vstack([random_pmf(rng, n_horses, floor=0.02) for _ in range(n_signals)])
    return p_y, p_cond, q_cond


class TestConditionalProperties:
    ALPHAS = (0.3, 0.7, 1.5, 3.0)

    def test_nonnegative_and_below_joint(self):
        rng = np.random.default_rng(9)
        for _ in range(250):
            n_y = int(rng.integers(2, 5))
            n_x = int(rng.integers(2, 5))
            p_y, p_cond, q_cond = _random_conditional_setup(rng, n_y, n_x)
            p_joint = (p_cond * p_y[:, None]).ravel()
            q_joint = (q_cond * p_y[:, None]).ravel()
            for alpha in self.ALPHAS:
                cond = cond_renyi_div(p_cond, q_cond, p_y, alpha)
                joint = renyi_div(p_joint, q_joint, alpha)
                assert cond >= -1e-12
                assert cond <= joint + 1e-12

    def test_conditioning_never_hurts_against_common_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(250):
            n_y = int(rng.integers(2, 5))
            n_x = int(rng.integers(2, 5))
            p_y, p_cond, _ = _random_conditional_setup(rng, n_y, n_x)
            r = random_pmf(rng, n_x, floor=0.02)
            r_table = np.tile(r, (n_y, 1))
            p_x = p_cond.T @ p_y
            for alpha in self.ALPHAS:
                marginal = renyi_div(p_x, r, alpha)
                conditional = cond_renyi_div(p_cond, r_table, p_y, alpha)
                assert marginal <= conditional + 1e-12


def _fsum_logsumexp(values) -> float:
    """Reference log-sum-exp: exact summation of the shifted exponentials."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return -math.inf
    peak = max(finite)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in finite))


class TestLogSumExpKernel:
    def test_finite_inputs_match_fsum(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            offset = float(rng.choice([0.0, -700.0, 700.0, -1e5]))
            values = offset + rng.uniform(-40.0, 40.0, size=n)
            expected = _fsum_logsumexp(values)
            assert _logsumexp(values) == pytest.approx(expected, rel=1e-14, abs=1e-13)

    def test_negative_infinity_entries_are_zero_terms(self):
        values = np.array([-math.inf, math.log(0.25), -math.inf, math.log(0.5)])
        assert _logsumexp(values) == pytest.approx(math.log(0.75), abs=1e-15)

    def test_all_negative_infinity_and_empty_give_negative_infinity(self):
        assert _logsumexp(np.full(3, -math.inf)) == -math.inf
        assert _logsumexp(np.array([])) == -math.inf

    def test_positive_infinity_wins(self):
        assert _logsumexp(np.array([0.0, math.inf, 1.0])) == math.inf
        assert _logsumexp(np.array([-math.inf, math.inf])) == math.inf

    def test_rows(self):
        rng = np.random.default_rng(20)
        table = rng.uniform(-30.0, 30.0, size=(6, 5))
        table[1, :2] = -math.inf
        table[2, :] = -math.inf
        table[3, 4] = math.inf
        out = _logsumexp(table, axis=1)
        assert out.shape == (6,)
        for row, value in zip(table, out):
            if math.inf in row:
                assert value == math.inf
            else:
                assert value == pytest.approx(_fsum_logsumexp(row), rel=1e-14, abs=1e-13)
        assert out[2] == -math.inf
        assert not np.any(np.isnan(out))

    def test_never_nan_and_silent(self):
        specials = [-math.inf, math.inf, 0.0, -1e300, 1e300, -1000.0, 1000.0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for a in specials:
                for b in specials:
                    assert not math.isnan(_logsumexp(np.array([a, b])))
