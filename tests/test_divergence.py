import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from powerbet import (
    Allocation,
    InvalidDistributionError,
    LengthMismatchError,
    UnsupportedOrderError,
    cond_renyi_div,
    new_race,
    renyi_div,
    utility_full,
)

from powerbet.divergence import _LN2, _log, _logsumexp, _tilted_mean

from helpers import random_pmf


EPS = np.finfo(float).eps
# orders on both sides of 1, at 1 and next to it
IDENTICAL_ORDERS = (0.3, 0.5, 0.999, 1.0, 1 + 1e-9, 2.0, 3.0)


class TestRenyiDiv:
    def test_identical_distributions(self):
        assert renyi_div([0.3, 0.7], [0.3, 0.7], 0.5) == pytest.approx(0.0, abs=1e-15)
        # rounding never leaves it below +0.0, not even at -0.0
        rng = np.random.default_rng(5)
        pmfs = [[0.2, 0.3, 0.5]] + [random_pmf(rng, m) for m in (1, 2, 3) for _ in range(5)]
        for p in pmfs:
            for alpha in IDENTICAL_ORDERS:
                assert math.copysign(1.0, renyi_div(p, p, alpha)) == 1.0, (p, alpha)

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
        # only NaN and negative orders lie outside [0, inf]
        for alpha in (-0.5, -5e-324, -math.inf, math.nan):
            with pytest.raises(UnsupportedOrderError):
                renyi_div([0.5, 0.5], [0.5, 0.5], alpha)
            with pytest.raises(UnsupportedOrderError):
                cond_renyi_div([[0.5, 0.5]], [[0.5, 0.5]], [1.0], alpha)

    def test_kl_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.02)
            q = random_pmf(rng, n, floor=0.02)
            kl = renyi_div(p, q, 1.0)
            for eps in (1e-5, -1e-5):
                assert abs(renyi_div(p, q, 1.0 + eps) - kl) < 1e-3

    def test_continuous_at_order_one(self):
        # D_alpha - KL = (alpha - 1) Var_p(ln p/q) / (2 ln 2) + O((alpha - 1)^2)
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p = random_pmf(rng, n, floor=0.01)
            q = random_pmf(rng, n, floor=0.01)
            kl = renyi_div(p, q, 1.0)
            log_ratio = np.log(p) - np.log(q)
            slope = float(p @ (log_ratio - p @ log_ratio) ** 2) / _LN2
            for t in (1e-6, 1e-9, 1e-12, 1e-15):
                for alpha in (1.0 + t, 1.0 - t):
                    gap = renyi_div(p, q, alpha) - kl
                    assert abs(gap) <= slope * t + 4 * EPS * max(1.0, kl)
                    assert math.copysign(1.0, alpha - 1.0) * gap >= -4 * EPS * max(1.0, kl)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_within_a_picobit_of_kl_next_to_order_one(self, alpha):
        p, q = [0.6, 0.3, 0.1], [0.5, 0.25, 0.25]
        assert abs(renyi_div(p, q, alpha) - renyi_div(p, q, 1.0)) < 1e-12

    def test_nonnegative_and_monotone_in_order(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.02)
            q = random_pmf(rng, n, floor=0.02)
            values = [renyi_div(p, q, a) for a in (0.3, 0.7, 1.5, 3.0)]
            assert all(v >= -1e-12 for v in values)
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [1e300, 8.18e307, 1e308, np.finfo(float).max])
    def test_huge_orders_reach_the_max_ratio_limit(self, alpha):
        # D_inf = log2 max_{p > 0} p/q, within 1075/alpha bits of D_alpha; the far form's
        # terms alpha ln p + (1 - alpha) ln q overflow from about 6e307
        p = [4 / 9, 4 / 9, 1 / 9]
        assert abs(renyi_div(p, p[::-1], alpha) - 2.0) <= 1e-15
        # per row in the conditional form: log2 sum_y p(y) max_x p(x|y)/q(x|y)
        assert abs(cond_renyi_div([p, p[::-1]], [p[::-1], p], [0.5, 0.5], alpha) - 2.0) <= 1e-15
        assert renyi_div([0.5, 0.0, 0.5], [0.5, 0.5, 0.0], alpha) == math.inf
        assert renyi_div([0.5, 0.0, 0.5], [0.25, 0.5, 0.25], alpha) == 1.0


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
        # rounding never leaves it below +0.0, not even at -0.0
        rng = np.random.default_rng(6)
        cases = [([0.25, 0.75], [[0.5, 0.5]] * 2)]
        for m in (1, 2, 3):
            for n_y in (1, 2, 3):
                cases += [_random_conditional_setup(rng, n_y, m)[:2] for _ in range(3)]
        for p_y, table in cases:
            for alpha in IDENTICAL_ORDERS:
                value = cond_renyi_div(table, table, p_y, alpha)
                assert math.copysign(1.0, value) == 1.0, (table, p_y, alpha)

    def test_perfectly_informative_signal(self):
        # each bracket is 0.5^(1/2); raised to 1/alpha = 2 gives 0.5, so the
        # average is 0.5 and the prefactor -1 yields exactly 1 bit
        value = cond_renyi_div(
            [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 0.5
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_order_one_is_the_averaged_kl(self):
        assert cond_renyi_div([[1, 0]], [[0.5, 0.5]], [1.0], 1.0) == 1.0
        rng = np.random.default_rng(9)
        for _ in range(200):
            n_y, n_x = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            p_y, p_cond, q_cond = _random_conditional_setup(rng, n_y, n_x)
            p_cond[:, 0] = 0.0  # a zero term in every row
            p_cond /= p_cond.sum(axis=1, keepdims=True)
            value = cond_renyi_div(p_cond, q_cond, p_y, 1.0)
            rows = [renyi_div(p_cond[y], q_cond[y], 1.0) for y in range(n_y)]
            assert value == pytest.approx(float(p_y @ rows), rel=1e-14, abs=0.0)
            # written out; a small KL is a difference of O(1) terms, so absolute
            with np.errstate(divide="ignore"):
                logs = np.where(p_cond > 0.0, np.log2(p_cond / q_cond), 0.0)
            averaged = float(p_y @ np.sum(p_cond * logs, axis=1))
            assert value == pytest.approx(averaged, rel=0.0, abs=16 * EPS)

    @pytest.mark.parametrize("alpha", [1e-308, 5.6e-309])
    def test_tiny_orders_whose_tilt_overflows_the_rows(self, alpha):
        # the outer tilt (alpha - 1)/alpha is finite, but times each row (3.32 and 4.32
        # bits) it overflows to -inf: the value is the limit, the least row
        p_cond, p_y = [[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5]
        value = cond_renyi_div(p_cond, [[0.1, 0.9], [0.05, 0.95]], p_y, alpha)
        assert value == pytest.approx(math.log2(10.0), abs=1e-15)
        # only the larger row's term overflows: it drops out, and the least row is left
        value = cond_renyi_div(p_cond, [[0.7, 0.3], [0.05, 0.95]], p_y, alpha)
        assert value == pytest.approx(-math.log2(0.7), abs=1e-15)

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
        # with a row per signal, both tables need the same columns
        n = len(p_y)
        with pytest.raises(LengthMismatchError, match="p_cond has 2 columns but q_cond has 3"):
            cond_renyi_div([[0.5, 0.5]] * n, [[0.5, 0.25, 0.25]] * n, p_y, 2.0)


def _pmf_with_zero_cells(rng, n):
    """A random PMF whose cells are each 0 with probability 0.3, but not all."""
    w = rng.dirichlet(np.ones(n)) * (rng.random(n) >= 0.3)
    if not w.any():
        w[rng.integers(n)] = 1.0
    return w / w.sum()


def _d0(p, q) -> float:
    """``D_0(p || q) = -log2 Q(p > 0)``, ``+inf`` where that mass is 0."""
    mass = math.fsum(q[p > 0.0])
    return -math.log2(mass) if mass > 0.0 else math.inf


def _dinf(p, q) -> float:
    """``D_inf(p || q) = log2 max_{p > 0} p/q``."""
    with np.errstate(divide="ignore"):
        return math.log2(float(np.max(p[p > 0.0] / q[p > 0.0])))


# from order 0 to infinity, across 1 and both ends of the double range
ORDER_GRID = (0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0 - 1e-9, 1.0, 2.0, 50.0, 1e300, 1e305, math.inf)


class TestOrderEnds:
    def test_orders_zero_and_infinity_are_the_limits(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            p, q = _pmf_with_zero_cells(rng, n), _pmf_with_zero_cells(rng, n)
            for alpha, reference in ((0.0, _d0(p, q)), (math.inf, _dinf(p, q))):
                value = renyi_div(p, q, alpha)
                if math.isinf(reference):
                    assert value == reference == math.inf
                else:
                    assert value == pytest.approx(max(reference, 0.0), rel=1e-13, abs=1e-15)

    def test_nondecreasing_from_zero_to_infinity(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            p, q = _pmf_with_zero_cells(rng, n), _pmf_with_zero_cells(rng, n)
            values = [renyi_div(p, q, alpha) for alpha in ORDER_GRID]
            assert values[0] >= 0.0
            assert all(b >= a * (1 - 1e-13) for a, b in zip(values, values[1:])), (p, q, values)

    def test_conditional_ends_are_the_per_signal_references(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            n_y, n_x = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            p_y = _pmf_with_zero_cells(rng, n_y)
            p_cond = np.array([_pmf_with_zero_cells(rng, n_x) for _ in range(n_y)])
            q_cond = np.array([_pmf_with_zero_cells(rng, n_x) for _ in range(n_y)])
            live = np.flatnonzero(p_y)
            # order 0: the outer tilt is -inf, so the least signal's D_0
            least = min(max(_d0(p_cond[y], q_cond[y]), 0.0) for y in live)
            value = cond_renyi_div(p_cond, q_cond, p_y, 0.0)
            assert value == pytest.approx(least, rel=1e-13, abs=1e-15)
            # infinity: the outer tilt is 1, so log2 sum_y p(y) 2^(D_inf,y)
            rows = [_dinf(p_cond[y], q_cond[y]) for y in live]
            top = math.log2(math.fsum(p_y[y] * 2.0 ** d for y, d in zip(live, rows)))
            value = cond_renyi_div(p_cond, q_cond, p_y, math.inf)
            assert value == pytest.approx(max(top, 0.0), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, math.inf])
    def test_a_single_signal_is_renyi_div_at_the_ends(self, alpha):
        rng = np.random.default_rng(54)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            p, q = _pmf_with_zero_cells(rng, n), _pmf_with_zero_cells(rng, n)
            plain, cond = renyi_div(p, q, alpha), cond_renyi_div([p], [q], [1.0], alpha)
            assert cond == plain or abs(cond - plain) <= 1e-12, (p, q)

    @pytest.mark.parametrize("alpha", [0.0, 5e-324, 1e-308, 1e308, math.inf])
    def test_no_warning_at_the_ends(self, alpha):
        rng = np.random.default_rng(55)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                n_y, n_x = int(rng.integers(1, 5)), int(rng.integers(1, 8))
                p_y = _pmf_with_zero_cells(rng, n_y)
                p_cond = np.array([_pmf_with_zero_cells(rng, n_x) for _ in range(n_y)])
                q_cond = np.array([_pmf_with_zero_cells(rng, n_x) for _ in range(n_y)])
                assert cond_renyi_div(p_cond, q_cond, p_y, alpha) >= 0.0
                assert renyi_div(p_cond[0], q_cond[0], alpha) >= 0.0


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

    def test_below_joint_at_an_order_next_to_one(self):
        # A property draw at alpha = 1 - 1e-9: the per-signal divergences are
        # 1.9e9 bits (a q = 0 cell drops 73% of the first row) and 321 bits, so
        # the outer tilts spread over about 1.3 around t = -1e-9.  The log-sum-exp
        # form divided the rounding of sum p(y) by t there, putting the conditional
        # divergence 1.5e-10 relative above the joint one.
        alpha = 1.0 - 1e-9
        p_y = np.array([1.4442908499008574e-08, 0.9999999855570915, 0.0, 0.0])
        p_cond = np.array(
            [
                [0.27244791653590766, 0.0, 0.0, 0.0, 5.481978253767884e-124, 0.7275520834640924],
                [0.0, 0.0, 0.999999999688658, 0.0, 0.0, 3.1134187548909604e-10],
                [0.2676314837685415, 0.0, 0.0, 0.7323685162314586, 0.0, 5.159572889266611e-124],
                [0.0, 0.21646204781419773, 0.3461892580068573, 0.3397294388286635,
                 0.09761925535028144, 4.069435171024201e-39],
            ]
        )
        q_cond = np.array(
            [
                [0.6037709427334587, 0.0709467264411187, 0.0, 0.3252823308254222,
                 4.1573455792301904e-16, 0.0],
                [0.058135186137995495, 0.0, 2.5826547408365515e-97, 0.0, 0.25559229620700863,
                 0.686272517654996],
                [0.6688508754936235, 0.0, 0.0, 0.0, 0.33114912450637635, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0, 5.927476123120327e-88],
            ]
        )
        p_joint, q_joint = (p_cond * p_y[:, None]).ravel(), (q_cond * p_y[:, None]).ravel()
        cond = cond_renyi_div(p_cond, q_cond, p_y, alpha)
        joint = renyi_div(p_joint, q_joint, alpha)
        assert cond <= joint
        reference = _decimal_cond_renyi(p_cond, q_cond, p_y, alpha)
        assert cond == pytest.approx(reference, rel=1e-12)
        reference = _decimal_cond_renyi([p_joint], [q_joint], [1.0], alpha)
        assert joint == pytest.approx(reference, rel=1e-12)


def _decimal_cond_renyi(p_cond, q_cond, p_y, alpha: float) -> float:
    """50-digit ``cond_renyi_div`` for an order ``alpha != 1``, on the float inputs
    with ``p_y`` and each table row scaled to sum to one; a single signal of
    weight 1 gives ``renyi_div``."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        weights = [Decimal(float(v)) for v in p_y]
        mean = Decimal(0)
        for w, p_row, q_row in zip(weights, p_cond, q_cond):
            if w == 0:
                continue
            p, q = [Decimal(float(v)) for v in p_row], [Decimal(float(v)) for v in q_row]
            bracket = sum(
                (a * (u / sum(p)).ln() + (1 - a) * (v / sum(q)).ln()).exp()
                for u, v in zip(p, q)
                if u > 0
            )
            mean += w / sum(weights) * (bracket.ln() / a).exp()
        return float(a / (a - 1) * mean.ln() / Decimal(2).ln())


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


def _decimal_tilted_mean(t: float, w, x) -> float:
    """50-digit reference for ``(1/t) log2 sum w e^(t x)`` with ``w`` scaled to
    sum to one over its positive entries; finite ``x`` only."""
    return _decimal_tilted_means([t], w, x)[0]


def _decimal_tilted_means(ts, w, x) -> list[float]:
    with localcontext() as ctx:
        ctx.prec = 50
        live = [(Decimal(float(a)), Decimal(float(b))) for a, b in zip(w, x) if a > 0.0]
        total = sum(a for a, _ in live)
        log_w = [(a / total).ln() for a, _ in live]
        ln2 = Decimal(2).ln()
        out = []
        for t in ts:
            if t == 0.0:
                out.append(float(sum(a * b for a, b in live) / total / ln2))
                continue
            tilt = Decimal(t)
            terms = [lw + tilt * b for lw, (_, b) in zip(log_w, live)]
            peak = max(terms)
            value = (peak + sum((v - peak).exp() for v in terms).ln()) / tilt / ln2
            out.append(float(value))
        return out


GATE = 2.0**-10
KERNEL_TS = sorted(
    {0.0, GATE, math.nextafter(GATE, math.inf)}
    | {
        sign * m
        for sign in (1.0, -1.0)
        for m in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.1, 1.0, 7.0, 1e3, 1e6)
    }
)


def _centered(t: float) -> bool:
    return abs(t) <= GATE


def _kernel_tolerance(t: float, w, x) -> float:
    """A few ulps of the output scale, plus eps/|t| on the log-sum-exp branch."""
    tol = 64 * EPS * (1.0 + max(abs(v) for v in x) / _LN2)
    if not _centered(t):
        peak = max(math.log(a) + t * b for a, b in zip(w, x) if a > 0.0)
        tol += 64 * EPS * (1.0 + abs(peak)) / (abs(t) * _LN2)
    return tol


def _kernel_case(rng):
    """A PMF with some entries down to 1e-300 and log-payoffs over a random range."""
    m = int(rng.integers(2, 30))
    w = rng.dirichlet(np.ones(m))
    tiny = rng.random(m) < 0.2
    w[tiny] = 10.0 ** -rng.uniform(20, 300, size=int(tiny.sum()))
    w /= w.sum()
    x = rng.uniform(-1.0, 1.0, size=m) * float(rng.choice([1e-3, 1.0, 30.0, 690.0]))
    return w, x


class TestTiltedMeanKernel:
    def test_matches_decimal_reference_on_both_branches(self):
        rng = np.random.default_rng(61)
        for _ in range(16):
            w, x = _kernel_case(rng)
            for t, expected in zip(KERNEL_TS, _decimal_tilted_means(KERNEL_TS, w, x)):
                value = _tilted_mean(t, np.log(w), x)
                assert value == pytest.approx(expected, rel=0, abs=_kernel_tolerance(t, w, x))

    @pytest.mark.parametrize("t", [1e-15, -1e-9, GATE, -GATE, 0.5, -3.0])
    def test_rows_reduce_separately(self, t):
        # a shared weight vector broadcast over the rows, as in the grid scan,
        # and one weight row per row, as in the conditional divergence
        rng = np.random.default_rng(62)
        w, _ = _kernel_case(rng)
        scales = np.array([[1e-3], [1.0], [500.0], [513.0], [690.0]])  # tilts up to 1.35 wide
        x = rng.uniform(-1.0, 1.0, size=(5, w.size)) * scales
        table = rng.dirichlet(np.ones(w.size), size=5)
        for weights in (w, table):
            out = _tilted_mean(t, np.log(weights), x, axis=-1)
            assert out.shape == (5,)
            for row_w, row_x, value in zip(np.broadcast_to(weights, x.shape), x, out):
                expected = _decimal_tilted_mean(t, row_w, row_x)
                tol = _kernel_tolerance(t, row_w, row_x)
                assert value == pytest.approx(expected, rel=0, abs=tol)
                # a far row's terms are gathered alone: the row is the same on its own
                assert value == _tilted_mean(t, np.log(row_w), row_x)

    def test_one_pmf_is_its_row_bit_for_bit(self):
        # the whole array is reduced as one row of the same code, which must keep
        # the branch and the rounding of the row form, also with zero weights
        # and near the gate
        rng = np.random.default_rng(63)
        for _ in range(40):
            w, x = _kernel_case(rng)
            w[rng.random(w.size) < 0.2] = 0.0
            x *= float(rng.choice([1.0, 1024.0 / (x.max() - x.min())]))
            log_w = np.log(w, where=w > 0.0, out=np.full(w.size, -math.inf))
            for t in KERNEL_TS:
                row = _tilted_mean(t, log_w[None, :], x[None, :], axis=-1)[0]
                assert _tilted_mean(t, log_w, x) == row

    @pytest.mark.parametrize("t", [t for t in KERNEL_TS if t != 0.0])
    def test_dropped_terms_leave_the_live_ones_centered(self, t):
        # e^(t x) = 0 drops a term of positive weight; near t = 0 the rest stay
        # centered, and the dropped mass adds log(1 - lost) / t, which may be huge
        rng = np.random.default_rng(64)
        for _ in range(20):
            w, x = _kernel_case(rng)
            drop = rng.random(w.size) < 0.3
            drop[0], drop[-1] = True, False
            x[drop] = -math.inf if t > 0.0 else math.inf
            log_w = np.log(w)
            value = _tilted_mean(t, log_w, x)
            assert value == _tilted_mean(t, log_w[None, :], x[None, :], axis=-1)[0]
            expected = _decimal_tilted_mean(t, w, x)
            tol = _kernel_tolerance(t, w[~drop], x[~drop]) + 64 * EPS * abs(expected)
            assert value == pytest.approx(expected, rel=0, abs=tol)

    @pytest.mark.parametrize("beta", [1e-15, 1e-12, 1e-9])
    def test_a_zero_payoff_keeps_small_beta_exact(self, beta):
        # the unbacked horse's term drops out; the whole-array form used to
        # leave the centered branch for it, off by 4.6e-2 bits at 1e-15
        market = new_race([0.6, 0.4, 1e-30], [2.2, 3.5, 6.0])
        b = Allocation([0.6, 0.4, 0.0])
        x = _log(b.bets * market.odds)
        expected = _decimal_tilted_mean(beta, market.probs, x)
        assert utility_full(market, b, beta) == pytest.approx(expected, rel=0, abs=1e-13)
        row = _tilted_mean(beta, np.log(market.probs)[None, :], x[None, :], axis=-1)[0]
        assert row == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [1 - 1e-15, 1 - 1e-12])
    def test_a_zero_q_keeps_orders_next_to_one_exact(self, alpha):
        # the q = 0 term drops out below order 1; the true value is about KL, 0.029
        p, q = np.array([0.6, 0.4 - 1e-30, 1e-30]), np.array([0.5, 0.5, 0.0])
        with np.errstate(divide="ignore"):
            x = np.log(p) - np.log(q)
        expected = _decimal_tilted_mean(alpha - 1.0, p, x)
        assert renyi_div(p, q, alpha) == pytest.approx(expected, rel=0, abs=1e-13)
        row = _tilted_mean(alpha - 1.0, np.log(p)[None, :], x[None, :], axis=-1)[0]
        assert row == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize("t", KERNEL_TS)
    def test_no_positive_weight_is_minus_inf_over_t(self, t):
        if t != 0.0:
            value = _tilted_mean(t, np.full(3, -math.inf), np.array([-0.5, 0.0, 0.5]))
            assert value == -math.inf / t

    @pytest.mark.parametrize(
        "t,spread,centered",
        [
            (GATE, 1024.0, True),
            (GATE, math.nextafter(1024.0, math.inf), True),
            (math.nextafter(GATE, math.inf), 1.0, False),
            (-GATE, 1024.0, True),
            (1e-12, 1e12, True),
            (1e-12, 2e12, True),
        ],
    )
    def test_gate_boundary(self, t, spread, centered):
        # weights that sum to 1 + 1e-10 tell the branches apart: the log-sum-exp
        # form keeps the 1e-10 and divides it by t, the centered form carries
        # it only as a relative error, also where the tilts span more than 1
        w = np.array([0.25, 0.5, 0.25]) * (1.0 + 1e-10)
        x = np.array([-spread / 2, 0.0, spread / 2])
        value = _tilted_mean(t, np.log(w), x)
        log_sum_exp = _logsumexp(np.log(w) + t * x) / (t * _LN2)
        assert _centered(t) == centered
        if centered:
            assert value == pytest.approx(_decimal_tilted_mean(t, w, x), rel=1e-9)
            assert value != log_sum_exp
        else:
            assert value == log_sum_exp

    @pytest.mark.parametrize("t", [GATE, -GATE])
    @pytest.mark.parametrize("spread", [4e3, 2e6])
    def test_a_row_far_from_its_mean_takes_the_log_sum_exp_form(self, t, spread):
        # the log1p term is 1.28 at a spread of 4e3 and overflows at 2e6: the value
        # lies over 1/|t| from mu, where mu + log1p(...) / t cancels, so the row
        # is the log-sum-exp value
        w = np.array([0.5, 0.5])
        x = np.array([0.0, spread])
        value = _tilted_mean(t, np.log(w), x)
        assert value == _logsumexp(np.log(w) + t * x) / (t * _LN2)
        assert value == pytest.approx(_decimal_tilted_mean(t, w, x), rel=1e-12)

    def test_far_branch_keeps_the_callers_terms(self):
        log_w = np.log([0.25, 0.75])
        terms = np.array([0.5, -0.25])
        assert _tilted_mean(0.5, log_w, np.zeros(2), terms) == _logsumexp(terms) / (0.5 * _LN2)

    @pytest.mark.parametrize("t", KERNEL_TS)
    def test_zero_bet(self, t):
        # -inf at t <= 0, and the term dropped (not renormalized away) above
        log_w = np.log([0.2, 0.3, 0.5])
        value = _tilted_mean(t, log_w, np.array([-math.inf, math.log(2.0), math.log(3.0)]))
        if t <= 0.0:
            assert value == -math.inf
        else:
            expected = (t * math.log2(3.0) + math.log2(0.5 + 0.3 * (2.0 / 3.0) ** t)) / t
            assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", KERNEL_TS)
    def test_zero_weight_entry_contributes_nothing(self, t):
        log_w = np.array([math.log(0.5), math.log(0.5), -math.inf])
        x = np.array([-0.5, 0.25, 123.0])
        value = _tilted_mean(t, log_w, x)
        assert value == pytest.approx(_tilted_mean(t, log_w[:2], x[:2]), rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("delta", [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 0.5, -0.5, 1.0, -0.9])
    def test_support_conventions(self, delta):
        alpha = 1.0 + delta
        # q = 0 where p > 0: +inf at alpha >= 1, the term dropped below
        value = renyi_div([0.5, 0.5], [1.0, 0.0], alpha)
        assert value == (math.inf if alpha >= 1.0 else pytest.approx(-alpha / (alpha - 1.0)))
        # disjoint supports: +inf at every order
        assert renyi_div([1.0, 0.0], [0.0, 1.0], alpha) == math.inf
        if alpha != 1.0:
            # a zero-probability signal row contributes nothing, whatever valid entries it holds
            p_cond, q_cond = [[0.6, 0.4], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]
            with_row = cond_renyi_div(p_cond, q_cond, [1.0, 0.0], alpha)
            assert with_row == pytest.approx(renyi_div([0.6, 0.4], [0.5, 0.5], alpha), rel=1e-12)

    def test_never_nan(self):
        x_values = [-math.inf, math.inf, -700.0, 0.0, 1e-300, 700.0]
        for t in KERNEL_TS:
            for a in x_values:
                for b in x_values:
                    if {a, b} == {-math.inf, math.inf}:
                        continue  # no row holds both infinities
                    x = np.array([a, b, 0.5])
                    assert not math.isnan(_tilted_mean(t, np.log([0.25, 0.25, 0.5]), x))
                    rows = np.vstack([x, x[::-1]])
                    out = _tilted_mean(t, np.log([0.25, 0.25, 0.5]), rows, axis=-1)
                    assert not np.any(np.isnan(out))
