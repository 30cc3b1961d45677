import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from powerbet import (
    InvalidDistributionError,
    LengthMismatchError,
    UnsupportedOrderError,
    cond_renyi_div,
    renyi_div,
)

from powerbet.divergence import _LN2, _logsumexp, _tilted_mean

from helpers import random_pmf


EPS = np.finfo(float).eps


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


def _centered(t: float, x) -> bool:
    return abs(t) <= GATE and abs(t) * (max(x) - min(x)) <= 1.0


def _kernel_tolerance(t: float, w, x) -> float:
    """A few ulps of the output scale, plus eps/|t| on the log-sum-exp branch."""
    tol = 64 * EPS * (1.0 + max(abs(v) for v in x) / _LN2)
    if not _centered(t, x):
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
        scales = np.array([[1e-3], [1.0], [500.0], [513.0], [690.0]])  # at 2^-10, only 690 is far
        x = rng.uniform(-1.0, 1.0, size=(5, w.size)) * scales
        table = rng.dirichlet(np.ones(w.size), size=5)
        for weights in (w, table):
            out = _tilted_mean(t, np.log(weights), x, axis=-1)
            assert out.shape == (5,)
            for row_w, row_x, value in zip(np.broadcast_to(weights, x.shape), x, out):
                expected = _decimal_tilted_mean(t, row_w, row_x)
                tol = _kernel_tolerance(t, row_w, row_x)
                assert value == pytest.approx(expected, rel=0, abs=tol)

    def test_one_pmf_is_its_row_bit_for_bit(self):
        # the whole-array form has its own code; it must take the branch the row
        # form takes and round the same, also with zero weights and near the gate
        rng = np.random.default_rng(63)
        for _ in range(40):
            w, x = _kernel_case(rng)
            w[rng.random(w.size) < 0.2] = 0.0
            x *= float(rng.choice([1.0, 1024.0 / (x.max() - x.min())]))
            log_w = np.log(w, where=w > 0.0, out=np.full(w.size, -math.inf))
            for t in KERNEL_TS:
                row = _tilted_mean(t, log_w[None, :], x[None, :], axis=-1)[0]
                assert _tilted_mean(t, log_w, x) == row

    @pytest.mark.parametrize("t", KERNEL_TS)
    def test_no_positive_weight_is_minus_inf_over_t(self, t):
        if t != 0.0:
            value = _tilted_mean(t, np.full(3, -math.inf), np.array([-0.5, 0.0, 0.5]))
            assert value == -math.inf / t

    @pytest.mark.parametrize(
        "t,spread,centered",
        [
            (GATE, 1024.0, True),
            (GATE, math.nextafter(1024.0, math.inf), False),
            (math.nextafter(GATE, math.inf), 1.0, False),
            (-GATE, 1024.0, True),
            (1e-12, 1e12, True),
            (1e-12, 2e12, False),
        ],
    )
    def test_gate_boundary(self, t, spread, centered):
        # weights that sum to 1 + 1e-10 tell the branches apart: the log-sum-exp
        # form keeps the 1e-10 and divides it by t, the centered form carries
        # it only as a relative error
        w = np.array([0.25, 0.5, 0.25]) * (1.0 + 1e-10)
        x = np.array([-spread / 2, 0.0, spread / 2])
        value = _tilted_mean(t, np.log(w), x)
        log_sum_exp = _logsumexp(np.log(w) + t * x) / (t * _LN2)
        assert _centered(t, x) == centered
        if centered:
            assert value == pytest.approx(_decimal_tilted_mean(t, w, x), rel=1e-9)
            assert value != log_sum_exp
        else:
            assert value == log_sum_exp

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
            # a zero-probability signal row contributes nothing, whatever it holds
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
