"""Whole-domain properties, drawn by hypothesis with a fixed derandomized
sequence of examples so every run checks the same inputs."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerbet import (
    Allocation,
    PartialAllocation,
    cond_renyi_div,
    decompose_full,
    decompose_side_info,
    dispatch,
    kkt_residual,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    renyi_div,
    utility_full,
    utility_partial,
    utility_side_info,
)
from powerbet.cli import main
from powerbet.oracle import _certify

from test_divergence import _kernel_tolerance

# Interior risk parameters: Kelly, the subnormal neighbours of Kelly, the
# approach 1 - 10^-k to beta = 1 and the double just below it, and the finite range.
BETAS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, -5e-324, math.nextafter(1.0, 0.0)]),
    st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k),
    st.floats(-1e6, 0.99),
)

# BETAS plus each edge of the tilted-mean kernel's near path: t = +-2^-10 and
# their float neighbours on both sides, and t = +-1e-15, where 1 - t rounds.
GATE = 2.0**-10
KERNEL_BETAS = st.one_of(
    BETAS,
    st.sampled_from(
        [
            sign * v
            for sign in (1.0, -1.0)
            for v in (GATE, math.nextafter(GATE, 0.0), math.nextafter(GATE, 1.0), 1e-15)
        ]
    ),
)
# Divergence orders at each kernel regime: the bookie term's order 1 / (1 - beta),
# and alpha = 1 + t on the gate, next to it and at 1e-15 from 1.
ORDERS = st.one_of(
    KERNEL_BETAS.map(lambda beta: 1.0 / (1.0 - beta)),
    st.sampled_from(
        [
            math.nextafter(1.0 + sign * GATE, side)
            for sign in (1.0, -1.0)
            for side in (0.0, 1.0 + sign * GATE, 2.0)
        ]
        + [1.0 + 1e-15, 1.0 - 1e-15, 1.0]
    ),
)


def _pmf(raw: list[float]) -> np.ndarray:
    v = np.asarray(raw)
    return v / v.sum()


# Track constants from 0.05 to 20, and on both sides of the FAIRNESS_TOL = 1e-12
# band around c = 1, where optimal_partial switches between holding cash and not.
TRACK_CONSTANTS = st.one_of(
    st.floats(0.05, 20.0),
    st.sampled_from([1.0 - 2e-12, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 2e-12]),
)


@st.composite
def races(draw, track_constants=TRACK_CONSTANTS):
    """Races of 2 to 64 horses whose probabilities and bookie-implied
    distributions have entries down to 1e-300, with odds ``c / r`` for a track
    constant ``c`` drawn from ``track_constants``."""
    m = draw(st.integers(2, 64))
    entries = st.lists(st.floats(1e-300, 1.0), min_size=m, max_size=m)
    p, r = _pmf(draw(entries)), _pmf(draw(entries))
    return new_race(p, draw(track_constants) / r)


@st.composite
def side_info_markets(draw):
    """Side-info markets of 2 to 4 signals and 2 to 6 horses whose joint tables
    have impossible cells, every row and column keeping a possible one."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    cell = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    cells = draw(st.lists(cell, min_size=n * m, max_size=n * m))
    joint = np.asarray(cells).reshape(n, m)
    joint[np.arange(n), np.arange(n) % m] = 1.0
    joint[np.arange(m) % n, np.arange(m)] = 1.0
    odds = draw(st.lists(st.floats(1.01, 1e6), min_size=m, max_size=m))
    return new_side_info(joint / joint.sum(), odds)


def _certified(market, beta, alloc):
    """The certificate holds on the logs ``optimize --check`` reads from the doubles of
    ``alloc``, its optimizer's record below the normal doubles."""
    kind, gap, tol, _ = _certify(market, beta, alloc)
    assert kind == "certificate" and 0.0 <= gap <= tol


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    market=races(st.one_of(st.floats(0.05, 0.999), st.sampled_from([1.0 - 2e-12, 1.0 - 1e-12]))),
    beta=BETAS,
)
def test_partial_optimum_holds_over_the_whole_interior(market, beta):
    sol = optimal_partial(market, beta)
    alloc = sol.allocation
    values = [alloc.cash, *alloc.bets, *sol.gammas, sol.gamma_cap, sol.utility]
    assert not np.isnan(values).any()

    # no worse than keeping everything, or than the full-investment optimum
    all_cash = PartialAllocation(1.0, np.zeros(market.m))
    all_in = PartialAllocation(0.0, optimal_full(market, beta).bets)
    assert sol.utility >= utility_partial(market, all_cash, beta) - 1e-12
    assert sol.utility >= utility_partial(market, all_in, beta) - 1e-12

    if alloc.cash >= np.finfo(float).tiny:
        report = kkt_residual(market, beta, alloc, gamma_cap=sol.gamma_cap)
        gaps = [gap for name, gap in vars(report).items() if name != "mu" and gap is not None]
        assert max(gaps) < 1e-8 * max(1.0, report.mu)
        assert not math.isnan(report.mu)

    # the certificate holds wherever the cash is held or rounds to 0.0
    _certified(market, beta, alloc)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(market=races(), side=side_info_markets(), beta=BETAS)
def test_full_and_side_info_optima_are_certified(market, side, beta):
    _certified(market, beta, optimal_full(market, beta))
    _certified(side, beta, optimal_side_info(side, beta)[0])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(side=side_info_markets(), beta=BETAS)
def test_side_information_never_lowers_the_optimal_utility(side, beta):
    # betting the marginal race's optimum on every signal is one conditional allocation
    table, _ = optimal_side_info(side, beta)
    informed = utility_side_info(side, table, beta)
    race = new_race(side.horse_probs, side.odds)
    blind = utility_full(race, optimal_full(race, beta), beta)
    assert informed >= blind - 1e-12 * max(1.0, abs(informed)), (informed, blind)


def _no_nan(report):
    values = list(vars(report).values())
    assert not np.isnan(values).any(), report


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(market=races(), side=side_info_markets(), beta=KERNEL_BETAS)
def test_decompositions_hold_at_the_optima_in_every_kernel_regime(market, side, beta):
    report = decompose_full(market, optimal_full(market, beta), beta)
    _no_nan(report)
    assert report.residual < 1e-9
    table, _ = optimal_side_info(side, beta)
    report = decompose_side_info(side, table, beta)
    _no_nan(report)
    assert report.residual < 1e-9


def _floored(draw, shape):
    """A PMF of ``shape`` whose entries are floored at 1e-290."""
    size = math.prod(shape)
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    v = np.maximum(np.reshape(cells, shape) / max(sum(cells), 1e-300), 1e-290)
    return v / v.sum()


@st.composite
def wide_markets(draw):
    """A race of 2 to 16 horses and a side-info market of 2 to 4 signals over them, with
    odds ``10^U(-290, 290)`` and probabilities floored at 1e-290."""
    m, n = draw(st.integers(2, 16)), draw(st.integers(2, 4))
    odds = 10.0 ** np.array(draw(st.lists(st.floats(-290, 290), min_size=m, max_size=m)))
    return new_race(_floored(draw, (m,)), odds), new_side_info(_floored(draw, (n, m)), odds)


WIDE_BETAS = [-math.inf, -1e6, -1000.0, -5.0, -0.5, -1e-300, 0.0, 1e-300, 0.5, 0.9, 1.0 - 1e-9]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(markets=wide_markets(), beta=st.sampled_from(WIDE_BETAS))
def test_optima_are_certified_at_odds_over_580_decades(markets, beta):
    # every optimizer's optimum holds its certificate, and every utility is finite: below
    # beta = 0 no positive optimal fraction prints as 0.0, though some lie below 2^-1074
    race, side = markets
    full = dispatch(race, beta)
    if beta == -math.inf:  # the bookie mix, the one optimum there: it pays c whoever wins
        kind, gap, tol, bound = _certify(race, beta, full)
        assert kind == "limit_bound" and 0.0 <= gap <= tol
        assert math.isfinite(utility_full(race, full, beta)) and math.isfinite(bound)
        return
    partial = optimal_partial(race, beta)
    table, _ = optimal_side_info(side, beta)
    for market, alloc in ((race, full), (race, partial.allocation), (side, table)):
        _certified(market, beta, alloc)
        assert math.isfinite(utility_full(market, alloc, beta))
    assert math.isfinite(partial.utility)
    _no_nan(decompose_full(race, full, beta))
    _no_nan(decompose_side_info(side, table, beta))


@st.composite
def partial_bets(draw):
    """A race of 2 to 8 horses with odds ``10^U(-290, 290)`` and probabilities floored at
    1e-290, and a partial bet on it: cash from about 0 to about 1, bets floored at 1e-290
    but for the last horses, unbacked where some cash pays them."""
    m = draw(st.integers(2, 8))
    odds = 10.0 ** np.array(draw(st.lists(st.floats(-290, 290), min_size=m, max_size=m)))
    near = st.floats(-300.0, -1.0).map(lambda e: 10.0**e)
    cash = draw(st.one_of(st.floats(0.0, 1.0), near, near.map(lambda v: 1.0 - max(v, 1e-16))))
    bets = _floored(draw, (m,))
    if cash > 0.0:
        bets[draw(st.integers(1, m)) :] = 0.0
    bet = PartialAllocation(cash, (1.0 - cash) * bets / bets.sum())
    return new_race(_floored(draw, (m,)), odds), bet


PARTIAL_BETAS = [-1e6, -1000.0, -5.0, -0.5, -1e-9, -5e-324, 0.0, 5e-324, 1e-9, 0.5, 0.9]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(drawn=partial_bets(), beta=st.sampled_from(PARTIAL_BETAS + [1.0 - 1e-9]))
def test_a_partial_bet_reports_as_a_full_bet_on_scaled_odds(drawn, beta):
    # the cash pays what the bets cash / o do: the split of the full bet (b + cash / o) / s on
    # the odds s o, s = 1 - cash + cash / c, holds for random bets and the optimum alike
    race, bet = drawn
    optimum = optimal_partial(race, beta).allocation
    for alloc in (bet, optimum):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = decompose_full(race, alloc, beta)
        _no_nan(report)
        assert report.residual < 1e-9, report
        if alloc.cash == 0.0:  # no cash, as at c >= 1: the full report of the same bets
            full = decompose_full(race, Allocation(alloc.bets), beta)
            for name, value in vars(report).items():
                other = getattr(full, name)
                assert value == other or abs(value - other) <= 1e-12, (name, report, full)


@st.composite
def pmf_pairs(draw):
    """Two PMFs of 2 to 12 entries down to 1e-300."""
    m = draw(st.integers(2, 12))
    entries = st.lists(st.floats(1e-300, 1.0), min_size=m, max_size=m)
    return _pmf(draw(entries)), _pmf(draw(entries))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pq=pmf_pairs(), alpha=ORDERS)
def test_one_signal_conditional_divergence_is_the_divergence(pq, alpha):
    p, q = pq
    plain = renyi_div(p, q, alpha)
    assert cond_renyi_div(p[None, :], q[None, :], [1.0], alpha) == pytest.approx(
        plain, rel=1e-12, abs=0.0
    )


@st.composite
def conditional_tables(draw):
    """A signal PMF, two conditional tables of 2 to 4 signals and 2 to 6 outcomes, and
    a PMF over the outcomes, with zero cells and table entries down to 1e-300.  Signal
    probabilities are 0 or above 2e-9, so no joint cell p(y) p(x|y) underflows to 0."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    cell = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))

    def rows(k):
        raw = np.asarray(draw(st.lists(cell, min_size=k * m, max_size=k * m))).reshape(k, m)
        raw[raw.sum(axis=1) == 0.0, draw(st.integers(0, m - 1))] = 1.0
        return raw / raw.sum(axis=1, keepdims=True)

    weight = st.floats(1e-8, 1.0)
    p_y = np.asarray(draw(st.lists(st.one_of(st.just(0.0), weight), min_size=n, max_size=n)))
    p_y[draw(st.integers(0, n - 1))] = draw(weight)
    return p_y / p_y.sum(), rows(n), rows(n), rows(1)[0]


def _below(x: float, y: float) -> bool:
    """``x <= y`` up to 1e-12 of the largest of 1, ``|x|`` and ``|y|``; +inf is below
    only +inf."""
    return x <= y or (math.isfinite(x) and x - y <= 1e-12 * max(1.0, abs(x), abs(y)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    tables=conditional_tables(),
    alpha=st.one_of(
        st.floats(0.2, 4.0),
        st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 5e-324, 2.2e-309, 1e-308, 1e308]),
    ),
)
def test_conditional_divergence_is_a_tilted_mean_of_the_signals_divergences(tables, alpha):
    # the tilted mean at t = (alpha - 1) / alpha of the per-signal divergences D_y,
    # so between their extremes and on one side of their p(y)-average (Hardy,
    # Littlewood & Polya, Inequalities, ch. II), and criterion 06's three inequalities.
    p_y, p_cond, q_cond, r = tables
    live = p_y > 0.0
    per_signal = [renyi_div(p, q, alpha) for p, q in zip(p_cond[live], q_cond[live])]
    value = cond_renyi_div(p_cond, q_cond, p_y, alpha)
    assert _below(min(per_signal), value) and _below(value, max(per_signal))
    average = float(np.dot(p_y[live], per_signal))
    assert alpha < 1.0 or _below(average, value)
    assert alpha > 1.0 or _below(value, average)

    joint = renyi_div((p_cond * p_y[:, None]).ravel(), (q_cond * p_y[:, None]).ravel(), alpha)
    assert _below(0.0, value) and _below(value, joint)
    marginal = renyi_div(p_y @ p_cond, r, alpha)
    given_y = cond_renyi_div(p_cond, np.tile(r, (p_y.size, 1)), p_y, alpha)
    assert _below(marginal, given_y)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pq=pmf_pairs(), orders=st.lists(ORDERS, min_size=2, max_size=4))
def test_renyi_divergence_is_nondecreasing_in_the_order(pq, orders):
    # van Erven & Harremoes (2014), Theorem 3, up to the kernel's error at each order
    p, q = pq
    x = np.log(p) - np.log(q)
    orders = sorted(orders)
    values = [renyi_div(p, q, alpha) for alpha in orders]
    for (a, low), (b, high) in zip(zip(orders, values), zip(orders[1:], values[1:])):
        slack = _kernel_tolerance(a - 1.0, p, x) + _kernel_tolerance(b - 1.0, p, x)
        assert low <= high + slack, (a, b, low, high)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    market=races(),
    bets=st.lists(st.floats(1e-300, 1.0), min_size=64, max_size=64),
    betas=st.lists(KERNEL_BETAS, min_size=2, max_size=4),
)
def test_power_utility_of_a_fixed_bet_is_nondecreasing_in_beta(market, bets, betas):
    # the power mean M_beta of the payoffs is nondecreasing in beta
    b = Allocation(_pmf(bets[: market.m]))
    x = np.log(b.bets * market.odds)
    betas = sorted(betas)
    values = [utility_full(market, b, beta) for beta in betas]
    for (s, low), (t, high) in zip(zip(betas, values), zip(betas[1:], values[1:])):
        slack = _kernel_tolerance(s, market.probs, x) + _kernel_tolerance(t, market.probs, x)
        assert low <= high + slack, (s, t, low, high)


# Spec fields as a hand-edited file may hold them: odd numbers (non-finite,
# subnormal, beyond the float range), booleans, nulls, text, ragged lists.
ODD_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1.0, 0.5, 1.0, 2.0]),
    st.integers(-(10**400), 10**400),
)
FIELDS = st.one_of(
    ODD_NUMBERS,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(ODD_NUMBERS, max_size=3),
    st.dictionaries(st.text(max_size=2), ODD_NUMBERS, max_size=2),
)
BETA_TEXT = st.sampled_from(
    ["kelly", "+inf", "-inf", "inf", "nan", "0.5", "-3", "0.999", "1", "1e7", "-1e7", "1e400"]
    + ["5e-324", "x", ""]
)


@st.composite
def specs(draw):
    """A valid race spec with a side-info block, then 0 to 3 of its fields (a
    probability, odds, joint cell or row, a horse, a whole block, beta, mode)
    replaced by odd values or removed; or an odd value in place of the document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(FIELDS)
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(1e-300, 1.0), min_size=n * m, max_size=n * m))
    joint = np.asarray(cells).reshape(n, m)
    joint = (joint / joint.sum()).tolist()
    odds = draw(st.lists(st.floats(1.01, 20.0), min_size=m, max_size=m))
    horses = [{"p": sum(row[i] for row in joint), "odds": odds[i]} for i in range(m)]
    doc = {
        "horses": horses,
        "side_info": {"joint": joint},
        "beta": draw(st.one_of(BETA_TEXT, st.floats(-5.0, 1.0))),
        "mode": draw(st.sampled_from(["full", "partial", "side-info"])),
    }
    for _ in range(draw(st.integers(0, 3))):
        value = draw(FIELDS)
        where = draw(st.sampled_from(["p", "odds", "cell", "row", "horse", "block", "drop"]))
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        if where in ("p", "odds") and isinstance(horses[i], dict):
            horses[i][where] = value
        elif where == "cell" and isinstance(joint[j], list):
            joint[j][i] = value
        elif where == "row":
            joint[j] = value
        elif where == "horse":
            horses[i] = value
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            if where == "drop":
                del doc[key]
            else:
                doc[key] = value
    return doc


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


DIVERGENCE_TERMS = ("divergence_bits", "bookie_term", "gambler_term")


def _divergence_terms(doc):
    """Every divergence or divergence term in a printed document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in DIVERGENCE_TERMS:
                yield key, value
            else:
                yield from _divergence_terms(value)


# What an exit-2 message of each command may name: its spec file, a spec field it
# reads, or one of its flags.
NAMES = {
    "analyze": ["spec file", "horses"],
    "optimize": ["spec file", "horses", "side_info", "beta", "mode", "--beta", "--grid-resolution"],
    "simulate": ["spec file", "horses", "--beta", "-n", "--seed", "--output"],
    "divergence": ["--alpha", "-p", "-q", "--p-y"],
}


def _names_a_field(command: str, message: str) -> bool:
    return any(
        re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", message) for name in NAMES[command]
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    spec=specs(),
    check=st.booleans(),
    grid=st.sampled_from([[], ["--grid-resolution", "1"], ["--grid-resolution", "100000"]]),
    beta=st.one_of(st.just("kelly"), BETA_TEXT),
    n=st.one_of(st.just(3), st.sampled_from([-1, 0, 1, 100])),
    seed=st.one_of(st.just(7), st.sampled_from([0, -1, 2**128 - 1, 2**128])),
    alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats()),
    p_y=st.one_of(st.just([1.0]), st.lists(FIELDS, max_size=3)),
)
def test_every_command_maps_any_spec_to_a_documented_exit_code(
    spec, check, grid, beta, n, seed, alpha, p_y
):
    # exit 0, 2 (invalid input), 3 (incompatible mode) or 4 (oracle disagreement);
    # never a traceback, invalid input is named, and no divergence is negative or -0.0
    p = spec.get("horses") if isinstance(spec, dict) else spec
    if isinstance(p, list):
        p = [h.get("p") if isinstance(h, dict) else h for h in p]
    q = p[::-1] if isinstance(p, list) else p
    inputs = {"spec": spec, "p": p, "q": q, "p_cond": [p], "q_cond": [q], "p_y": p_y}
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in inputs.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(data))
        runs = [
            ["analyze", files["spec"]],
            ["optimize", files["spec"], *(["--check"] if check else []), *grid],
            ["optimize", files["spec"], "--beta", beta, "--mode", "partial"],
            ["simulate", files["spec"], "--beta", beta, "-n", str(n), "--seed", str(seed)],
            ["divergence", f"--alpha={alpha!r}", "-p", files["p"], "-q", files["q"]],
            ["divergence", f"--alpha={alpha!r}", "-p", files["p_cond"], "-q", files["q_cond"],
             "--p-y", files["p_y"]],
        ]
        for argv in runs:
            code, out, err = _run(argv)
            assert code in (0, 2, 3, 4), argv
            assert code != 2 or _names_a_field(argv[0], err), (argv, err)
            if argv[0] in ("optimize", "divergence") and out:  # simulate prints a CSV
                for key, value in _divergence_terms(json.loads(out)):
                    assert math.copysign(1.0, value) == 1.0, (argv, key, value)
