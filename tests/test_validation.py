"""One input rule for every distribution, allocation and divergence argument.

Each validating entry point is run against each kind of bad input, and the
exception class it raises is pinned.  Accepted inputs within the
normalization tolerance must come back exactly as ``values / total`` and
read-only.  The shared allocation-shape and risk-parameter checks are
pinned the same way.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import powerbet
import powerbet.divergence
import powerbet.market
import powerbet.oracle
import powerbet.strategy
from powerbet import (
    Allocation,
    BetaOutOfRangeError,
    ConditionalAllocation,
    DecompositionReport,
    GridSpec,
    InvalidDistributionError,
    LengthMismatchError,
    NonPositiveOddsError,
    NonPositiveProbabilityError,
    NotApplicableError,
    NotEvaluableError,
    NotNormalizedError,
    PartialAllocation,
    PowerbetError,
    cond_renyi_div,
    decompose_full,
    decompose_kelly,
    decompose_side_info,
    dispatch,
    doubling_rate,
    estimate_ubeta,
    fold_cash_into_bets,
    grid_search_full,
    grid_search_partial,
    kelly,
    kkt_residual,
    limit_utilities,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    renyi_div,
    simulate_growth,
    utility_full,
    utility_partial,
    utility_side_info,
)

VECTOR = np.array([0.25, 0.75])
JOINT = np.array([[0.125, 0.375], [0.25, 0.25]])
ROWS = np.array([[0.25, 0.75], [0.5, 0.5]])
OFF = 1e-8  # well past NORMALIZATION_TOL


def _bad(base: np.ndarray, kind: str) -> np.ndarray:
    """``base`` spoiled in one way; the first entry carries the fault."""
    arr = base.astype(float)
    first = (0,) * arr.ndim
    second = (0,) * (arr.ndim - 1) + (1,)
    if kind == "nan":
        arr[first] = math.nan
    elif kind == "inf":
        arr[first] = math.inf
    elif kind == "negative":  # the sum is unchanged
        arr[second] += 2 * arr[first]
        arr[first] = -arr[first]
    elif kind == "unnormalized":
        arr[second] += OFF
    elif kind == "ndim":
        arr = arr[0] if arr.ndim == 2 else arr[None, :]
    elif kind == "empty":
        arr = np.empty((1, 0) if arr.ndim == 2 else (0,))
    return arr


def _odds_for(values) -> np.ndarray:
    return np.full(np.shape(values)[-1], 2.0)


# name -> (base input, call on a spoiled input)
ENTRY_POINTS = {
    "RaceMarket": (VECTOR, lambda v: new_race(v, _odds_for(v))),
    "SideInfoMarket": (JOINT, lambda t: new_side_info(t, _odds_for(t))),
    "Allocation": (VECTOR, Allocation),
    "PartialAllocation": (VECTOR, lambda v: PartialAllocation(0.5, 0.5 * v)),
    "ConditionalAllocation": (ROWS, ConditionalAllocation),
    "renyi_div.p": (VECTOR, lambda v: renyi_div(v, [0.5, 0.5], 0.5)),
    "renyi_div.q": (VECTOR, lambda v: renyi_div([0.5, 0.5], v, 0.5)),
    "cond_renyi_div.p_cond": (ROWS, lambda t: cond_renyi_div(t, ROWS, [0.5, 0.5], 2.0)),
    "cond_renyi_div.q_cond": (ROWS, lambda t: cond_renyi_div(ROWS, t, [0.5, 0.5], 2.0)),
    "cond_renyi_div.p_y": (VECTOR, lambda v: cond_renyi_div(ROWS, ROWS, v, 2.0)),
}

_DIST = InvalidDistributionError
EXPECTED = {
    "RaceMarket": {
        "nan": NonPositiveProbabilityError,
        "inf": NonPositiveProbabilityError,
        "negative": NonPositiveProbabilityError,
        "unnormalized": NotNormalizedError,
        "ndim": _DIST,
        "empty": LengthMismatchError,
    },
    "SideInfoMarket": {
        "nan": _DIST,
        "inf": _DIST,
        "negative": _DIST,
        "unnormalized": NotNormalizedError,
        "ndim": _DIST,
        "empty": LengthMismatchError,
    },
    **{
        name: {kind: _DIST for kind in ("nan", "inf", "negative", "ndim", "empty")}
        | {"unnormalized": NotNormalizedError}
        for name in ("Allocation", "PartialAllocation", "ConditionalAllocation")
    },
    **{
        name: {
            kind: _DIST for kind in ("nan", "inf", "negative", "unnormalized", "ndim", "empty")
        }
        for name in ENTRY_POINTS
        if name.startswith(("renyi_div", "cond_renyi_div"))
    },
}

CASES = [(name, kind) for name in ENTRY_POINTS for kind in EXPECTED[name]]


@pytest.mark.parametrize("name,kind", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_bad_input_raises_the_pinned_class(name, kind):
    base, call = ENTRY_POINTS[name]
    with pytest.raises(EXPECTED[name][kind]) as excinfo:
        call(_bad(base, kind))
    # A bad entry is never reported as a bad sum.
    assert kind == "unnormalized" or not isinstance(excinfo.value, NotNormalizedError)


@pytest.mark.parametrize(
    "field,call",
    [
        ("p", lambda v: renyi_div(v, [0.5, 0.5], 0.5)),
        ("q", lambda v: renyi_div([0.5, 0.5], v, 0.5)),
        ("p_cond", lambda t: cond_renyi_div(t, ROWS, [0.5, 0.5], 2.0)),
        ("q_cond", lambda t: cond_renyi_div(ROWS, t, [0.5, 0.5], 2.0)),
        ("table", ConditionalAllocation),
        ("probs", lambda v: new_race(v, [2.0, 2.0])),
        ("joint", lambda t: new_side_info(t, [2.0, 2.0])),
        ("bets", Allocation),
    ],
)
@pytest.mark.parametrize(
    "values",
    [
        [[0.5, 0.5], [1.0]],
        [[0.5, 0.5], ["a", "b"]],
        [[0.5, 0.5], [{}, 0.5]],
        [[0.5, 0.5], [10**400, 0.5]],  # no float holds it
    ],
)
def test_ragged_or_non_numeric_input_names_the_field(field, call, values):
    with pytest.raises(InvalidDistributionError, match=f"^{field} must be an array of numbers"):
        call(values)


@pytest.mark.parametrize("new", [new_race, new_side_info])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_bad_odds_raise_nonpositive_odds(new, bad):
    values = VECTOR if new is new_race else JOINT
    with pytest.raises(NonPositiveOddsError):
        new(values, [2.0, bad])


@pytest.mark.parametrize("new", [new_race, new_side_info])
@pytest.mark.parametrize("odds", [[[2.0, 2.0], [1.0]], ["a", "b"], [{}, 2.0], [10**400, 2.0]])
def test_ragged_or_non_numeric_odds_raise_nonpositive_odds(new, odds):
    values = VECTOR if new is new_race else JOINT
    with pytest.raises(NonPositiveOddsError, match="^odds must be an array of numbers"):
        new(values, odds)


@pytest.mark.parametrize("new", [new_race, new_side_info])
@pytest.mark.parametrize("odds", [[1e-320, 2.0], [1e-308, 1e-308]])
def test_odds_whose_reciprocals_overflow_raise_nonpositive_odds(new, odds):
    # a subnormal payout's reciprocal is inf, and two of 1e308 sum to inf:
    # either way the track constant would be 0 and the bookie mix NaN
    values = VECTOR if new is new_race else JOINT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveOddsError, match="odds"):
            new(values, odds)


BIG = [1e308, 1e308]  # finite entries whose sum overflows
TOO_BIG = "sums to inf, deviating from 1 by more than 1e-09$"


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: renyi_div(BIG, [0.5, 0.5], 2.0), NotNormalizedError, f"^p {TOO_BIG}"),
        (lambda: new_race(BIG, [2.0, 2.0]), NotNormalizedError, f"^probs {TOO_BIG}"),
        (lambda: new_side_info([BIG], [2.0, 2.0]), NotNormalizedError, f"^joint {TOO_BIG}"),
        (lambda: PartialAllocation(0.5, BIG), NotNormalizedError, f"^cash plus bets {TOO_BIG}"),
        (
            lambda: ConditionalAllocation([ROWS[0], BIG]),
            NotNormalizedError,
            f"^a row of table {TOO_BIG}",
        ),
        (
            lambda: cond_renyi_div([BIG, ROWS[1]], ROWS, [0.5, 0.5], 2.0),
            NotNormalizedError,
            f"^a row of p_cond {TOO_BIG}",
        ),
        (
            lambda: renyi_div([*BIG, math.inf], [0.5, 0.25, 0.25], 2.0),
            InvalidDistributionError,
            "^p entries must be finite and >= 0$",
        ),
        (
            lambda: Allocation([*BIG, math.inf]),
            InvalidDistributionError,
            "^bets entries must be finite and >= 0$",
        ),
    ],
    ids=["renyi_div", "new_race", "new_side_info", "PartialAllocation", "ConditionalAllocation",
         "cond_renyi_div-rows", "renyi_div-inf", "Allocation-inf"],
)
def test_a_sum_that_overflows_raises_without_a_warning(call, error, message):
    # numpy's overflow warning names its own frame, which the suite's powerbet filter
    # does not match, so every warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -math.inf])
def test_bad_cash_is_an_invalid_distribution(bad):
    with pytest.raises(InvalidDistributionError):
        PartialAllocation(bad, VECTOR)


@pytest.mark.parametrize("kind", ["nan", "inf", "negative"])
def test_skipped_signal_rows_are_still_checked(kind):
    table = np.vstack([ROWS[0], _bad(ROWS, kind)[0]])
    with pytest.raises(InvalidDistributionError):
        cond_renyi_div(table, ROWS, [1.0, 0.0], 2.0)
    with pytest.raises(InvalidDistributionError):
        cond_renyi_div(ROWS, table, [1.0, 0.0], 2.0)


def test_skipped_signal_rows_need_not_be_normalized():
    table = np.array([[0.25, 0.75], [3.0, 0.0]])
    value = cond_renyi_div(table, ROWS, [1.0, 0.0], 2.0)
    assert value == cond_renyi_div(table[:1], ROWS[:1], [1.0], 2.0)


def _near_unit(rng, shape, zeros: bool) -> np.ndarray:
    """Nonnegative values whose sum (over the last axis for a table) is within
    the tolerance of one, but not equal to it."""
    arr = rng.uniform(0.1, 1.0, size=shape)
    if zeros:
        arr[..., 0] = 0.0
    arr /= arr.sum(axis=-1, keepdims=True)
    return arr * (1.0 + rng.uniform(-5e-10, 5e-10, size=shape[:-1] + (1,)))


def _assert_frozen_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert not actual.flags.writeable
    np.testing.assert_array_equal(actual, expected, strict=True)


@pytest.mark.parametrize("seed", range(20))
def test_accepted_inputs_come_back_as_values_over_total(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    odds = rng.uniform(1.2, 9.0, size=m)

    probs = _near_unit(rng, (m,), zeros=False)
    market = new_race(probs.tolist(), odds)
    _assert_frozen_equal(market.probs, probs / probs.sum())
    _assert_frozen_equal(market.odds, odds)

    joint = _near_unit(rng, (3 * m,), zeros=False).reshape(m, 3).T  # not C-contiguous
    side = new_side_info(joint, odds)
    _assert_frozen_equal(side.joint, joint / joint.sum())
    _assert_frozen_equal(side.signal_probs, side.joint.sum(axis=1))  # stored, not re-summed

    bets = _near_unit(rng, (m,), zeros=m > 1)
    _assert_frozen_equal(Allocation(bets).bets, bets / bets.sum())

    cash = float(rng.uniform(0.0, 0.5))
    partial = PartialAllocation(cash, bets * (1.0 - cash))
    total = cash + (bets * (1.0 - cash)).sum()
    assert partial.cash == cash / total
    _assert_frozen_equal(partial.bets, bets * (1.0 - cash) / total)

    table = _near_unit(rng, (4, m), zeros=m > 1)
    _assert_frozen_equal(
        ConditionalAllocation(table).table, table / table.sum(axis=1)[:, None]
    )


@pytest.mark.parametrize("seed", range(10))
def test_divergences_accept_inputs_within_tolerance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    p, q = _near_unit(rng, (m,), zeros=True), _near_unit(rng, (m,), zeros=False)
    assert renyi_div(p, q, 2.0) == pytest.approx(renyi_div(p / p.sum(), q, 2.0), rel=1e-12)
    p_cond, q_cond = _near_unit(rng, (3, m), zeros=True), _near_unit(rng, (3, m), zeros=False)
    p_y = _near_unit(rng, (3,), zeros=True)
    value = cond_renyi_div(p_cond, q_cond, p_y, 0.5)
    reference = cond_renyi_div(p_cond / p_cond.sum(axis=1)[:, None], q_cond, p_y / p_y.sum(), 0.5)
    assert value == pytest.approx(reference, rel=1e-12)


RACE = new_race([0.5, 0.3, 0.2], [2.0, 4.0, 8.0])
SIDE = new_side_info([[0.2, 0.1, 0.1], [0.3, 0.2, 0.1]], [2.0, 4.0, 8.0])
SHORT = Allocation([0.5, 0.5])
SHORT_PARTIAL = PartialAllocation(0.5, [0.25, 0.25])

WRONG_SHAPE_CALLS = {
    "utility_full": lambda: utility_full(RACE, SHORT, 0.5),
    "doubling_rate": lambda: doubling_rate(RACE, SHORT),
    "utility_partial": lambda: utility_partial(RACE, SHORT_PARTIAL, 0.5),
    "limit_utilities": lambda: limit_utilities(RACE, SHORT),
    "decompose_full": lambda: decompose_full(RACE, SHORT, 0.5),
    # one entry would broadcast against the market's arrays if it were read unchecked
    "decompose_full.one_entry": lambda: decompose_full(RACE, Allocation([1.0]), 0.5),
    "decompose_kelly": lambda: decompose_kelly(RACE, SHORT),
    "fold_cash_into_bets": lambda: fold_cash_into_bets(RACE, SHORT_PARTIAL),
    "simulate_growth": lambda: simulate_growth(RACE, SHORT, 10, 0),
    "estimate_ubeta": lambda: estimate_ubeta(RACE, SHORT, 0.5, 10, 0),
    "kkt_residual": lambda: kkt_residual(RACE, 0.5, SHORT_PARTIAL),
    "utility_side_info.columns": lambda: utility_side_info(
        SIDE, ConditionalAllocation(ROWS), 0.5
    ),
    "utility_side_info.rows": lambda: utility_side_info(
        SIDE, ConditionalAllocation(np.full((3, 3), 1 / 3)), 0.5
    ),
    "decompose_side_info.columns": lambda: decompose_side_info(
        SIDE, ConditionalAllocation(ROWS), 0.5
    ),
    "decompose_side_info.rows": lambda: decompose_side_info(
        SIDE, ConditionalAllocation(np.full((1, 3), 1 / 3)), 0.5
    ),
    "decompose_side_info.one_entry": lambda: decompose_side_info(
        SIDE, ConditionalAllocation([[1.0]]), 0.5
    ),
}


@pytest.mark.parametrize("name", list(WRONG_SHAPE_CALLS))
def test_allocation_of_the_wrong_shape_is_a_length_mismatch(name):
    with pytest.raises(LengthMismatchError):
        WRONG_SHAPE_CALLS[name]()


FAIR = new_race([0.5, 0.3, 0.2], [2.0, 4.0, 4.0])  # c = 1, so folding is allowed
HALF_CASH = PartialAllocation(0.5, [0.25, 0.15, 0.1])
WRONG_KIND_CALLS = {
    # only a partial allocation holds cash to fold
    "fold_cash_into_bets.full": lambda: fold_cash_into_bets(FAIR, Allocation(FAIR.probs)),
    "fold_cash_into_bets.table": lambda: fold_cash_into_bets(
        FAIR, ConditionalAllocation([FAIR.probs])
    ),
    # one report takes either market kind, but only with its own allocation kind
    "decompose_full.table_on_a_race": lambda: decompose_full(
        RACE, ConditionalAllocation([RACE.probs]), 0.5
    ),
    "decompose_side_info.bets_with_signals": lambda: decompose_side_info(
        SIDE, Allocation(SIDE.horse_probs), 0.5
    ),
}


@pytest.mark.parametrize("name", list(WRONG_KIND_CALLS))
def test_allocation_of_the_wrong_kind_is_not_applicable(name):
    with pytest.raises(NotApplicableError):
        WRONG_KIND_CALLS[name]()


PARTIAL_REPORTS = {
    "decompose_full.partial": (lambda: decompose_full(RACE, HALF_CASH, 0.5), 0.5),
    "decompose_kelly.partial": (lambda: decompose_kelly(RACE, HALF_CASH), 0.0),
}


@pytest.mark.parametrize("name", list(PARTIAL_REPORTS))
def test_a_partial_allocation_has_an_exact_report(name):
    # the cash pays what the bets cash / o do: a full bet on the odds s o, s = 1 - cash + cash / c,
    # here 1 - 0.5 + 0.5 * 7/8, so the first term is log2(c s) = log2(8/7 * 15/16)
    call, beta = PARTIAL_REPORTS[name]
    report = call()
    assert report.residual < 1e-9
    assert report.direct == utility_partial(RACE, HALF_CASH, beta)
    assert report.log_c == pytest.approx(math.log2(15 / 14), abs=1e-15)


NEEDS_KIND_CALLS = {
    # the race optimizers and grid searches read a race's own probs, and m
    "dispatch": (lambda: dispatch(SIDE, 0.5), "RaceMarket", "SideInfoMarket"),
    "kelly": (lambda: kelly(SIDE), "RaceMarket", "SideInfoMarket"),
    "optimal_full": (lambda: optimal_full(SIDE, 0.5), "RaceMarket", "SideInfoMarket"),
    "optimal_partial": (lambda: optimal_partial(SIDE, 0.5), "RaceMarket", "SideInfoMarket"),
    "grid_search_full": (
        lambda: grid_search_full(SIDE, 0.5, GridSpec(4, 3)), "RaceMarket", "SideInfoMarket"
    ),
    "grid_search_partial": (
        lambda: grid_search_partial(SIDE, 0.5, GridSpec(4, 4)), "RaceMarket", "SideInfoMarket"
    ),
    # the side-information optimum reads the signal's table
    "optimal_side_info": (lambda: optimal_side_info(RACE, 0.5), "SideInfoMarket", "RaceMarket"),
    # the conditions are stated with a cash coordinate
    "kkt_residual.full": (
        lambda: kkt_residual(RACE, 0.5, Allocation(RACE.probs)), "PartialAllocation", "Allocation"
    ),
    "kkt_residual.table": (
        lambda: kkt_residual(SIDE, 0.5, ConditionalAllocation(SIDE.conditional())),
        "PartialAllocation",
        "ConditionalAllocation",
    ),
    "fold_cash_into_bets": (
        lambda: fold_cash_into_bets(FAIR, Allocation(FAIR.probs)), "PartialAllocation", "Allocation"
    ),
    # a bet on signals needs a market with them, and a market with signals a bet on them
    "utility_full.table_on_a_race": (
        lambda: utility_full(RACE, ConditionalAllocation([RACE.probs]), 0.5),
        "SideInfoMarket",
        "RaceMarket",
    ),
    "decompose_full.bets_with_signals": (
        lambda: decompose_full(SIDE, Allocation(SIDE.horse_probs), 0.5),
        "ConditionalAllocation",
        "Allocation",
    ),
    "kkt_residual.cash_with_signals": (
        lambda: kkt_residual(SIDE, 0.5, PartialAllocation(0.5, SIDE.horse_probs / 2)),
        "ConditionalAllocation",
        "PartialAllocation",
    ),
    "simulate_growth.table_on_a_race": (
        lambda: simulate_growth(RACE, ConditionalAllocation([RACE.probs]), 10, 1),
        "SideInfoMarket",
        "RaceMarket",
    ),
}


@pytest.mark.parametrize("name", list(NEEDS_KIND_CALLS))
def test_a_kind_it_does_not_take_names_the_kind_it_needs(name):
    call, needs, got = NEEDS_KIND_CALLS[name]
    with pytest.raises(NotApplicableError, match=f"needs a {needs}, got {got}$"):
        call()


MARKETS = {"race": RACE, "side_info": SIDE}
ALLOCATIONS = {
    "full": Allocation([0.5, 0.3, 0.2]),
    "partial": HALF_CASH,
    "table": ConditionalAllocation([[0.6, 0.2, 0.2], [0.4, 0.4, 0.2]]),
}
MARKET_FUNCTIONS = sorted(
    name
    for name in powerbet.__all__
    if inspect.isfunction(getattr(powerbet, name))
    and next(iter(inspect.signature(getattr(powerbet, name)).parameters)) == "market"
)


@pytest.mark.parametrize("alloc", list(ALLOCATIONS))
@pytest.mark.parametrize("market", list(MARKETS))
@pytest.mark.parametrize("name", MARKET_FUNCTIONS)
def test_every_market_function_returns_or_raises_a_powerbet_error(name, market, alloc):
    # every pair of a market kind and an allocation kind: a value or a documented error
    fn, b = getattr(powerbet, name), ALLOCATIONS[alloc]
    values = {
        "market": MARKETS[market], "b": b, "sol": b, "partial": b, "beta": 0.5,
        "grid": GridSpec(4, 3 + name.endswith("partial")), "n_races": 16, "n_samples": 16,
        "seed": 0,
    }
    params = [p.name for p in inspect.signature(fn).parameters.values() if p.default is p.empty]
    args = [values[p] for p in params]
    if {"b", "sol", "partial"} & set(params) and (market == "side_info") != (alloc == "table"):
        with pytest.raises(NotApplicableError):  # a bet of the other market kind
            fn(*args)
        return
    try:
        value = fn(*args)
    except PowerbetError:
        return
    if isinstance(value, DecompositionReport):  # every returned report's identity holds
        assert value.residual < 1e-9


@pytest.mark.parametrize("beta", [math.inf, -math.inf, 1.0, math.nan, 2.0, -1e7])
def test_partial_dispatch_needs_an_interior_beta(beta):
    # with cash allowed the route is optimal_partial(market, beta).allocation
    with pytest.raises(BetaOutOfRangeError):
        optimal_partial(RACE, beta).allocation


def test_partial_dispatch_takes_a_beta_next_to_one():
    # every finite beta < 1 is interior: the log-domain closed form does not overflow
    beta = 1 - 5e-10
    sol = optimal_partial(RACE, beta)
    fractions = np.append(sol.allocation.cash, sol.allocation.bets)
    assert np.all(np.isfinite(fractions)) and np.all(fractions >= 0.0)
    assert fractions.sum() == pytest.approx(1.0, abs=1e-15)
    _, gap, tol, _ = powerbet.oracle._certify(RACE, beta, sol.allocation)
    assert 0.0 <= gap <= tol == powerbet.oracle._GAP_TOL


FINITE_ONLY_CALLS = {
    "optimal_full": lambda beta: optimal_full(RACE, beta),
    "optimal_partial": lambda beta: optimal_partial(RACE, beta),
    "decompose_full": lambda beta: decompose_full(RACE, Allocation(RACE.probs), beta),
    "kkt_residual": lambda beta: kkt_residual(RACE, beta, PartialAllocation(0.5, RACE.probs / 2)),
}


@pytest.mark.parametrize("name", list(FINITE_ONLY_CALLS))
@pytest.mark.parametrize("beta", [math.inf, -math.inf])
def test_closed_forms_and_the_certificate_refuse_the_limits(name, beta):
    # the utilities take +-inf; these are stated for finite beta only
    with pytest.raises(BetaOutOfRangeError):
        FINITE_ONLY_CALLS[name](beta)
    if name == "kkt_residual":  # a finite beta >= 1 is in range, but has no such conditions
        for finite in (1.0, 3.0):
            with pytest.raises(NotEvaluableError, match="stated for finite beta < 1"):
                FINITE_ONLY_CALLS[name](finite)


def test_partial_dispatch_takes_kelly():
    # superfair odds: the whole stake goes out in proportion to p
    alloc = optimal_partial(RACE, 0.0).allocation
    assert alloc.cash == 0.0
    np.testing.assert_allclose(alloc.bets, RACE.probs, rtol=4e-16)


UTILITY_CALLS = [
    lambda beta: utility_full(RACE, Allocation(RACE.probs), beta),
    lambda beta: utility_partial(RACE, PartialAllocation(0.5, RACE.probs / 2), beta),
    lambda beta: utility_side_info(SIDE, ConditionalAllocation(SIDE.conditional()), beta),
]
UTILITY_IDS = ["utility_full", "utility_partial", "utility_side_info"]


@pytest.mark.parametrize("call", UTILITY_CALLS, ids=UTILITY_IDS)
@pytest.mark.parametrize("beta", [math.nan, 2e6])
def test_utilities_need_a_finite_nonzero_beta(call, beta):
    with pytest.raises(BetaOutOfRangeError):
        call(beta)


@pytest.mark.parametrize(
    "call,expected",
    [
        (UTILITY_CALLS[0], RACE.probs @ np.log2(RACE.probs * RACE.odds)),
        (UTILITY_CALLS[1], RACE.probs @ np.log2(0.5 + RACE.probs / 2 * RACE.odds)),
        (UTILITY_CALLS[2], np.sum(SIDE.joint * np.log2(SIDE.conditional() * SIDE.odds))),
    ],
    ids=UTILITY_IDS,
)
def test_utilities_take_kelly(call, expected):
    # beta = 0 is the mean log2 payoff
    assert call(0.0) == pytest.approx(float(expected), rel=1e-14, abs=0.0)


@pytest.fixture
def normalized_calls(monkeypatch):
    """The ``name`` of every ``_normalized`` call, through a stand-in patched
    wherever a module imported it."""
    names = []
    real = powerbet.market._normalized

    def counting(values, name, *args, **kwargs):
        names.append(name)
        return real(values, name, *args, **kwargs)

    for module in (powerbet.market, powerbet.strategy, powerbet.divergence):
        monkeypatch.setattr(module, "_normalized", counting)
    return names


def test_library_allocations_and_reports_are_not_validated_again(normalized_calls):
    rng = np.random.default_rng(3)
    market = new_race(_near_unit(rng, (5,), zeros=False), rng.uniform(1.2, 9.0, size=5))
    side = new_side_info(_near_unit(rng, (15,), zeros=True).reshape(3, 5), market.odds)
    normalized_calls.clear()
    for beta in (-2.0, 0.0, 0.5, 0.99):
        opt = optimal_full(market, beta)
        assert not opt.bets.flags.writeable
        decompose_full(market, opt, beta)
        decompose_full(market, kelly(market), beta)
        table, _ = optimal_side_info(side, beta)
        assert not table.table.flags.writeable
        decompose_side_info(side, table, beta)
    for beta in (-math.inf, -3.0, 0.0, 0.5, 1.0, 2.0, math.inf):
        assert not dispatch(market, beta).bets.flags.writeable
    assert normalized_calls == []
    # the user-facing entry points still validate, through the stand-in
    Allocation(market.probs)
    renyi_div(market.probs, kelly(market).bets, 2.0)
    cond_renyi_div(ROWS, ROWS, [0.5, 0.5], 2.0)
    assert normalized_calls == ["bets", "p", "q", "p_y", "p_cond", "q_cond"]
