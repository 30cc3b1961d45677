"""Whole-domain properties, drawn by hypothesis with a fixed derandomized
sequence of examples so every run checks the same inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from powerbet import (
    PartialAllocation,
    kkt_residual,
    new_race,
    new_side_info,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    strategy,
    utility_partial,
)
from powerbet.cli import _read_logs
from powerbet.divergence import _logsumexp
from powerbet.oracle import _GAP_TOL, _certificate

# Interior risk parameters: Kelly, the subnormal neighbours of Kelly, the
# approach 1 - 10^-k to the edge of the closed form, and the finite range.
BETAS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, -5e-324]),
    st.integers(1, 9).map(lambda k: 1.0 - 10.0**-k),
    st.floats(-1e6, 0.99),
)


def _pmf(raw: list[float]) -> np.ndarray:
    v = np.asarray(raw)
    return v / v.sum()


@st.composite
def subfair_races(draw):
    """Races of 2 to 12 horses whose probabilities and bookie-implied
    distributions have entries down to 1e-300, with odds ``c / r`` for a
    track constant ``c`` below 1."""
    m = draw(st.integers(2, 12))
    entries = st.lists(st.floats(1e-300, 1.0), min_size=m, max_size=m)
    p, r = _pmf(draw(entries)), _pmf(draw(entries))
    return new_race(p, draw(st.floats(0.05, 0.999)) / r)


@st.composite
def races(draw):
    """Races of 2 to 12 horses with probabilities down to 1e-300 and odds
    ``c / r`` for a track constant from 0.05 to 20."""
    m = draw(st.integers(2, 12))
    entries = st.lists(st.floats(1e-300, 1.0), min_size=m, max_size=m)
    p, r = _pmf(draw(entries)), _pmf(draw(entries))
    return new_race(p, draw(st.floats(0.05, 20.0)) / r)


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


def _certified(market, beta, printed, logs):
    """The certificate holds on the optimizer's logs, and on the logs ``optimize
    --check`` reads from the printed fractions."""
    tol = _GAP_TOL * max(1.0, abs(1.0 - beta))
    assert 0.0 <= _certificate(market, beta, logs) <= tol
    read = _read_logs(np.asarray(printed), logs)
    assert read is not None
    assert 0.0 <= _certificate(market, beta, read) <= tol


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(market=subfair_races(), beta=BETAS)
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
    logs = np.append(*strategy._log_weights_partial(market, beta)[:2])
    _certified(market, beta, np.append(alloc.cash, alloc.bets), logs - _logsumexp(logs))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(market=races(), side=side_info_markets(), beta=BETAS)
def test_full_and_side_info_optima_are_certified(market, side, beta):
    logs = strategy._log_weights_full(np.log(market.probs), np.log(market.odds), beta)
    _certified(market, beta, optimal_full(market, beta).bets, logs)

    log_table, _ = strategy._log_weights_side_info(
        *strategy._side_info_logs(side), np.log(side.odds), beta
    )
    table, _ = optimal_side_info(side, beta)
    _certified(side, beta, table.table, log_table)
