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
    optimal_full,
    optimal_partial,
    utility_partial,
)

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
