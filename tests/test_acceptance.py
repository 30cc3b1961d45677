"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same outcomes through test names.
Every tolerance is pinned here, not calibrated elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

from powerbet import (
    GridSpec,
    PartialAllocation,
    cond_renyi_div,
    decompose_full,
    decompose_side_info,
    dispatch,
    doubling_rate,
    fold_cash_into_bets,
    grid_search_full,
    grid_search_partial,
    kelly,
    kkt_residual,
    limit_utilities,
    new_race,
    optimal_full,
    optimal_partial,
    optimal_side_info,
    renyi_div,
    simulate_growth,
    track_constant,
    utility_full,
    utility_partial,
    utility_side_info,
    bookie_distribution,
)
from powerbet.cli import main

from helpers import (
    EDGE_BETAS,
    prefix_search_partial,
    random_conditional_allocation,
    random_interior_allocation,
    random_joint_market,
    random_market,
    random_partial_allocation,
    random_pmf,
    random_subfair_market,
    random_superfair_market,
)


# The interior betas of criteria 01 and 07, out to the 1 - 1e-9 edge of the
# closed form, where most optimal weights underflow, and in to |beta| = 1e-15
# next to the Kelly limit, where the power means are centered.
DECOMPOSITION_BETAS = (-2.0, -0.5, 0.25, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9) + tuple(
    sign * t for t in (1e-6, 1e-9, 1e-12, 1e-15) for sign in (1.0, -1.0)
)


def _passed(n: int, text: str) -> None:
    print(f"\ncriterion {n:2d}: PASS - {text}")


def test_criterion_01_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        market = random_market(rng, int(rng.choice([2, 3, 5])))
        b = random_interior_allocation(rng, market.m)
        for beta in DECOMPOSITION_BETAS:
            report = decompose_full(market, b, beta)
            worst = max(worst, report.residual)
            assert report.residual < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    count = 1000 * len(DECOMPOSITION_BETAS)
    _passed(1, f"{count} decompositions, worst residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_optimizer_vs_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(50):
        m = int(rng.choice([2, 3]))
        k = 400 if m == 2 else 120
        market = random_market(rng, m)
        for beta in (-1.0, 0.5):
            g = optimal_full(market, beta)
            grid_best, grid_value = grid_search_full(market, beta, GridSpec(k, m))
            assert utility_full(market, g, beta) >= grid_value - 1e-12
            assert np.max(np.abs(grid_best.bets - g.bets)) <= 2.0 / k
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(2, f"100 grid searches dominated by the closed form, {elapsed:.1f}s")


def test_criterion_03_kelly_limit():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        market = random_market(rng, int(rng.integers(2, 6)), odds_lo=1.5, odds_hi=8.0)
        b = random_interior_allocation(rng, market.m)
        rate = doubling_rate(market, b)
        for beta in (1e-4, -1e-4):
            gap = abs(utility_full(market, b, beta) - rate)
            worst = max(worst, gap)
            assert gap < 1e-3
    _passed(3, f"500 instances, worst |U(+/-1e-4) - rate| = {worst:.3e}")


def test_criterion_04_degenerate_regime():
    rng = np.random.default_rng(104)
    for _ in range(200):
        m = int(rng.choice([2, 3]))
        market = random_market(rng, m)
        for beta in (1.0, 2.0, 5.0):
            best, value = grid_search_full(market, beta, GridSpec(60, m))
            assert np.max(best.bets) == 1.0
            bound = math.log2(np.max(market.probs ** (1.0 / beta) * market.odds))
            assert abs(value - bound) < 1e-9
    _passed(4, "600 grid searches all land on the predicted vertex")


def test_criterion_05_tail_limits():
    rng = np.random.default_rng(105)
    count = 0
    while count < 200:
        p1 = rng.uniform(0.45, 0.55)
        market = new_race([p1, 1 - p1], rng.uniform(1.5, 6.0, size=2))
        b = random_interior_allocation(rng, 2, floor=0.1)
        payoffs = b.bets * market.odds
        if payoffs.max() / payoffs.min() > 8.0:
            continue
        count += 1
        best, worst = limit_utilities(market, b)
        assert abs(utility_full(market, b, 64.0) - best) < 0.02
        assert abs(utility_full(market, b, -64.0) - worst) < 0.02
    for _ in range(50):
        market = random_market(rng, int(rng.integers(2, 6)))
        safe = dispatch(market, -math.inf)
        c = track_constant(market)
        np.testing.assert_allclose(safe.bets * market.odds, c, rtol=1e-14)
    _passed(5, "200 extreme-beta gaps below 0.02 bits; worst-case payoff pins c per outcome")


def test_criterion_06_conditional_divergence_inequalities():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        n_y = int(rng.integers(2, 5))
        n_x = int(rng.integers(2, 5))
        p_y = random_pmf(rng, n_y, floor=0.02)
        p_cond = np.vstack([random_pmf(rng, n_x, floor=0.02) for _ in range(n_y)])
        q_cond = np.vstack([random_pmf(rng, n_x, floor=0.02) for _ in range(n_y)])
        r = random_pmf(rng, n_x, floor=0.02)
        r_table = np.tile(r, (n_y, 1))
        p_joint = (p_cond * p_y[:, None]).ravel()
        q_joint = (q_cond * p_y[:, None]).ravel()
        p_x = p_cond.T @ p_y
        for alpha in (0.3, 0.7, 1.5, 3.0):
            conditional = cond_renyi_div(p_cond, q_cond, p_y, alpha)
            joint = renyi_div(p_joint, q_joint, alpha)
            assert conditional >= -1e-12
            assert conditional <= joint + 1e-12
            assert renyi_div(p_x, r, alpha) <= cond_renyi_div(p_cond, r_table, p_y, alpha) + 1e-12
    _passed(6, "4000 inequality triples hold with 1e-12 slack")


def test_criterion_07_side_info_decomposition():
    rng = np.random.default_rng(107)
    worst_residual = 0.0
    worst_gap = 0.0
    for _ in range(500):
        n_y = int(rng.integers(2, 4))
        n_x = int(rng.integers(2, 5))
        market = random_joint_market(rng, n_y, n_x, positive_marginals=True)
        table = random_conditional_allocation(rng, n_y, n_x)
        flat_market = new_race(market.horse_probs, market.odds)
        r = bookie_distribution(market)
        for beta in DECOMPOSITION_BETAS:
            report = decompose_side_info(market, table, beta)
            worst_residual = max(worst_residual, report.residual)
            assert report.residual < 1e-9

            # the value of the signal equals the divergence gap
            g_table, _ = optimal_side_info(market, beta)
            informed = utility_side_info(market, g_table, beta)
            uninformed = utility_full(flat_market, optimal_full(flat_market, beta), beta)
            alpha = 1.0 / (1.0 - beta)
            div_gap = cond_renyi_div(
                market.conditional(), np.tile(r, (n_y, 1)), market.signal_probs, alpha
            ) - renyi_div(market.horse_probs, r, alpha)
            gap = abs((informed - uninformed) - div_gap)
            worst_gap = max(worst_gap, gap)
            assert div_gap >= -1e-12
            assert gap < 1e-9
    _passed(
        7,
        f"500 joints x {len(DECOMPOSITION_BETAS)} betas: worst residual {worst_residual:.2e}, worst value gap {worst_gap:.2e}",
    )


def test_criterion_08_partial_investment():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    zero_cash = 0
    for _ in range(100):
        market = random_subfair_market(rng, 2)
        for beta in (-0.5, 0.5) + EDGE_BETAS:
            sol = optimal_partial(market, beta)
            alloc = sol.allocation
            values = [alloc.cash, *alloc.bets, *sol.gammas, sol.gamma_cap, sol.utility]
            assert not np.isnan(values).any()
            if beta not in EDGE_BETAS:
                assert alloc.cash > 0.0

            scores = market.probs * market.odds
            backed = np.zeros(market.m, dtype=bool)
            backed[list(sol.support)] = True
            assert np.all(scores[backed] > sol.gamma_cap)
            assert np.all(scores[~backed] <= sol.gamma_cap + 1e-12)
            # support is a prefix of the payoff-descending order
            ranked = np.argsort(-scores, kind="stable")
            assert set(sol.support) == set(int(i) for i in ranked[: len(sol.support)])
            assert sol.support == prefix_search_partial(market, beta)[0]

            report = kkt_residual(market, beta, alloc, gamma_cap=sol.gamma_cap)
            if beta not in EDGE_BETAS or alloc.cash >= np.finfo(float).tiny:
                assert report.stationarity_gap < 1e-8
                assert report.feasibility_gap < 1e-8
                assert report.cash_stationarity_gap < 1e-8
                assert report.cash_feasibility_gap < 1e-8
                assert report.mu_gamma_gap < 1e-8
            elif alloc.cash == 0.0:
                # the unbacked horse then pays 0: an infinite marginal value
                assert report.feasibility_gap == report.cash_feasibility_gap == math.inf
                zero_cash += 1

            _, grid_value = grid_search_partial(market, beta, GridSpec(200, 3))
            assert grid_value <= sol.utility + 1e-9
            if beta not in EDGE_BETAS:
                assert sol.utility >= grid_value - 5e-3
                assert sol.utility >= grid_value
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(
        8,
        f"500 subfair solves certified by KKT and grid ({zero_cash} with cash 0.0), {elapsed:.1f}s",
    )


def test_criterion_09_cash_folding_never_hurts():
    rng = np.random.default_rng(109)
    for _ in range(200):
        market = random_superfair_market(rng, int(rng.integers(2, 5)))
        partial = random_partial_allocation(rng, market.m)
        folded = fold_cash_into_bets(market, partial)
        refolded = PartialAllocation(0.0, folded.bets)
        for beta in (-2.0, -0.5, 0.5, 1.0, 2.0):
            before = utility_partial(market, partial, beta)
            after = utility_partial(market, refolded, beta)
            assert after >= before - 1e-12
    _passed(9, "1000 fold comparisons, utility never dropped")


def test_criterion_10_monte_carlo_growth():
    start = time.perf_counter()
    market = new_race([0.6, 0.4], [2, 2])
    strategy = kelly(market)
    target = 0.6 * math.log2(1.2) + 0.4 * math.log2(0.8)
    assert target == pytest.approx(0.029049, abs=1e-6)
    hits = 0
    for seed in range(1, 101):
        traj = simulate_growth(market, strategy, 10**5, seed=seed)
        increments = np.diff(traj.log_wealth, prepend=0.0)
        band = 3.0 * float(increments.std(ddof=1)) / math.sqrt(traj.n_races)
        if abs(traj.final_rate - target) <= band:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 99
    assert elapsed < 30.0
    _passed(10, f"{hits}/100 seeded runs inside the 3-sigma band, {elapsed:.1f}s")


def test_criterion_11_cli_determinism_and_round_trip(tmp_path, capsys):
    spec = tmp_path / "race.json"
    spec.write_text(json.dumps({"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}]}))

    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    for argv in (
        ("analyze", str(spec)),
        ("optimize", str(spec), "--beta", "0.5", "--check"),
        ("optimize", str(spec), "--beta", "-0.7", "--mode", "partial"),
        ("simulate", str(spec), "--beta", "kelly", "-n", "2000", "--seed", "7"),
    ):
        assert invoke(*argv) == invoke(*argv)

    out = invoke("optimize", str(spec), "--beta", "0.5")
    doc = json.loads(out)
    bets = doc["allocation"]["bets"]
    exact = optimal_full(new_race([0.6, 0.4], [2, 2]), 0.5)
    assert bets == [float(v) for v in exact.bets]
    assert json.loads(json.dumps(doc, sort_keys=True, indent=2)) == doc
    _passed(11, "byte-identical reruns; floats survive the round trip bit for bit")
