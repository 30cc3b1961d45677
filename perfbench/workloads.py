"""Seeded inputs, tasks and output checks for the four benchmark workloads.

Each workload is a fixed list of generated inputs, a task that runs one
input through the library (or the CLI) and checks the output against the
identity the library documents, and the nominal time of one round over its
inputs, from which the harness fixes how many rounds a run makes.

A task returns its failed checks as ``(counter, explained)`` pairs.  Every
failed check counts; ``explained`` marks the failures that a defect on
record or Monte Carlo chance accounts for, each only where it was measured
(see the ``*_DEFECT_*`` constants), so the benchmark can tell a new break
from the ones already on record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import powerbet

INF = math.inf

# The beta values of the analytic workload: every regime from the worst case
# through Kelly (0.0) and the single-horse regime (>= 1) to the best case,
# with 0.999 and 1 - 1e-6 kept because they expose the beta -> 1 defects.
BETAS_ANALYTIC = (-INF, -5.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0, 2.0, INF)
BETAS_INTERIOR = tuple(b for b in BETAS_ANALYTIC if math.isfinite(b) and b != 0.0 and b < 1.0)
BETAS_PARTIAL = (-2.0, -0.5, 0.5, 0.9, 0.99)
BETAS_GRID_FULL = BETAS_INTERIOR + (1.0, 2.0)
BETAS_MC = (-1.0, -0.5, 0.25, 0.5)
ALLOCS = ("opt", "kelly", "bookie")

RESIDUAL_TOL = 1e-9  # decomposition identity, as documented by DecompositionReport
KKT_GAP_TOL = 1e-8  # optimality certificate of optimal_partial
VALUE_TOL = 1e-9  # an optimum is never beaten by more than this
LIMIT_TOL = 1e-12  # exact payoff bounds of the infinite-beta limits
MC_BAND_SE = 3.0  # Monte Carlo estimates must fall within 3 standard errors

# The defects on record, each excused only where it was measured; a failure
# anywhere else leaves ``correct`` false.  decompose_full /
# decompose_side_info lose the identity once the optimal weights underflow
# (worst residual 5.3 bits at 1 - 1e-6).  Every residual failure seen on
# seeds 40-51 of analytic-small (at beta 0.99 to 1 - 1e-6) had an optimal
# weight below the smallest normal double, so that is the excuse:
UNDERFLOW = np.finfo(float).tiny
# optimal_partial returns allocations that break the KKT certificate (gaps
# up to ~15 at 0.99):
KKT_DEFECT_BETA = 0.9
# optimal_partial raises BetaOutOfRangeError when every candidate support
# overflows:
RAISE_DEFECT_BETA = 0.999
# Found by this benchmark on partial-wide (m = 256, 1000 and 2000, about one
# race in a hundred): optimal_partial sometimes keeps a support whose
# marginal horse has a near-zero bet (5e-10 to 9e-9), because two adjacent
# supports score within rounding of each other, and the KKT gaps then land
# just above the bound (1.5e-8 to 2e-7).  Only a KKT failure at
# m >= NEAR_TIE_M with that signature, a backed horse below NEAR_TIE_BET and
# every gap below NEAR_TIE_GAP, is that near-tie.
NEAR_TIE_M = 256
NEAR_TIE_BET = 1e-6
NEAR_TIE_GAP = 1e-6


def _defect(beta: float, threshold: float) -> bool:
    return threshold <= beta < 1.0


def _pmf(rng, n: int) -> np.ndarray:
    # A uniform floor keeps every entry >= 0.1/n, so the generator never
    # hands the library a probability that is itself near underflow.
    v = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    return v / v.sum()


def _odds(rng, m: int, c: float) -> np.ndarray:
    # Odds are built as c / r from a bookie distribution r, so the track
    # constant is c at every m.  Fixed odds drawn from [1.2, 8] would give
    # c = 1 / sum(1/o) ~ 0.003 at m = 1000: optimal_partial then skips
    # almost every prefix as undefined and runs in 17 ms instead of the
    # ~400 ms it takes on a realistic track constant such as c = 0.85.
    return c / _pmf(rng, m)


def _band_c(rng, band: int) -> float:
    if band == 0:
        return float(rng.uniform(0.70, 0.95))  # subfair
    if band == 1:
        return 1.0  # exactly fair
    return float(rng.uniform(1.02, 1.20))  # superfair


@dataclass(frozen=True)
class Item:
    """One task input: raw arrays only; the task builds the market itself."""

    kind: str
    beta: float
    probs: np.ndarray | None = None
    odds: np.ndarray | None = None
    joint: np.ndarray | None = None
    alloc: str = "opt"
    size: tuple = ()
    seed: int = 0


@dataclass
class Workload:
    name: str
    round_s: float  # nominal seconds of one round over the inputs; see WORKLOADS
    make: Callable  # (rng, tiny, ctx) -> list[Item]
    task: Callable  # (lib, item, ctx) -> list[(counter, explained)]
    bind: Callable  # (ctx, tracer) -> lib


def _bind_powerbet(ctx, tracer):
    from tracing import bind_library

    return bind_library(powerbet, tracer)


# ---------------------------------------------------------------- analytic-small


def _cycle(j: int, *radices: int) -> list[int]:
    """The digits of ``j`` in the mixed radix ``radices``, lowest first."""
    digits = []
    for radix in radices:
        j, digit = divmod(j, radix)
        digits.append(digit)
    return digits


def _analytic_items(rng, tiny, ctx) -> list[Item]:
    # beta, the c band and the allocation cycle through every combination
    # rather than being drawn, so each seed has the same mix of regimes and
    # of partial solves; m, the number of signals and the numbers are drawn.
    items = []
    for i in range(256 if tiny else 1024):
        m = int(math.exp(rng.uniform(math.log(2), math.log(17))))
        if i % 4 == 3:
            b, band, a = _cycle(i // 4, len(BETAS_INTERIOR), 3, 3)
            c = _band_c(rng, band)
            n_signals = int(rng.integers(2, 7))
            joint = _pmf(rng, n_signals * m).reshape(n_signals, m)
            items.append(Item("side", BETAS_INTERIOR[b], odds=_odds(rng, m, c), joint=joint, alloc=ALLOCS[a]))
        else:
            b, band, a = _cycle(i - i // 4, len(BETAS_ANALYTIC), 3, 3)
            c = _band_c(rng, band)
            items.append(Item("race", BETAS_ANALYTIC[b], probs=_pmf(rng, m), odds=_odds(rng, m, c), alloc=ALLOCS[a]))
    return items


def _check_partial(lib, mk, beta: float, fails: list):
    """Solve with cash allowed and certify the result with the KKT residuals."""
    try:
        sol = lib.optimal_partial(mk, beta)
    except powerbet.BetaOutOfRangeError:
        fails.append(("strategy.optimal_partial.raised", _defect(beta, RAISE_DEFECT_BETA)))
        return None
    report = lib.kkt_residual(mk, beta, sol.allocation, gamma_cap=sol.gamma_cap)
    gaps = [
        report.stationarity_gap,
        report.feasibility_gap,
        report.cash_stationarity_gap,
        report.cash_feasibility_gap,
    ]
    if report.mu_gamma_gap is not None:
        gaps.append(report.mu_gamma_gap)
    if not max(gaps) < KKT_GAP_TOL:
        bets = sol.allocation.bets
        smallest = bets[bets > 0].min(initial=INF)
        near_tie = mk.m >= NEAR_TIE_M and smallest < NEAR_TIE_BET and max(gaps) < NEAR_TIE_GAP
        fails.append(("oracle.kkt.check_fail", _defect(beta, KKT_DEFECT_BETA) or near_tie))
    return sol


def _check_report(report, weights: np.ndarray, fails: list) -> None:
    """Check the identity; ``weights`` is the optimal allocation it uses."""
    if not report.residual < RESIDUAL_TOL:
        fails.append(("utility.decompose.residual_fail", bool(weights.min() < UNDERFLOW)))


def _analytic_race(lib, item: Item, fails: list) -> None:
    beta = item.beta
    mk = lib.new_race(item.probs, item.odds)
    subfair = lib.classify_fairness(mk).tag is powerbet.FairnessTag.SUBFAIR
    c = lib.track_constant(mk)
    r = lib.bookie_distribution(mk)
    opt = lib.dispatch(mk, beta)
    b = {"opt": opt, "kelly": lib.kelly(mk), "bookie": lib.Allocation(r)}[item.alloc]

    if math.isinf(beta):
        side = 0 if beta > 0 else 1
        value = lib.limit_utilities(mk, b)[side]
        best = lib.limit_utilities(mk, opt)[side]
        target = math.log2(float(mk.odds.max())) if beta > 0 else math.log2(c)
        if not abs(best - target) <= LIMIT_TOL:
            fails.append(("strategy.identity_fail", False))
    elif beta >= 1.0:
        value = lib.utility_full(mk, b, beta)
        best = lib.utility_full(mk, opt, beta)
        target = float(np.max(np.log2(mk.probs) / beta + np.log2(mk.odds)))
        if not abs(best - target) <= VALUE_TOL:
            fails.append(("strategy.identity_fail", False))
    elif beta == 0.0:
        value = lib.doubling_rate(mk, b)
        best = lib.doubling_rate(mk, opt)
        _check_report(lib.decompose_kelly(mk, b), opt.bets, fails)
        # The divergence layer at the decomposition's orders.  Its values are
        # not compared with the report's terms bit for bit: that equality is
        # not documented, and the residual check already certifies the terms.
        lib.renyi_div(mk.probs, r, 1.0)
        lib.renyi_div(mk.probs, b.bets, 1.0)
    else:
        value = lib.utility_full(mk, b, beta)
        best = lib.utility_full(mk, opt, beta)
        _check_report(lib.decompose_full(mk, b, beta), opt.bets, fails)
        lib.renyi_div(mk.probs, r, 1.0 / (1.0 - beta))
        lib.renyi_div(opt.bets, b.bets, 1.0 - beta)
        if subfair:
            _check_partial(lib, mk, beta, fails)
    if not value <= best + VALUE_TOL:  # also catches NaN
        fails.append(("strategy.optimality_fail", False))


def _analytic_side(lib, item: Item, fails: list) -> None:
    beta = item.beta
    mk = lib.new_side_info(item.joint, item.odds)
    lib.classify_fairness(mk)
    r = lib.bookie_distribution(mk)
    table, g_y = lib.optimal_side_info(mk, beta)
    b = {
        "opt": table,
        "kelly": lib.ConditionalAllocation(mk.conditional()),
        "bookie": lib.ConditionalAllocation(np.tile(r, (mk.n_signals, 1))),
    }[item.alloc]
    value = lib.utility_side_info(mk, b, beta)
    best = lib.utility_side_info(mk, table, beta)
    if not value <= best + VALUE_TOL:  # also catches NaN
        fails.append(("strategy.optimality_fail", False))
    _check_report(lib.decompose_side_info(mk, b, beta), table.table, fails)
    r_table = np.broadcast_to(r, mk.joint.shape)
    lib.cond_renyi_div(mk.conditional(), r_table, mk.signal_probs, 1.0 / (1.0 - beta))
    lib.renyi_div((table.table * g_y[:, None]).ravel(), (b.table * g_y[:, None]).ravel(), 1.0 - beta)


def _analytic_task(lib, item: Item, ctx) -> list:
    fails: list = []
    if item.kind == "side":
        _analytic_side(lib, item, fails)
    else:
        _analytic_race(lib, item, fails)
    return fails


# ---------------------------------------------------------------- partial-wide

PARTIAL_SIZES = (256, 1000, 2000)
PARTIAL_SIZES_TINY = (8, 16, 32)
PARTIAL_BLOCKS = 1  # blocks of the 15 (m, beta) pairs; one round of one block takes ~7 s


def _partial_items(rng, tiny, ctx) -> list[Item]:
    sizes = PARTIAL_SIZES_TINY if tiny else PARTIAL_SIZES
    block = len(sizes) * len(BETAS_PARTIAL)
    items = []
    for i in range(PARTIAL_BLOCKS * block):
        beta_idx = (i // len(sizes)) % len(BETAS_PARTIAL)
        # Latin-square strata for c: each m sees every fifth of the
        # 0.70-0.95 band once, one per beta, and each further block shifts
        # them, so the per-run cost of the solver, which grows with c, is the
        # same for every seed.
        stratum = (beta_idx + i % len(sizes) + i // block) % len(BETAS_PARTIAL)
        c = 0.70 + 0.25 * (stratum + float(rng.random())) / len(BETAS_PARTIAL)
        m = sizes[i % len(sizes)]
        items.append(Item("partial", BETAS_PARTIAL[beta_idx], probs=_pmf(rng, m), odds=_odds(rng, m, c)))
    return items


def _partial_task(lib, item: Item, ctx) -> list:
    fails: list = []
    beta = item.beta
    mk = lib.new_race(item.probs, item.odds)
    sol = _check_partial(lib, mk, beta, fails)
    if sol is not None:
        value = lib.utility_partial(mk, sol.allocation, beta)
        if not abs(value - sol.utility) <= VALUE_TOL * max(1.0, abs(sol.utility)):
            fails.append(("utility.partial_mismatch", False))
    full = lib.optimal_full(mk, beta)
    _check_report(lib.decompose_full(mk, full, beta), full.bets, fails)
    return fails


# ---------------------------------------------------------------- verify

VERIFY_KINDS = (
    ("grid_full", 400, 2),
    ("grid_full", 120, 3),
    ("grid_partial", 200, 3),
    ("monte_carlo", 10**6),
    ("grid_full", 60, 4),
    ("grid_partial", 60, 4),
    ("monte_carlo", 10**7),
    ("grid_full", 200, 4),
)
VERIFY_KINDS_TINY = (
    ("grid_full", 40, 2),
    ("grid_full", 12, 3),
    ("grid_partial", 20, 3),
    ("monte_carlo", 10**4),
    ("grid_full", 6, 4),
    ("grid_partial", 6, 4),
    ("monte_carlo", 10**5),
    ("grid_full", 20, 4),
)
VERIFY_BLOCKS = 2  # blocks of the eight oracle kinds; one round of two takes ~8.5 s


def _verify_items(rng, tiny, ctx) -> list[Item]:
    # beta, the c band and the Monte Carlo m cycle rather than being drawn:
    # a (200,4) grid takes 1.7-2.5 s depending on beta, so drawn betas would
    # change the cost of a run from seed to seed.
    kinds = VERIFY_KINDS_TINY if tiny else VERIFY_KINDS
    items = []
    seen: dict[str, int] = {}
    for i in range(VERIFY_BLOCKS * len(kinds)):
        kind = kinds[i % len(kinds)]
        j = seen[kind[0]] = seen.get(kind[0], -1) + 1  # earlier items of this oracle
        c = _band_c(rng, i % 3)
        if kind[0] == "grid_full":
            m = kind[2]
            beta = BETAS_GRID_FULL[j % len(BETAS_GRID_FULL)]
        elif kind[0] == "grid_partial":
            m = kind[2] - 1  # the cash coordinate is the grid's extra dimension
            beta = BETAS_PARTIAL[j % len(BETAS_PARTIAL)]
        else:
            m = 2 + 3 * j % 7
            beta = BETAS_MC[j % len(BETAS_MC)]
        items.append(
            Item(
                kind[0],
                beta,
                probs=_pmf(rng, m),
                odds=_odds(rng, m, c),
                size=kind[1:],
                seed=int(rng.integers(2**31)),
            )
        )
    return items


def _mc_fail(estimate: float, truth: float, se: float, fails: list) -> None:
    miss = abs(estimate - truth)
    if not miss <= MC_BAND_SE * se:
        # Beyond 3 SE happens by chance 0.27% of the time; beyond 6 SE is a
        # bug.  Over 4,800 seeded draws at n = 10^5 and 10^6 the z-scores of
        # both checks had standard deviations of 0.93-1.14 per beta, so the
        # analytic standard errors below are not too small.  The two checks
        # of one task share their draws, so their misses come together.
        fails.append(("oracle.mc.check_fail", miss <= 2 * MC_BAND_SE * se))


def _verify_task(lib, item: Item, ctx) -> list:
    fails: list = []
    beta = item.beta
    mk = lib.new_race(item.probs, item.odds)
    if item.kind == "grid_full":
        grid = powerbet.GridSpec(*item.size)
        _, grid_value = lib.grid_search_full(mk, beta, grid)
        analytic = lib.utility_full(mk, lib.dispatch(mk, beta), beta)
        if not grid_value <= analytic + VALUE_TOL:
            fails.append(("oracle.grid.check_fail", False))
    elif item.kind == "grid_partial":
        grid = powerbet.GridSpec(*item.size)
        _, grid_value = lib.grid_search_partial(mk, beta, grid)
        try:
            analytic = lib.optimal_partial(mk, beta).utility
        except powerbet.BetaOutOfRangeError:
            fails.append(("strategy.optimal_partial.raised", _defect(beta, RAISE_DEFECT_BETA)))
        else:
            # No grid point has beaten optimal_partial on record, not even
            # where its KKT certificate breaks, so no failure here is excused.
            if not grid_value <= analytic + VALUE_TOL:
                fails.append(("oracle.grid.check_fail", False))
    else:
        n = item.size[0]
        b = lib.dispatch(mk, beta)
        payoffs = b.bets * mk.odds
        traj = lib.simulate_growth(mk, b, n, item.seed)
        truth = lib.doubling_rate(mk, b)
        sd = math.sqrt(float(np.sum(mk.probs * (np.log2(payoffs) - truth) ** 2)))
        _mc_fail(traj.final_rate, truth, sd / math.sqrt(n), fails)
        estimate = lib.estimate_ubeta(mk, b, beta, n, item.seed)
        truth = lib.utility_full(mk, b, beta)
        # Delta method: U = log2(mean S^beta) / beta.
        mean = float(np.sum(mk.probs * payoffs**beta))
        sd = math.sqrt(max(float(np.sum(mk.probs * payoffs ** (2 * beta))) - mean**2, 0.0))
        _mc_fail(estimate, truth, sd / (math.sqrt(n) * abs(beta) * math.log(2.0) * mean), fails)
    return fails


# ---------------------------------------------------------------- cli


@dataclass
class CliContext:
    root: str
    outdir: str
    first_output: dict


def _spec(rng, m: int, c: float, n_signals: int = 0) -> dict:
    odds = _odds(rng, m, c)
    if not n_signals:
        probs = _pmf(rng, m)
        return {"horses": [{"p": float(p), "odds": float(o)} for p, o in zip(probs, odds)]}
    joint = _pmf(rng, n_signals * m).reshape(n_signals, m)
    probs = joint.sum(axis=0)
    return {
        "horses": [{"p": float(p), "odds": float(o)} for p, o in zip(probs, odds)],
        "side_info": {
            "signals": [f"s{y}" for y in range(n_signals)],
            "joint": [[float(v) for v in row] for row in joint],
        },
    }


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli_items(rng, tiny, ctx: CliContext) -> list[Item]:
    specs = {
        "any": _spec(rng, int(rng.integers(2, 5)), _band_c(rng, int(rng.integers(3)))),
        "m2": _spec(rng, 2, _band_c(rng, 0)),
        "m3": _spec(rng, 3, _band_c(rng, int(rng.integers(3)))),
        "side": _spec(rng, 4, _band_c(rng, 0), n_signals=int(rng.integers(2, 4))),
    }
    paths = {}
    for name, doc in specs.items():
        paths[name] = os.path.join(ctx.outdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    m = int(rng.integers(2, 5))
    n_signals = int(rng.integers(2, 4))
    p, q = _pmf(rng, m), _pmf(rng, m)
    p_tab, q_tab = (";".join(_vec(_pmf(rng, m)) for _ in range(n_signals)) for _ in range(2))
    csv = os.path.join(ctx.outdir, "trajectory.csv")
    any_, side = paths["any"], paths["side"]
    # Every mode and beta regime; --check only where its grid has at most
    # 20,301 points (full mode with m <= 3, partial mode with m = 2).
    commands = [
        ("analyze", ["analyze", any_]),
        ("optimize", ["optimize", side, "--beta", "-inf"]),
        ("optimize", ["optimize", side, "--beta", "-5"]),
        ("optimize_check", ["optimize", side, "--beta", "kelly", "--check"]),
        ("optimize_check", ["optimize", paths["m3"], "--beta", "0.5", "--check"]),
        ("optimize", ["optimize", side, "--beta", "0.999"]),
        ("optimize_check", ["optimize", paths["m2"], "--beta", "2", "--check"]),
        ("optimize_check", ["optimize", side, "--beta", "+inf", "--check"]),
        ("optimize_check", ["optimize", paths["m2"], "--beta", "-0.5", "--mode", "partial", "--check"]),
        ("optimize", ["optimize", side, "--beta", "0.99", "--mode", "partial"]),
        ("optimize_check", ["optimize", side, "--beta", "0.5", "--mode", "side-info", "--check"]),
        ("simulate", ["simulate", any_, "--beta", "kelly", "-n", "10000", "--seed", str(int(rng.integers(2**31))), "--output", csv]),
        ("divergence", ["divergence", "--alpha", ("0.5", "1", "2")[int(rng.integers(3))], "-p", _vec(p), "-q", _vec(q)]),
        ("divergence", ["divergence", "--alpha", ("0.5", "2")[int(rng.integers(2))], "-p", p_tab, "-q", q_tab, "--p-y", _vec(_pmf(rng, n_signals))]),
    ]
    return [Item(label, 0.0, size=(tuple(argv), csv if label == "simulate" else None)) for label, argv in commands]


def _run_cli(ctx: CliContext, argv: tuple) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    return subprocess.run(
        [sys.executable, "-m", "powerbet", *argv], cwd=ctx.root, env=env, capture_output=True, check=False
    )


def _bind_cli(ctx: CliContext, tracer):
    def command(label):
        fn = lambda argv: _run_cli(ctx, argv)  # noqa: E731
        return fn if tracer is None else tracer.wrap(f"cli.{label}", fn)

    return {label: command(label) for label in ("analyze", "optimize", "optimize_check", "simulate", "divergence")}


def _kelly_rounding(proc: subprocess.CompletedProcess) -> bool:
    """The CLI defect on record: ``optimize --beta kelly --check`` exits 4 when
    the renormalized probabilities sum to 1 - 1 ulp, because Allocation
    renormalizes them once more and the check then compares bets == probs
    bit for bit, although the decomposition residual is fine."""
    if proc.returncode != 4:
        return False
    try:
        check = json.loads(proc.stdout)["oracle_check"]
        return check["kind"] == "kelly_identity" and check["residual"] < RESIDUAL_TOL
    except (ValueError, KeyError, TypeError):
        return False


def _cli_task(lib, item: Item, ctx: CliContext) -> list:
    argv, output = item.size
    proc = lib[item.kind](argv)
    if proc.returncode != 0:
        return [("cli.exit_nonzero", _kelly_rounding(proc))]
    try:
        json.loads(proc.stdout)
    except ValueError:
        return [("cli.invalid_json", False)]
    digest = hashlib.sha256(proc.stdout)
    if output is not None:
        with open(output, "rb") as fh:
            digest.update(fh.read())
    if ctx.first_output.setdefault(argv, digest.digest()) != digest.digest():
        return [("cli.output_mismatch", False)]
    return []


# A run makes a fixed number of rounds over a fixed list of inputs, so a
# seed gives the same tasks, and the same failures, on every run and every
# commit, however fast the machine or the library: max(2, round(seconds /
# round_s)), where round_s is the time of one round at the seed commit on a
# 2-vCPU Xeon virtual machine.  Every input runs at least twice, so every CLI
# invocation is checked against its own first output.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analytic-small", 2.0, _analytic_items, _analytic_task, _bind_powerbet),
        Workload("partial-wide", 7.0, _partial_items, _partial_task, _bind_powerbet),
        Workload("verify", 8.5, _verify_items, _verify_task, _bind_powerbet),
        Workload("cli", 9.5, _cli_items, _cli_task, _bind_cli),
    )
}
