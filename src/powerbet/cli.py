"""Command-line interface over file-based race specifications.

Commands: ``analyze`` (odds-derived quantities), ``optimize`` (allocations,
utility, decomposition, optional oracle cross-check), ``simulate`` (seeded
wealth trajectories), ``divergence`` (plain and conditional divergences).

Race spec files are JSON documents::

    {
      "horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}],
      "side_info": {"signals": ["a", "b"], "joint": [[0.3, 0.1], [0.3, 0.3]]},
      "beta": 0.5,
      "mode": "full"
    }

``side_info.joint`` rows are signals, columns are horses.  ``beta`` and
``mode`` are optional defaults that flags override.

Exit codes: 0 success, 2 invalid input, 3 incompatible mode, 4 oracle
disagreement beyond tolerance.  All numeric output uses the shortest
round-tripping decimal form, so re-reading a document reproduces every
float exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import divergence, oracle, strategy, utility
from .errors import PowerbetError
from .market import (
    RaceMarket,
    SideInfoMarket,
    bookie_distribution,
    classify_fairness,
    new_race,
    new_side_info,
    track_constant,
)

KKT_GAP_TOL = 1e-8
RESIDUAL_TOL = 1e-9
ORACLE_VALUE_TOL = 1e-9
_CSV_CHUNK_ROWS = 1 << 16


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _table(values) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(values)]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CommandError(2, f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CommandError(2, f"spec file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _CommandError(2, "spec file must contain a JSON object")
    return doc


def _require_number(value, field: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _CommandError(2, f"{field} must be a number")
    value = float(value)
    if positive and value <= 0.0:
        raise _CommandError(2, f"{field} must be > 0")
    return value


def _parse_horses(doc: dict, allow_zero_p: bool) -> tuple[list[float], list[float]]:
    horses = doc.get("horses")
    if not isinstance(horses, list) or not horses:
        raise _CommandError(2, "horses must be a nonempty list")
    probs, odds = [], []
    for i, horse in enumerate(horses):
        if not isinstance(horse, dict):
            raise _CommandError(2, f"horses[{i}] must be an object with fields p and odds")
        if "p" not in horse:
            raise _CommandError(2, f"horses[{i}].p is missing")
        if "odds" not in horse:
            raise _CommandError(2, f"horses[{i}].odds is missing")
        p = _require_number(horse["p"], f"horses[{i}].p")
        if p < 0.0 or (p == 0.0 and not allow_zero_p):
            raise _CommandError(2, f"horses[{i}].p must be > 0")
        probs.append(p)
        odds.append(_require_number(horse["odds"], f"horses[{i}].odds", positive=True))
    return probs, odds


def _parse_race(doc: dict) -> RaceMarket:
    probs, odds = _parse_horses(doc, allow_zero_p=False)
    try:
        return new_race(probs, odds)
    except PowerbetError as exc:
        raise _CommandError(2, f"horses: {exc}")


def _parse_side_info(doc: dict) -> SideInfoMarket:
    block = doc.get("side_info")
    if block is None:
        raise _CommandError(3, "this mode needs a side_info block in the spec file")
    if not isinstance(block, dict):
        raise _CommandError(2, "side_info must be an object with fields signals and joint")
    probs, odds = _parse_horses(doc, allow_zero_p=True)
    joint = block.get("joint")
    if not isinstance(joint, list) or not joint or not all(isinstance(r, list) for r in joint):
        raise _CommandError(2, "side_info.joint must be a nonempty list of rows")
    signals = block.get("signals")
    if signals is not None and not isinstance(signals, list):
        raise _CommandError(2, "side_info.signals must be a list")
    if signals is not None and len(signals) != len(joint):
        raise _CommandError(2, "side_info.signals length must match the number of joint rows")
    for y, row in enumerate(joint):
        if len(row) != len(odds):
            raise _CommandError(2, f"side_info.joint[{y}] must have one column per horse")
        for x, cell in enumerate(row):
            _require_number(cell, f"side_info.joint[{y}][{x}]")
    try:
        market = new_side_info(joint, odds)
    except PowerbetError as exc:
        raise _CommandError(2, f"side_info: {exc}")
    if np.max(np.abs(market.horse_probs - np.asarray(probs))) > 1e-6:
        raise _CommandError(2, "side_info.joint column sums disagree with horses[].p")
    return market


def _parse_beta(text: str) -> float:
    label = text.strip().lower()
    if label == "kelly":
        return 0.0
    if label in ("+inf", "inf"):
        return math.inf
    if label == "-inf":
        return -math.inf
    try:
        value = float(label)
    except ValueError:
        raise _CommandError(2, f"--beta must be kelly, +inf, -inf, or a decimal, got {text!r}")
    if math.isnan(value):
        raise _CommandError(2, "--beta must not be NaN")
    return value


def _beta_label(beta: float) -> str:
    if beta == 0.0:
        return "kelly"
    if beta == math.inf:
        return "+inf"
    if beta == -math.inf:
        return "-inf"
    return repr(beta)


def _market_summary(market: RaceMarket | SideInfoMarket) -> dict:
    fairness = classify_fairness(market)
    return {
        "track_constant": track_constant(market),
        "bookie_distribution": _floats(bookie_distribution(market)),
        "fairness": fairness.tag.value,
    }


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> tuple[dict, int]:
    doc = _load_spec(args.spec)
    market = _parse_race(doc)
    out = {"input": doc, "probs": _floats(market.probs), "odds": _floats(market.odds)}
    out.update(_market_summary(market))
    return out, 0


# ---------------------------------------------------------------- optimize


def _resolution(k: int | None, dimension: int) -> int:
    """``--grid-resolution``, or by default the largest resolution <= 200
    whose grid stays within ``oracle.MAX_GRID_POINTS``."""
    if k is None:
        k = 200
        while k > 2 and oracle.GridSpec(k, dimension).n_points > oracle.MAX_GRID_POINTS:
            k -= 1
    return k


def _check_full(market: RaceMarket, beta: float, alloc, value: float, k: int) -> tuple[dict, int]:
    grid = oracle.GridSpec(resolution=k, dimension=market.m)
    grid_alloc, grid_value = oracle.grid_search_full(market, beta, grid)
    gap = grid_value - value
    distance = float(np.max(np.abs(grid_alloc.bets - alloc.bets)))
    ok = gap <= ORACLE_VALUE_TOL
    if beta < 1.0:
        ok = ok and distance <= 2.0 / k
    doc = {
        "kind": "grid_full",
        "grid_resolution": k,
        "grid_value_bits": grid_value,
        "analytic_value_bits": value,
        "grid_minus_analytic": gap,
        "max_allocation_distance": distance,
        "passed": ok,
    }
    return doc, 0 if ok else 4


def _check_partial(
    market: RaceMarket, beta: float, sol: strategy.PartialSolution, k: int
) -> tuple[dict, int]:
    grid = oracle.GridSpec(resolution=k, dimension=market.m + 1)
    _, grid_value = oracle.grid_search_partial(market, beta, grid)
    kkt = asdict(oracle.kkt_residual(market, beta, sol.allocation, gamma_cap=sol.gamma_cap))
    gaps = [gap for name, gap in kkt.items() if name != "mu" and gap is not None]
    ok = (grid_value - sol.utility) <= ORACLE_VALUE_TOL and max(gaps) < KKT_GAP_TOL
    doc = {
        "kind": "grid_partial_and_kkt",
        "grid_resolution": k,
        "grid_value_bits": grid_value,
        "analytic_value_bits": sol.utility,
        "grid_minus_analytic": grid_value - sol.utility,
        "kkt": kkt,
        "passed": ok,
    }
    return doc, 0 if ok else 4


def _optimize_full(market: RaceMarket, beta: float, args, out: dict) -> int:
    code = 0
    alloc = strategy.dispatch(market, beta)
    if math.isinf(beta):
        best, worst = utility.limit_utilities(market, alloc)
        value = best if beta > 0 else worst
        if args.check:
            if beta > 0:
                target = math.log2(float(np.max(market.odds)))
                gap = abs(value - target)
            else:
                c = track_constant(market)
                payoffs = alloc.bets * market.odds
                gap = float(np.max(np.abs(payoffs - c))) / c
            ok = gap <= 1e-12
            out["oracle_check"] = {"kind": "limit_bound", "gap": gap, "passed": ok}
            code = 0 if ok else 4
    else:
        if beta < 1.0:
            out["decomposition"] = asdict(utility.decompose_full(market, alloc, beta))
        value = utility.utility_full(market, alloc, beta)
        if args.check and beta == 0.0:
            residual = out["decomposition"]["residual"]
            ok = residual < RESIDUAL_TOL and np.array_equal(alloc.bets, market.probs)
            out["oracle_check"] = {"kind": "kelly_identity", "residual": residual, "passed": ok}
            code = 0 if ok else 4
        elif args.check:
            out["oracle_check"], code = _check_full(
                market, beta, alloc, value, _resolution(args.grid_resolution, market.m)
            )
    out["allocation"] = {"type": "full", "bets": _floats(alloc.bets)}
    out["utility_bits"] = value
    return code


def _optimize_partial(market: RaceMarket, beta: float, args, out: dict) -> int:
    if math.isinf(beta) or beta >= 1.0:
        raise _CommandError(3, "partial mode needs a finite beta < 1")
    sol = strategy.optimal_partial(market, beta)
    out["allocation"] = {
        "type": "partial",
        "cash": sol.allocation.cash,
        "bets": _floats(sol.allocation.bets),
        "support": list(sol.support),
        "gamma_cap": sol.gamma_cap,
        "gammas": None if sol.gammas is None else _floats(sol.gammas),
    }
    out["utility_bits"] = sol.utility
    code = 0
    if args.check:
        out["oracle_check"], code = _check_partial(
            market, beta, sol, _resolution(args.grid_resolution, market.m + 1)
        )
    return code


def _optimize_side_info(market: SideInfoMarket, beta: float, args, out: dict) -> int:
    if math.isinf(beta) or beta >= 1.0:
        raise _CommandError(3, "side-info mode needs a finite beta < 1")
    alloc, signal_weights = strategy.optimal_side_info(market, beta)
    report = utility.decompose_side_info(market, alloc, beta)
    out["allocation"] = {
        "type": "side_info",
        "table": _table(alloc.table),
        "signal_weights": _floats(signal_weights),
    }
    out["utility_bits"] = report.direct
    out["decomposition"] = asdict(report)
    code = 0
    if args.check:
        alpha = 1.0 / (1.0 - beta)
        marginal_gain = report.bookie_term - divergence.renyi_div(
            market.horse_probs, bookie_distribution(market), alpha
        )
        ok = report.residual < RESIDUAL_TOL and marginal_gain >= -1e-12
        out["oracle_check"] = {
            "kind": "side_info_identity",
            "residual": report.residual,
            "signal_value_bits": marginal_gain,
            "passed": ok,
        }
        code = 0 if ok else 4
    return code


def cmd_optimize(args) -> tuple[dict, int]:
    doc = _load_spec(args.spec)
    mode = args.mode or doc.get("mode") or "full"
    if mode not in ("full", "partial", "side-info"):
        raise _CommandError(2, f"mode must be full, partial, or side-info, got {mode!r}")
    if args.beta is not None:
        beta = _parse_beta(args.beta)
    elif "beta" in doc:
        beta = _parse_beta(str(doc["beta"]))
    else:
        raise _CommandError(2, "no beta given: pass --beta or put a beta field in the spec file")

    out: dict = {
        "input": doc,
        "mode": mode,
        "beta": _beta_label(beta),
        "decomposition": None,
        "oracle_check": None,
    }
    if mode == "side-info":
        market = _parse_side_info(doc)
        out.update(_market_summary(market))
        code = _optimize_side_info(market, beta, args, out)
    else:
        market = _parse_race(doc)
        out.update(_market_summary(market))
        if mode == "partial":
            code = _optimize_partial(market, beta, args, out)
        else:
            code = _optimize_full(market, beta, args, out)
    return out, code


# ---------------------------------------------------------------- simulate


def _write_trajectory_csv(fh, log_wealth: np.ndarray) -> None:
    """Write ``race,cum_log2_wealth`` rows a slice at a time, so the text of
    the whole trajectory is never held in memory."""
    fh.write("race,cum_log2_wealth\n")
    for lo in range(0, log_wealth.size, _CSV_CHUNK_ROWS):
        rows = log_wealth[lo : lo + _CSV_CHUNK_ROWS].tolist()
        fh.write("".join(f"{i},{value!r}\n" for i, value in enumerate(rows, lo + 1)))


def _increment_std(log_wealth: np.ndarray) -> float:
    """Sample standard deviation (ddof 1) of the per-race increments
    ``diff(log_wealth, prepend=0)``, in two passes over slices (the mean, then
    the squared deviations), so memory is O(slice) for any number of races."""

    def increments():
        for lo in range(0, log_wealth.size, _CSV_CHUNK_ROWS):
            before = log_wealth[lo - 1] if lo else 0.0
            yield np.diff(log_wealth[lo : lo + _CSV_CHUNK_ROWS], prepend=before)

    mean = math.fsum(float(d.sum()) for d in increments()) / log_wealth.size
    squares = math.fsum(float(np.square(d - mean).sum()) for d in increments())
    return math.sqrt(squares / (log_wealth.size - 1))


def cmd_simulate(args) -> tuple[dict, int]:
    doc = _load_spec(args.spec)
    market = _parse_race(doc)
    beta = _parse_beta(args.beta)
    if args.n < 1:
        raise _CommandError(2, "-n must be >= 1")
    if not 0 <= args.seed < oracle._SEED_BOUND:
        raise _CommandError(2, "--seed must be an integer in [0, 2**128)")
    alloc = strategy.dispatch(market, beta)
    # open the output before simulating, so a bad path costs no simulation
    try:
        sink = (
            open(args.output, "w", encoding="utf-8", newline="\n")
            if args.output
            else contextlib.nullcontext(sys.stdout)
        )
    except OSError as exc:
        raise _CommandError(2, f"--output cannot be written: {exc}")
    with sink as fh:
        traj = oracle.simulate_growth(market, alloc, args.n, args.seed)
        _write_trajectory_csv(fh, traj.log_wealth)

    rate = traj.final_rate
    # Wealth is finite unless some race ruined it, and then the increments
    # are not all finite, so there is no band to report.
    if math.isfinite(rate) and args.n > 1:
        band = 3.0 * _increment_std(traj.log_wealth) / math.sqrt(args.n)
    else:
        band = None
    theoretical = utility.doubling_rate(market, alloc)
    out = {
        "input": doc,
        "beta": _beta_label(beta),
        "n_races": args.n,
        "seed": args.seed,
        "allocation": {"type": "full", "bets": _floats(alloc.bets)},
        "final_log2_wealth": float(traj.log_wealth[-1]),
        "empirical_rate_bits": rate,
        "clt_band_3se_bits": band,
        "theoretical_doubling_rate_bits": theoretical,
        "within_band": None if band is None else bool(abs(rate - theoretical) <= band),
    }
    return out, 0


# ---------------------------------------------------------------- divergence


def _parse_matrix_text(text: str, field: str) -> list[list[float]]:
    rows = [r for r in text.strip().split(";") if r.strip()]
    if not rows:
        raise _CommandError(2, f"{field} is empty")
    try:
        return [[float(v) for v in row.split(",")] for row in rows]
    except ValueError:
        raise _CommandError(2, f"{field} must be comma-separated numbers (rows split by ';')")


def _load_dist_arg(text: str, field: str) -> list[list[float]]:
    """A distribution argument: inline text, or a path to a JSON list."""
    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CommandError(2, f"{field}: cannot load {text!r}: {exc}")
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError):
            raise _CommandError(2, f"{field}: JSON file must hold a vector or a table of numbers")
        if arr.ndim == 1:
            return [list(map(float, arr))]
        if arr.ndim == 2:
            return _table(arr)
        raise _CommandError(2, f"{field}: JSON file must hold a vector or a table")
    return _parse_matrix_text(text, field)


def cmd_divergence(args) -> tuple[dict, int]:
    p = _load_dist_arg(args.p, "-p")
    q = _load_dist_arg(args.q, "-q")
    conditional = args.p_y is not None
    try:
        if conditional:
            p_y = _load_dist_arg(args.p_y, "--p-y")
            if len(p_y) != 1:
                raise _CommandError(2, "--p-y must be a single probability vector")
            value = divergence.cond_renyi_div(p, q, p_y[0], args.alpha)
        else:
            if len(p) != 1 or len(q) != 1:
                raise _CommandError(2, "-p and -q must be single vectors unless --p-y is given")
            value = divergence.renyi_div(p[0], q[0], args.alpha)
    except PowerbetError as exc:
        raise _CommandError(2, str(exc))
    out = {
        "alpha": args.alpha,
        "conditional": conditional,
        "divergence_bits": value,
    }
    return out, 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerbet",
        description="Optimal race betting under power-mean utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="track constant, bookie distribution, fairness")
    p_analyze.add_argument("spec", help="path to a JSON race spec")
    p_analyze.set_defaults(func=cmd_analyze)

    p_opt = sub.add_parser("optimize", help="optimal allocation, utility, decomposition")
    p_opt.add_argument("spec", help="path to a JSON race spec")
    p_opt.add_argument("--beta", help="kelly, +inf, -inf, or a decimal risk parameter")
    p_opt.add_argument("--mode", choices=["full", "partial", "side-info"])
    p_opt.add_argument("--check", action="store_true", help="cross-check against the oracles")
    p_opt.add_argument("--grid-resolution", type=int, metavar="K")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="seeded wealth trajectory for a strategy")
    p_sim.add_argument("spec", help="path to a JSON race spec")
    p_sim.add_argument("--beta", default="kelly")
    p_sim.add_argument("-n", type=int, default=10000, help="number of races")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", help="write the trajectory CSV here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_div = sub.add_parser("divergence", help="Renyi / KL divergence in bits")
    p_div.add_argument("--alpha", type=float, required=True)
    p_div.add_argument("-p", required=True, help="inline numbers or a JSON file")
    p_div.add_argument("-q", required=True, help="inline numbers or a JSON file")
    p_div.add_argument("--p-y", dest="p_y", help="signal distribution; makes -p/-q conditional tables")
    p_div.set_defaults(func=cmd_divergence)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join ``--beta -0.5`` style pairs so dash-leading values parse."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--beta":
            value = next(tokens, None)
            out.append(token if value is None else f"--beta={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_normalize_argv(list(argv)))
    try:
        doc, code = args.func(args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PowerbetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
