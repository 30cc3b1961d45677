"""Command-line interface over file-based race specifications.

Commands: ``analyze`` (odds-derived quantities), ``optimize`` (allocations,
utility, decomposition, optional certificate), ``simulate`` (seeded wealth
trajectories), ``divergence`` (plain and conditional divergences).

``optimize --check`` prints the one verdict of ``oracle._certify``: at finite ``beta < 1``,
in every mode, the printed doubles are the fractions, correctly rounded or within 2^-1074, of
a point whose Frank-Wolfe gap (nats of ``ln M_beta`` below the optimum) is at most the printed
bound; at ``beta >= 1`` and ``+-inf`` the printed value meets an exact bound on the optimal value.

Race spec files are JSON documents::

    {
      "horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}],
      "side_info": {"signals": ["a", "b"], "joint": [[0.3, 0.1], [0.3, 0.3]]},
      "beta": 0.5,
      "mode": "full"
    }

``side_info.joint`` rows are signals, columns are horses.  ``beta`` and
``mode`` are optional defaults that flags override.

Exit codes: 0 success, 1 standard output closed early (a broken pipe),
2 invalid input, 3 incompatible mode, 4 oracle disagreement beyond
tolerance.  All numeric output uses the shortest round-tripping decimal
form, so re-reading a document reproduces every float exactly.
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
from .errors import BetaOutOfRangeError, GridTooLargeError, PowerbetError, UnsupportedOrderError
from .market import RaceMarket, SideInfoMarket, bookie_distribution, classify_fairness
from .market import new_race, new_side_info

_CHECK_FIELDS = dict(  # JSON names of a --check verdict's gap, tolerance and bound; None: unprinted
    limit_bound=("gap", None, None),
    vertex_bound=("gap_bits", None, "vertex_value_bits"),
    certificate=("gap_nats", "tolerance_nats", None),
)


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _naming(field: str, error=PowerbetError):
    """Report a library ``error`` raised inside as invalid input named ``field``."""
    try:
        yield
    except error as exc:
        raise _CommandError(2, f"{field}: {exc}")


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _table(values) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(values)]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _read_json(path: str, unreadable: str, invalid: str):
    """The JSON document at ``path``, else invalid input: ``unreadable: <reason>`` when the
    file cannot be read, ``invalid: <reason>`` when it does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CommandError(2, f"{unreadable}: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-string limit
        raise _CommandError(2, f"{invalid}: {exc}")


def _load_spec(path: str) -> dict:
    doc = _read_json(path, "cannot read spec file", "spec file is not valid JSON")
    if not isinstance(doc, dict):
        raise _CommandError(2, "spec file must contain a JSON object")
    return doc


def _require_number(value, field: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _CommandError(2, f"{field} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise _CommandError(2, f"{field} is too large for a float")
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
    with _naming("horses"):
        return new_race(probs, odds)


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
    with _naming("side_info"):
        market = new_side_info(joint, odds)
    if np.max(np.abs(market.horse_probs - np.asarray(probs))) > 1e-6:
        raise _CommandError(2, "side_info.joint column sums disagree with horses[].p")
    return market


def _decimal(text: str, kind=float) -> float:
    """``kind`` of a decimal, nan or inf; refuses digit underscores (``1_0``) and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal: {text!r}")
    return kind(text)


def _integer(text: str) -> int:
    """An integer flag's value, :func:`_decimal` with ``int``: an optional sign and ASCII digits."""
    with contextlib.suppress(ValueError):
        return _decimal(text, int)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # as argparse words int's


def _parse_beta(value, field: str) -> float:
    """``value`` (flag text or a spec's JSON value) as a beta; errors name ``field``.
    Only the labels ``+inf``, ``inf`` and ``-inf`` name the limits."""
    label = str(value).strip().lower()
    if label == "kelly":
        return 0.0
    if isinstance(value, str) and label in ("+inf", "inf", "-inf"):
        return float(label)
    try:
        beta = _decimal(label)
    except ValueError:
        raise _CommandError(2, f"{field} must be kelly, +inf, -inf, or a decimal, got {value!r}")
    if not math.isfinite(beta):  # NaN, or a number beyond the float range
        raise _CommandError(2, f"{field} must be finite, or kelly, +inf or -inf; got {value!r}")
    return beta


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
        "track_constant": fairness.c,
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


def _check(market, mode: str, beta: float, value: float, alloc, args) -> tuple[dict, int]:
    """``--check`` of an optimum of ``value`` bits and allocation ``alloc``: the verdict of
    ``oracle._certify``, its fields named by kind.  Beside it a grid runs in full mode at finite
    ``beta != 0`` and in partial mode, ``--grid-resolution`` or else 200 if that fits,
    and fails the check only if it finds a higher value."""
    kind, gap, tol, bound = oracle._certify(market, beta, alloc)
    doc = {"kind": kind, "passed": gap <= tol}
    doc.update((name, v) for name, v in zip(_CHECK_FIELDS[kind], (gap, tol, bound)) if name)

    k, dimension = args.grid_resolution, market.odds.size + (mode == "partial")  # cash first
    if k is None and oracle.GridSpec(200, dimension).n_points <= oracle.MAX_GRID_POINTS:
        k = 200
    if k is not None and (mode == "partial" or (mode == "full" and math.isfinite(beta) and beta)):
        with _naming("--grid-resolution", GridTooLargeError):  # below 2, or past the guard
            grid = oracle.GridSpec(k, dimension)
            search = oracle.grid_search_partial if mode == "partial" else oracle.grid_search_full
            found, grid_value = search(market, beta, grid)
        if mode == "full":  # informational: an optimum's bets below 1/k have no grid point near
            doc["max_allocation_distance"] = float(np.max(np.abs(found.bets - alloc.bets)))
        doc.update(grid_resolution=k, grid_points=grid.n_points, grid_value_bits=grid_value)
        doc.update(analytic_value_bits=value, grid_minus_analytic=grid_value - value)
        doc["passed"] = doc["passed"] and grid_value - value <= oracle._VALUE_TOL
    return doc, 0 if doc["passed"] else 4


def _optimize_full(market: RaceMarket | SideInfoMarket, beta: float, out: dict):
    if isinstance(market, SideInfoMarket):
        alloc, signal_weights = strategy.optimal_side_info(market, beta)
        table, weights = _table(alloc.table), _floats(signal_weights)
        out["allocation"] = {"type": "side_info", "table": table, "signal_weights": weights}
    else:
        alloc = strategy.dispatch(market, beta)
        out["allocation"] = {"type": "full", "bets": _floats(alloc.bets)}
    return alloc


def _optimize_partial(market: RaceMarket, beta: float, out: dict):
    sol = strategy.optimal_partial(market, beta)
    out["allocation"] = {
        "type": "partial",
        "cash": sol.allocation.cash,
        "bets": _floats(sol.allocation.bets),
        "support": list(sol.support),
        "gamma_cap": sol.gamma_cap,
        "gammas": None if sol.gammas is None else _floats(sol.gammas),
    }
    return sol.allocation


def cmd_optimize(args) -> tuple[dict, int]:
    doc = _load_spec(args.spec)
    mode = args.mode or doc.get("mode", "full")
    if mode not in ("full", "partial", "side-info"):
        raise _CommandError(2, f"mode must be full, partial, or side-info, got {mode!r}")
    if args.beta is None and "beta" not in doc:
        raise _CommandError(2, "no beta given: pass --beta or put a beta field in the spec file")
    field = "beta" if args.beta is None else "--beta"
    beta = _parse_beta(doc["beta"] if args.beta is None else args.beta, field)

    out: dict = {
        "input": doc,
        "mode": mode,
        "beta": _beta_label(beta),
        "oracle_check": None,
    }
    market = _parse_side_info(doc) if mode == "side-info" else _parse_race(doc)
    out.update(_market_summary(market))
    if mode != "full" and (math.isinf(beta) or beta >= 1.0):
        raise _CommandError(3, f"{mode} mode needs a finite beta < 1")
    optimize = _optimize_partial if mode == "partial" else _optimize_full
    with _naming(field, BetaOutOfRangeError):  # |beta| past the cap
        alloc = optimize(market, beta, out)
    report = utility.decompose_full(market, alloc, beta) if -math.inf < beta < 1.0 else None
    out["decomposition"] = None if report is None else asdict(report)
    out["utility_bits"] = report.direct if report else utility.utility_full(market, alloc, beta)
    if not args.check:
        return out, 0
    out["oracle_check"], code = _check(market, mode, beta, out["utility_bits"], alloc, args)
    if report and report.residual > oracle._VALUE_TOL:
        out["oracle_check"]["passed"], code = False, 4  # the printed identity does not hold
    return out, code


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> tuple[dict, int]:
    doc = _load_spec(args.spec)
    market = _parse_race(doc)
    beta = _parse_beta(args.beta, "--beta")
    if not 1 <= args.n < oracle._COUNT_BOUND:
        raise _CommandError(2, "-n must be an integer in [1, 2**63)")
    if not 0 <= args.seed < oracle._SEED_BOUND:
        raise _CommandError(2, "--seed must be an integer in [0, 2**128)")
    with _naming("--beta", BetaOutOfRangeError):  # |beta| past the cap
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
        # 2^14 rows a write, so neither the trajectory nor its text is ever held in memory;
        # the summary reports the last row written, the serial sum, not the library's fsum
        fh.write("race,cum_log2_wealth\n")
        seen, rows = 0, 1 << 14
        for part in (b[lo : lo + rows] for b in traj.chunks() for lo in range(0, b.size, rows)):
            fh.write("".join(f"{i},{value!r}\n" for i, value in enumerate(part.tolist(), seen + 1)))
            seen, final = seen + part.size, float(part[-1])

    rate = final / args.n
    # Each race adds its outcome's log2 payoff, so the increments' moments come from
    # the outcome counts; a ruined wealth has no band.  A band below the worst-case
    # rounding of the serial rate it judges, n eps max |step|, is reported but not judged.
    band, judged = None, False
    if math.isfinite(rate) and args.n > 1:
        drawn = traj.counts > 0
        counts, steps = traj.counts[drawn], traj._increments[drawn]
        mean = float(np.sum(counts * steps)) / args.n
        squares = float(np.sum(counts * np.square(steps - mean)))
        band = 3.0 * math.sqrt(squares / (args.n - 1)) / math.sqrt(args.n)
        judged = band >= args.n * sys.float_info.epsilon * float(np.max(np.abs(steps)))
    theoretical = utility.utility_full(market, alloc, 0.0)
    out = {
        "input": doc,
        "beta": _beta_label(beta),
        "n_races": args.n,
        "seed": args.seed,
        "allocation": {"type": "full", "bets": _floats(alloc.bets)},
        "final_log2_wealth": final,
        "empirical_rate_bits": rate,
        "clt_band_3se_bits": band,
        "theoretical_doubling_rate_bits": theoretical,
        "within_band": bool(abs(rate - theoretical) <= band) if judged else None,
    }
    return out, 0


# ---------------------------------------------------------------- divergence


def _parse_matrix_text(text: str, field: str) -> list[list[float]]:
    rows = [r for r in text.strip().split(";") if r.strip()]
    if not rows:
        raise _CommandError(2, f"{field} is empty")
    try:
        return [[_decimal(v) for v in row.split(",")] for row in rows]
    except ValueError:
        raise _CommandError(2, f"{field} must be comma-separated numbers (rows split by ';')")


def _load_dist_arg(text: str, field: str) -> list[list[float]]:
    """A distribution argument: inline text, or a path to a JSON list."""
    if os.path.isfile(text):
        data = _read_json(
            text, f"{field}: cannot load {text!r}", f"{field}: {text!r} is not valid JSON"
        )
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise _CommandError(2, f"{field}: JSON file must hold a vector or a table of numbers")
        if arr.ndim == 1:
            return [list(map(float, arr))]
        if arr.ndim == 2:
            return _table(arr)
        raise _CommandError(2, f"{field}: JSON file must hold a vector or a table")
    return _parse_matrix_text(text, field)


def cmd_divergence(args) -> tuple[dict, int]:
    with _naming("--alpha", ValueError):
        alpha = _decimal(args.alpha)
    p = _load_dist_arg(args.p, "-p")
    q = _load_dist_arg(args.q, "-q")
    conditional = args.p_y is not None
    flags = "-p, -q, --p-y" if conditional else "-p, -q"  # the library's p(_cond), q(_cond), p_y
    with _naming(flags), _naming("--alpha", UnsupportedOrderError):
        if conditional:
            p_y = _load_dist_arg(args.p_y, "--p-y")
            if len(p_y) != 1:
                raise _CommandError(2, "--p-y must be a single probability vector")
            value = divergence.cond_renyi_div(p, q, p_y[0], alpha)
        else:
            if len(p) != 1 or len(q) != 1:
                raise _CommandError(2, "-p and -q must be single vectors unless --p-y is given")
            value = divergence.renyi_div(p[0], q[0], alpha)
    out = {
        "alpha": alpha,
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
    p_opt.add_argument("--grid-resolution", type=_integer, metavar="K")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="seeded wealth trajectory for a strategy")
    p_sim.add_argument("spec", help="path to a JSON race spec")
    p_sim.add_argument("--beta", default="kelly")
    p_sim.add_argument("-n", type=_integer, default=10000, help="number of races")
    p_sim.add_argument("--seed", type=_integer, default=0)
    p_sim.add_argument("--output", help="write the trajectory CSV here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_div = sub.add_parser("divergence", help="Renyi / KL divergence in bits")
    p_div.add_argument("--alpha", required=True, help="a decimal order in [0, inf]")
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
        _emit(doc)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PowerbetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (e.g. `| head`); point stdout at devnull so that
        # the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
