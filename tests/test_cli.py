import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import reference_log_wealth, reference_winners
from powerbet import (
    Allocation,
    ConditionalAllocation,
    NotEvaluableError,
    PartialAllocation,
    cli,
    new_race,
    optimal_full,
    simulate_growth,
    strategy,
    utility_partial,
)
from powerbet.cli import main


@pytest.fixture
def fair_spec(tmp_path):
    path = tmp_path / "fair.json"
    path.write_text(json.dumps({"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}]}))
    return str(path)


@pytest.fixture
def subfair_spec(tmp_path):
    path = tmp_path / "subfair.json"
    path.write_text(json.dumps({"horses": [{"p": 0.9, "odds": 1.5}, {"p": 0.1, "odds": 1.5}]}))
    return str(path)


@pytest.fixture
def side_spec(tmp_path):
    doc = {
        "horses": [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 3.0}],
        "side_info": {"signals": ["a", "b"], "joint": [[0.5, 0.0], [0.0, 0.5]]},
    }
    path = tmp_path / "side.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("command", ["analyze", "optimize", "simulate", "divergence"])
def test_integer_past_the_int_string_limit_is_invalid_input(capsys, tmp_path, command):
    # json.load raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more than 4,300 digits
    digits = "1" * 5000
    path = tmp_path / "huge.json"
    if command == "divergence":
        path.write_text(f"[0.5, {digits}]")
        argv = ["divergence", "--alpha", "2", "-p", str(path), "-q", "0.5,0.5"]
    else:
        horses = '[{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 2.0}]'
        path.write_text(f'{{"horses": {horses}, "beta": {digits}}}')
        argv = [command, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "is not valid JSON" in captured.err


def test_missing_spec_file_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read spec file: [Errno 2] No such file or directory: {str(path)!r}\n"
    )


def test_library_error_outside_a_named_field_exits_2(capsys, monkeypatch, fair_spec):
    # main's last-resort handler: a library error no command wraps is still invalid input
    def failing(market):
        raise NotEvaluableError("no fairness here")

    monkeypatch.setattr(cli, "classify_fairness", failing)
    code = main(["analyze", fair_spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no fairness here\n"


class TestAnalyze:
    def test_fair_market(self, capsys, fair_spec):
        code, out = run(capsys, "analyze", fair_spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["track_constant"] == 1.0
        assert doc["fairness"] == "fair"
        assert doc["bookie_distribution"] == [0.5, 0.5]

    def test_subfair_market(self, capsys, subfair_spec):
        code, out = run(capsys, "analyze", subfair_spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["track_constant"] == pytest.approx(0.75, abs=1e-15)
        assert doc["fairness"] == "subfair"

    def test_malformed_probability_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horses": [{"p": "x", "odds": 2.0}, {"p": 0.4, "odds": 2.0}]}))
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "horses[0].p" in err

    def test_odds_whose_reciprocals_overflow_are_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"horses": [{"p": 0.5, "odds": 1e-320}, {"p": 0.5, "odds": 2}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "odds" in captured.err
        assert "NaN" not in captured.out

    @pytest.mark.parametrize("field", ["p", "odds"])
    def test_integer_too_large_for_a_float_is_invalid_input(self, capsys, tmp_path, field):
        horses = [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 2.0}]
        horses[1][field] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"horses": horses}))
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"horses[1].{field}" in captured.err


class TestOptimize:
    def test_interior_allocation(self, capsys, fair_spec):
        code, out = run(capsys, "optimize", fair_spec, "--beta", "0.5")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["allocation"]["bets"], [9 / 13, 4 / 13], atol=1e-14)
        assert doc["decomposition"]["residual"] < 1e-9

    def test_kelly_allocation(self, capsys, fair_spec):
        code, out = run(capsys, "optimize", fair_spec, "--beta", "kelly")
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bets"] == [0.6, 0.4]
        assert doc["utility_bits"] == pytest.approx(0.029049, abs=1e-6)

    def test_limit_allocations(self, capsys, fair_spec):
        code, out = run(capsys, "optimize", fair_spec, "--beta", "-inf", "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["utility_bits"] == pytest.approx(0.0, abs=1e-12)
        assert doc["oracle_check"]["passed"] is True

    def test_partial_with_oracle_check(self, capsys, subfair_spec):
        code, out = run(
            capsys, "optimize", subfair_spec, "--beta", "0.5", "--mode", "partial", "--check"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["cash"] == pytest.approx(6 / 83, abs=1e-12)
        check = doc["oracle_check"]
        assert check["kind"] == "certificate"
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"] == 1e-10

    def test_full_with_grid_check(self, capsys, fair_spec):
        code, out = run(
            capsys, "optimize", fair_spec, "--beta", "0.5", "--check", "--grid-resolution", "400"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_check"]["passed"] is True
        assert doc["oracle_check"]["grid_minus_analytic"] <= 1e-9

    def test_side_info_mode(self, capsys, side_spec):
        code, out = run(capsys, "optimize", side_spec, "--beta", "0.5", "--mode", "side-info")
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["table"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["decomposition"]["gambler_term"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec,argv",
        [
            ("side_spec", ["--mode", "side-info", "--beta", "1e-8"]),
            ("side_spec", ["--mode", "side-info", "--beta", "-1e-12"]),
            ("fair_spec", ["--beta", "1e-9"]),
            ("subfair_spec", ["--beta", "-1e-12"]),
            ("side_spec", ["--mode", "side-info", "--beta", "kelly"]),
            # 1/(1 - beta) rounds to 1 at these, so the check takes order 1
            ("side_spec", ["--mode", "side-info", "--beta", "5e-17"]),
            ("side_spec", ["--mode", "side-info", "--beta", "-5e-17"]),
            ("side_spec", ["--mode", "side-info", "--beta", "1e-300"]),
            ("subfair_spec", ["--beta", "1e-320"]),
        ],
    )
    def test_check_next_to_kelly(self, capsys, request, spec, argv):
        # the decomposition identity holds at |beta| far below the 1e-9 bound
        code, out = run(capsys, "optimize", request.getfixturevalue(spec), *argv, "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_check"]["passed"] is True
        assert doc["decomposition"]["residual"] < 1e-9

    def test_superfair_partial_support_lists_positive_bets(self, capsys, tmp_path):
        doc = {"horses": [{"p": 0.999, "odds": 1.5}, {"p": 0.001, "odds": 3.0}], "beta": 0.999}
        path = tmp_path / "superfair.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "optimize", str(path), "--mode", "partial")
        assert code == 0
        assert json.loads(out)["allocation"]["bets"] == [1.0, 0.0]
        assert json.loads(out)["allocation"]["support"] == [0]

    @pytest.mark.parametrize("value", ["", 0, [], False, None, 5, "Full"])
    def test_spec_mode_that_is_no_mode_is_invalid_input(self, capsys, tmp_path, value):
        # only an absent mode defaults to full; a falsy one used to run full mode
        doc = {"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}], "beta": 0.5}
        path = tmp_path / "mode.json"
        path.write_text(json.dumps({**doc, "mode": value}))
        assert main(["optimize", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: mode must be full, partial, or side-info")

    def test_side_info_without_block_is_incompatible(self, capsys, fair_spec):
        code = main(["optimize", fair_spec, "--beta", "0.5", "--mode", "side-info"])
        capsys.readouterr()
        assert code == 3

    def test_partial_with_kelly_keeps_kellys_cash(self, capsys, subfair_spec):
        # p*o = 1.35 beats the threshold 0.3 for horse 0 alone: bet p/0.3 - 1/o
        # of the cash on it, i.e. 0.7 with 0.3 in cash (Kelly 1956)
        code, out = run(capsys, "optimize", subfair_spec, "--beta", "kelly", "--mode", "partial")
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] == "kelly"
        assert doc["allocation"]["cash"] == pytest.approx(0.3, rel=1e-15, abs=0.0)
        assert doc["allocation"]["bets"] == pytest.approx([0.7, 0.0], rel=1e-15, abs=1e-16)
        assert doc["allocation"]["support"] == [0]
        argv = ["optimize", subfair_spec, "--beta", "kelly", "--mode", "partial", "--check"]
        code, out = run(capsys, *argv)
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["passed"] is True
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"] == 1e-10

    def test_kelly_check_tolerates_renormalization_ulps(self, capsys, tmp_path):
        # these probabilities renormalize to a vector summing to 1 - 1 ulp,
        # which the Kelly bets must equal bit for bit all the same
        doc = {
            "horses": [
                {"p": 0.630855, "odds": 6},
                {"p": 0.364814, "odds": 6},
                {"p": 0.004331, "odds": 6},
            ]
        }
        path = tmp_path / "ulp.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "optimize", str(path), "--beta", "kelly", "--check")
        assert code == 0
        assert json.loads(out)["oracle_check"]["passed"] is True

    def test_non_list_signals_names_the_field(self, capsys, tmp_path):
        doc = {
            "horses": [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 3.0}],
            "side_info": {"signals": 5, "joint": [[0.5, 0.0], [0.0, 0.5]]},
        }
        path = tmp_path / "signals.json"
        path.write_text(json.dumps(doc))
        code = main(["optimize", str(path), "--beta", "0.5", "--mode", "side-info"])
        err = capsys.readouterr().err
        assert code == 2
        assert "side_info.signals" in err

    def test_spec_file_defaults(self, capsys, tmp_path):
        doc = {"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}], "beta": 0.5}
        path = tmp_path / "withbeta.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "optimize", str(path))
        assert code == 0
        assert json.loads(out)["beta"] == "0.5"

    def test_beta_zero_is_kelly(self, capsys, fair_spec, tmp_path):
        _, kelly_out = run(capsys, "optimize", fair_spec, "--beta", "kelly")
        code, out = run(capsys, "optimize", fair_spec, "--beta", "0")
        assert code == 0
        assert out == kelly_out
        doc = {"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}], "beta": 0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "optimize", str(path))
        assert code == 0
        assert json.loads(out)["beta"] == "kelly"
        assert json.loads(out)["allocation"] == json.loads(kelly_out)["allocation"]

    @pytest.mark.parametrize("value", [True, None, [0.5], "x"])
    def test_bad_spec_beta_names_the_spec_field(self, capsys, fair_spec, tmp_path, value):
        doc = {"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}], "beta": value}
        path = tmp_path / "badbeta.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: beta must be kelly")
        assert main(["optimize", fair_spec, "--beta", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: --beta must be kelly")

    @pytest.mark.parametrize("mode", ["full", "partial", "side-info"])
    def test_beta_past_the_cap_names_its_source(self, capsys, side_spec, tmp_path, mode):
        assert main(["optimize", side_spec, "--beta", "-1e7", "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith("error: --beta: beta must be +-inf or have")
        doc = json.loads(open(side_spec).read())
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(dict(doc, beta=-1e7, mode=mode)))
        assert main(["optimize", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: beta: beta must be +-inf or have")

    @pytest.mark.parametrize("text", ["1e400", "-1e400"])
    def test_beta_beyond_the_float_range_is_invalid_input(self, capsys, fair_spec, tmp_path, text):
        # float("1e400") and json's 1e400 are both inf: only the labels name the limits
        for cmd in ("optimize", "simulate"):
            assert main([cmd, fair_spec, "--beta", text]) == 2
            assert capsys.readouterr().err.startswith("error: --beta must be finite")
        horses = '[{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}]'
        for number in (text, text.replace("1e400", "Infinity")):
            path = tmp_path / "huge.json"
            path.write_text(f'{{"horses": {horses}, "beta": {number}}}')
            assert main(["optimize", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: beta must be finite")
        label = text.replace("1e400", "inf")
        path.write_text(f'{{"horses": {horses}, "beta": "{label}"}}')
        code, out = run(capsys, "optimize", str(path))
        assert code == 0
        assert json.loads(out)["beta"] == ("-inf" if text[0] == "-" else "+inf")

    def test_joint_cell_too_large_for_a_float_is_invalid_input(self, capsys, tmp_path):
        doc = {
            "horses": [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 3.0}],
            "side_info": {"joint": [[0.5, 0.0], [10**400, 0.5]]},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(["optimize", str(path), "--beta", "0.5", "--mode", "side-info"])
        captured = capsys.readouterr()
        assert code == 2
        assert "side_info.joint[1][0]" in captured.err

    @pytest.mark.parametrize("mode", ["full", "partial", "side-info"])
    def test_tied_top_horses_close_to_one(self, capsys, tmp_path, mode):
        doc = {
            "horses": [{"p": 0.5, "odds": 3}, {"p": 0.5, "odds": 3}],
            "side_info": {"joint": [[0.25, 0.25], [0.25, 0.25]]},
        }
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "optimize", str(path), "--beta", "0.99999999", "--mode", mode)
        assert code == 0
        alloc = json.loads(out)["allocation"]
        rows = alloc["table"] if mode == "side-info" else [alloc["bets"]]
        assert rows == [[0.5, 0.5]] * len(rows)

    def test_default_check_grid_fits_the_guard(self, capsys, tmp_path):
        # a resolution of 200 would enumerate 70,058,751 points at 5 horses:
        # no default grid runs, and the certificate alone decides
        horses = [{"p": p, "odds": o} for p, o in zip([0.3, 0.25, 0.2, 0.15, 0.1], [3, 4, 5, 6, 9])]
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"horses": horses}))
        code, out = run(capsys, "optimize", str(path), "--beta", "0.5", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert "grid_resolution" not in check
        assert check["kind"] == "certificate"
        assert check["gap_nats"] <= check["tolerance_nats"]
        assert check["passed"] is True
        argv = ["optimize", str(path), "--beta", "0.5", "--check", "--grid-resolution", "121"]
        code, out = run(capsys, *argv)
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["grid_resolution"] == 121
        assert check["grid_minus_analytic"] <= 1e-9
        assert check["passed"] is True

    @pytest.mark.parametrize("mode,k,points", [("full", 200, 201), ("partial", 200, 20301)])
    def test_check_reports_the_grid_size(self, capsys, subfair_spec, mode, k, points):
        # two horses: a full grid has k + 1 points, a partial one (cash, two bets)
        # C(k + 2, 2); the key is printed only where a grid ran
        code, out = run(capsys, "optimize", subfair_spec, "--beta", "0.5", "--mode", mode)
        assert code == 0
        assert "grid_points" not in out and json.loads(out)["oracle_check"] is None
        argv = ["optimize", subfair_spec, "--beta", "0.5", "--mode", mode, "--check"]
        code, out = run(capsys, *argv)
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["grid_resolution"] == k
        assert check["grid_points"] == points == math.comb(k + 1 + (mode == "partial"), k)
        argv = ["optimize", subfair_spec, "--beta", "-inf", "--check"]
        code, out = run(capsys, *argv)
        assert "grid_points" not in json.loads(out)["oracle_check"]  # no grid at the limits

    def test_partial_cash_rounds_to_zero_close_to_one(self, capsys, subfair_spec):
        argv = ["optimize", subfair_spec, "--beta", "0.999", "--mode", "partial"]
        code, out = run(capsys, *argv)
        assert code == 0
        alloc = json.loads(out)["allocation"]
        assert alloc["cash"] == 0.0
        assert alloc["bets"] == [1.0, 0.0]
        # the certificate reads the optimizer's log of the cash that rounds to 0.0
        code, out = run(capsys, *argv, "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["grid_minus_analytic"] <= 1e-9
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"] == 1e-10
        assert check["passed"] is True


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# A subfair 3-horse race backing horses 0 and 1 at beta = 0.5 (p*o = 1.25, 0.96,
# 0.6 against the threshold 0.696), and a side-info market on the same odds.
MUTANT_SPEC = {
    "horses": [{"p": 0.5, "odds": 2.5}, {"p": 0.3, "odds": 3.2}, {"p": 0.2, "odds": 3.0}],
    "side_info": {"joint": [[0.3, 0.1, 0.1], [0.2, 0.2, 0.1]]},
}


def _rescaled(wrong, rows):
    """``wrong`` scaled row by row to the totals of ``rows``."""
    return wrong * rows.sum(axis=1, keepdims=True) / wrong.sum(axis=1, keepdims=True)


# Each mutant maps the optimum's rows of bets, and the rows' p*o, to wrong bets
# of the same row totals.
MUTANTS = {
    "swapped": lambda rows, scores, beta: rows[:, [1, 0, 2]],
    # the exponent 1/(1 - beta) on the odds too, instead of beta/(1 - beta)
    "wrong_exponent": lambda rows, scores, beta: _rescaled(scores ** (1.0 / (1.0 - beta)), rows),
    "dropped": lambda rows, scores, beta: _rescaled(rows * [1.0, 0.0, 1.0], rows),
}


class TestCheck:
    """``optimize --check``: the certificate at finite beta < 1, the vertex bound
    at beta >= 1, the payoff bound at +-inf, and the grid beside them."""

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    @pytest.mark.parametrize("mode", ["full", "partial", "side-info"])
    def test_mutant_optimum_exits_4(self, capsys, monkeypatch, tmp_path, mode, mutant):
        mutate = MUTANTS[mutant]
        if mode == "full":
            real_full = strategy.optimal_full

            def fake(mk, beta):
                rows = real_full(mk, beta).bets[None]
                return Allocation(mutate(rows, (mk.probs * mk.odds)[None], beta)[0])

            monkeypatch.setattr(strategy, "optimal_full", fake)
        elif mode == "partial":
            real_partial = strategy.optimal_partial

            def fake(mk, beta):
                sol = real_partial(mk, beta)
                rows = sol.allocation.bets[None]
                alloc = PartialAllocation(
                    sol.allocation.cash, mutate(rows, (mk.probs * mk.odds)[None], beta)[0]
                )
                utility = utility_partial(mk, alloc, beta)
                return dataclasses.replace(sol, allocation=alloc, utility=utility)

            monkeypatch.setattr(strategy, "optimal_partial", fake)
        else:
            real_side = strategy.optimal_side_info

            def fake(mk, beta):
                table, weights = real_side(mk, beta)
                rows = mutate(table.table, mk.conditional() * mk.odds, beta)
                return ConditionalAllocation(rows), weights

            monkeypatch.setattr(strategy, "optimal_side_info", fake)
        spec = _write(tmp_path, "mutant.json", MUTANT_SPEC)
        # a coarse grid keeps the run short; the certificate's own verdict is asserted
        argv = ["optimize", spec, "--beta", "0.5", "--mode", mode, "--check"]
        argv += ["--grid-resolution", "20"]
        code, out = run(capsys, *argv)
        assert code == 4
        check = json.loads(out)["oracle_check"]
        assert check["kind"] == "certificate"
        assert check["gap_nats"] > 1e3 * check["tolerance_nats"]
        # a mutant carries no log record, so its printed doubles are read: a dropped
        # bet pays 0 (an infinite gap) unless the partial optimum's cash still pays
        assert (check["gap_nats"] == math.inf) == (mutant == "dropped" and mode != "partial")
        assert check["passed"] is False

    @pytest.mark.parametrize("mode", ["full", "partial", "side-info"])
    def test_unmutated_optimum_passes(self, capsys, tmp_path, mode):
        spec = _write(tmp_path, "mutant.json", MUTANT_SPEC)
        argv = ["optimize", spec, "--beta", "0.5", "--mode", mode, "--check"]
        argv += ["--grid-resolution", "20"]
        code, out = run(capsys, *argv)
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"] == 1e-10

    def test_huge_odds_partial_race(self, capsys, tmp_path):
        # odds c/r up to 2.4e75: the payoffs' marginal values are about 1e37,
        # and the certificate's ratios of them stay exact
        horses = [(0.221, 3.7e25), (0.321, 2.4e75), (0.178, 0.9), (0.28, 6.7e70)]
        spec = _write(tmp_path, "huge.json", {"horses": [{"p": p, "odds": o} for p, o in horses]})
        code, out = run(capsys, "optimize", spec, "--beta", "0.5", "--mode", "partial", "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["support"] == [0, 1, 3]
        check = doc["oracle_check"]
        assert "grid_resolution" not in check  # 5 grid coordinates: no default grid
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"]

    def test_subnormal_cash_is_read_from_the_normalized_logs(self, capsys, tmp_path):
        # three tied backed horses: the cash's log-weight is about -721 against 0 for
        # each bet, so the printed cash is a third of e^-721, a subnormal double
        horses = [{"p": 0.3, "odds": 4}] * 3 + [{"p": 0.1, "odds": 1.05}]
        spec = _write(tmp_path, "tied.json", {"horses": horses})
        argv = ["optimize", spec, "--beta", "0.99848", "--mode", "partial", "--check"]
        code, out = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["allocation"]["cash"] < np.finfo(float).tiny
        assert doc["allocation"]["support"] == [0, 1, 2]
        assert 0.0 <= doc["oracle_check"]["gap_nats"] <= doc["oracle_check"]["tolerance_nats"]

    def test_thirty_horses_need_no_grid(self, capsys, tmp_path):
        rng = np.random.default_rng(30)
        p = rng.dirichlet(np.ones(30))
        horses = [{"p": float(v), "odds": float(o)} for v, o in zip(p, rng.uniform(5.0, 60.0, 30))]
        spec = _write(tmp_path, "thirty.json", {"horses": horses})
        code, out = run(capsys, "optimize", spec, "--beta", "0.5", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert "grid_resolution" not in check
        assert check["kind"] == "certificate"
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"]

    @pytest.mark.parametrize("beta", ["-1e6", "kelly", "0.999"])
    def test_side_info_certificate(self, capsys, tmp_path, beta):
        spec = _write(tmp_path, "side.json", MUTANT_SPEC)
        code, out = run(capsys, "optimize", spec, "--beta", beta, "--mode", "side-info", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["tolerance_nats"] == 1e-10 * max(1.0, 1.0 - float(beta.replace("kelly", "0")))
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"]

    @pytest.mark.parametrize("mode", ["full", "partial", "side-info"])
    def test_beta_next_to_one_is_certified(self, capsys, tmp_path, mode):
        spec = _write(tmp_path, "race.json", MUTANT_SPEC)
        argv = ["optimize", spec, "--beta", "0.9999999999", "--mode", mode, "--check"]
        code, out = run(capsys, *argv)
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["kind"] == "certificate"
        assert 0.0 <= check["gap_nats"] <= check["tolerance_nats"]
        assert check["passed"] is True

    @pytest.mark.parametrize("k", ["1", "100000"])
    def test_grid_resolution_out_of_range_names_the_flag(self, capsys, tmp_path, k):
        # a resolution below 2, and one whose 3-horse grid is past the 10^7-point guard
        spec = _write(tmp_path, "race.json", MUTANT_SPEC)
        code = main(["optimize", spec, "--beta", "0.5", "--check", "--grid-resolution", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --grid-resolution: grid ")

    def test_kelly_gap_is_exactly_zero(self, capsys, fair_spec):
        code, out = run(capsys, "optimize", fair_spec, "--beta", "kelly", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        expected = {"kind": "certificate", "gap_nats": 0.0, "tolerance_nats": 1e-10, "passed": True}
        assert check == expected

    def test_vertex_bound_above_one(self, capsys, monkeypatch, tmp_path):
        spec = _write(tmp_path, "mutant.json", MUTANT_SPEC)
        code, out = run(capsys, "optimize", spec, "--beta", "2", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["kind"] == "vertex_bound"
        # p o^2 = 3.125, 3.072, 1.8: the first horse's vertex is the optimum
        assert check["vertex_value_bits"] == pytest.approx(0.5 * math.log2(3.125), abs=1e-15)
        assert abs(check["gap_bits"]) <= 1e-12
        assert check["grid_resolution"] == 200 and check["grid_minus_analytic"] <= 1e-9
        # the runner-up's vertex is 0.01 bits short
        monkeypatch.setattr(strategy, "optimal_degenerate", lambda mk, beta: Allocation([0, 1, 0]))
        code, out = run(capsys, "optimize", spec, "--beta", "2", "--check")
        assert code == 4
        assert json.loads(out)["oracle_check"]["gap_bits"] > 0.01


class TestSimulate:
    def test_byte_identical_reruns(self, capsys, fair_spec):
        _, first = run(capsys, "simulate", fair_spec, "--beta", "kelly", "-n", "1000", "--seed", "7")
        _, second = run(capsys, "simulate", fair_spec, "--beta", "kelly", "-n", "1000", "--seed", "7")
        assert first == second

    def test_bookie_mix_increments_are_constant(self, capsys, subfair_spec):
        code, out = run(capsys, "simulate", subfair_spec, "--beta", "-inf", "-n", "50", "--seed", "1")
        assert code == 0
        csv_part = [line for line in out.splitlines() if line and line[0].isdigit()]
        values = [float(line.split(",")[1]) for line in csv_part]
        increments = np.diff([0.0] + values)
        np.testing.assert_allclose(increments, math.log2(0.75), rtol=1e-12)

    def test_output_file(self, capsys, fair_spec, tmp_path):
        target = tmp_path / "traj.csv"
        code, out = run(
            capsys, "simulate", fair_spec, "-n", "10", "--seed", "2", "--output", str(target)
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "race,cum_log2_wealth"
        assert len(lines) == 11
        doc = json.loads(out)
        assert doc["n_races"] == 10
        assert doc["theoretical_doubling_rate_bits"] == pytest.approx(0.029049, abs=1e-6)


    def test_beta_past_the_cap_names_the_flag(self, capsys, fair_spec):
        code = main(["simulate", fair_spec, "--beta", "-1e7", "-n", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --beta: beta must be +-inf or have |beta| <= 1e+06")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_is_invalid_input(self, capsys, fair_spec, seed):
        code = main(["simulate", fair_spec, "-n", "10", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--seed" in captured.err

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_is_invalid_input(
        self, capsys, monkeypatch, fair_spec, tmp_path, where
    ):
        def must_not_run(*args):
            raise AssertionError("simulated before checking --output")

        monkeypatch.setattr(cli.oracle, "simulate_growth", must_not_run)
        target = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
        code = main(["simulate", fair_spec, "-n", "3", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--output" in captured.err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_streamed_csv_matches_the_joined_text(
        self, capsys, monkeypatch, fair_spec, tmp_path, to_file
    ):
        n = 30
        market = new_race([0.6, 0.4], [2, 2])
        traj = simulate_growth(market, optimal_full(market, 0.5), n, 3)
        lines = ["race,cum_log2_wealth"]
        lines.extend(f"{i + 1},{float(v)!r}" for i, v in enumerate(traj.log_wealth))
        expected = "\n".join(lines) + "\n"
        for rows in (1, 7, n - 1, n, n + 1):
            monkeypatch.setattr(cli.oracle, "_MC_CHUNK", rows)
            argv = ["simulate", fair_spec, "--beta", "0.5", "-n", str(n), "--seed", "3"]
            if to_file:
                target = tmp_path / f"traj{rows}.csv"
                code, out = run(capsys, *argv, "--output", str(target))
                assert target.read_bytes() == expected.encode()
                json.loads(out)
            else:
                code, out = run(capsys, *argv)
                assert out.startswith(expected)
                json.loads(out[len(expected):])
            assert code == 0

    # sha256 of stdout with --output, of the CSV, and of stdout without --output;
    # the CSVs are pinned from the code that held the whole trajectory in memory,
    # the summaries from the band taken from the outcome counts
    PINNED = {
        2**14 - 1: (
            "99b08702b4569ecccdc633dcb72b7c33b24f285d685fe437db26795655eaf2cd",
            "9335fa7607d675830cd752488e8decc9f061c760e91e7e89fe0424fe178ce653",
            "f196c11c7dbb413035ab92cfe4b1f727d57c05c518a640bc7793905548eb36b0",
        ),
        2**14: (
            "ae006aa42660b87f84a24e17009e9628545871636bcda976d13b8aa3fcf1d9c2",
            "b98c72366827d20258e4e0c034e985d54b3e27f735f7d30ee921adec2e0255c2",
            "c2ce7160339327c47f4d1fc534a76c67b2ee467baeeb71763ecb6b1a162c1978",
        ),
        2**16 + 1: (
            "b2c71161dcd249d81be45692b7a6bb64477b0ca68fcdfaf9219bc741dcb068d5",
            "bc4234fb32a105be0c0cc887d35c44ee1bc6020f805d77ddda2bb51310d36362",
            "cf9750459efedf1dc00b593a2ca9527413f9bd2dc5740f93085bbba7fd8b9011",
        ),
        3 * 2**16 + 5: (
            "9cf5ad448ba27bd6a7cacd6ea8fbc75b751f3edb81772edea9ce25a6f4836501",
            "315d2f5b0b0dd6fd40c73826d155334f7f8f569bbf007bb90fc34116403f1ad1",
            "bf9029f581fa96522f9a039b0058273ee0c4021997c6f76405e75e4cefd6ee63",
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_streamed_output_is_pinned(self, capsys, tmp_path, n):
        spec = tmp_path / "three.json"
        horses = [{"p": 0.5, "odds": 2.2}, {"p": 0.3, "odds": 3.1}, {"p": 0.2, "odds": 5.5}]
        spec.write_text(json.dumps({"horses": horses}))
        argv = ["simulate", str(spec), "--beta", "0.5", "-n", str(n), "--seed", "11"]
        target = tmp_path / "traj.csv"
        _, summary = run(capsys, *argv, "--output", str(target))
        _, both = run(capsys, *argv)
        digests = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (summary.encode(), target.read_bytes(), both.encode())
        )
        assert digests == self.PINNED[n]

    CHUNK = cli.oracle._MC_CHUNK

    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * 2**16 + 5])
    def test_band_matches_the_in_memory_reference(self, capsys, fair_spec, tmp_path, n):
        target = tmp_path / "traj.csv"
        argv = ["simulate", fair_spec, "--beta", "0.5", "-n", str(n), "--seed", "3"]
        code, out = run(capsys, *argv, "--output", str(target))
        assert code == 0
        market = new_race([0.6, 0.4], [2, 2])
        log_wealth = reference_log_wealth(market, optimal_full(market, 0.5), n, 3)
        reference = 3 * np.diff(log_wealth, prepend=0).std(ddof=1) / math.sqrt(n)
        assert json.loads(out)["clt_band_3se_bits"] == pytest.approx(reference, rel=1e-14)

    def _band_and_reference(self, capsys, tmp_path, probs, odds, beta, n, seed):
        """The printed band, and 3 std(ddof=1) / sqrt(n) of the exact increments."""
        spec = tmp_path / "race.json"
        spec.write_text(json.dumps({"horses": [{"p": p, "odds": o} for p, o in zip(probs, odds)]}))
        argv = ["simulate", str(spec), "--beta", beta, "-n", str(n), "--seed", str(seed)]
        code, out = run(capsys, *argv, "--output", str(tmp_path / "traj.csv"))
        assert code == 0
        doc = json.loads(out)
        market = new_race(probs, odds)
        winners = reference_winners(market, n, seed)
        steps = np.log2(np.array(doc["allocation"]["bets"])[winners] * market.odds[winners])
        return doc["clt_band_3se_bits"], 3 * steps.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("n", [3, CHUNK + 1, 3 * 2**16 + 5])
    def test_band_is_the_spread_of_the_exact_increments(self, capsys, tmp_path, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = int(rng.integers(2, 9))
            probs, odds = rng.dirichlet(np.ones(m)).tolist(), rng.uniform(1.2, 8.0, m).tolist()
            beta = repr(float(rng.uniform(-3.0, 0.9)))
            band, reference = self._band_and_reference(capsys, tmp_path, probs, odds, beta, n, 5)
            assert band == pytest.approx(reference, rel=1e-13)

    def test_band_of_constant_payoffs_is_at_rounding_scale(self, capsys, tmp_path):
        # Kelly on p o = 0.9 for every horse: the log2 payoffs differ in ulps only
        probs, odds, n = [0.5, 0.3, 0.2], [1.8, 3.0, 4.5], 3 * 2**16 + 5
        band, reference = self._band_and_reference(capsys, tmp_path, probs, odds, "kelly", n, 0)
        assert band < 1e-16 and reference < 1e-16

    @pytest.mark.parametrize("n", [1000, 3 * 2**16 + 5])
    def test_a_band_below_the_sums_rounding_is_not_judged(self, capsys, tmp_path, n):
        # Kelly on p o = 0.9 for every horse: final / n may drift from the rate by
        # n eps max |step|, far above the band, so within_band is null and the band
        # is still printed; the same bet on odds with a real spread is judged
        for odds, judged in (([1.8, 3.0, 4.5], False), ([2.2, 3.1, 5.5], True)):
            horses = [{"p": p, "odds": o} for p, o in zip([0.5, 0.3, 0.2], odds)]
            spec = _write(tmp_path, "race.json", {"horses": horses})
            argv = ["simulate", spec, "--beta", "kelly", "-n", str(n), "--seed", "0"]
            code, out = run(capsys, *argv, "--output", str(tmp_path / "traj.csv"))
            doc = json.loads(out)
            assert code == 0
            assert isinstance(doc["clt_band_3se_bits"], float)
            if judged:
                assert isinstance(doc["within_band"], bool)
            else:
                assert doc["within_band"] is None

    def test_one_simulate_replays_the_races_twice(self, capsys, monkeypatch, fair_spec, tmp_path):
        calls = []
        draw = cli.oracle._winner_chunks

        def counting(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(cli.oracle, "_winner_chunks", counting)
        code = main(["simulate", fair_spec, "-n", "1000", "--output", str(tmp_path / "traj.csv")])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 2

    def test_closed_stdout_exits_1_without_a_traceback(self, fair_spec):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "powerbet", "simulate", fair_spec, "-n", "200000"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"race,cum_log2_wealth\n"
        proc.stdout.close()  # the rest of the CSV overflows the pipe's buffer
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    def test_ruin_writes_nothing_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "uneven.json"
        path.write_text(json.dumps({"horses": [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 3.0}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", str(path), "--beta", "+inf", "-n", "200", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert caught == []
        assert captured.err == ""
        doc = json.loads(captured.out[captured.out.index("{"):])
        assert doc["final_log2_wealth"] == -math.inf
        assert doc["clt_band_3se_bits"] is None


class TestDivergenceCmd:
    def test_integer_too_large_for_a_float_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([10**400, 0.5]))
        code = main(["divergence", "--alpha", "0.5", "-p", str(path), "-q", "0.5,0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: -p:")

    def test_inline_vectors(self, capsys):
        code, out = run(capsys, "divergence", "--alpha", "0.5", "-p", "1,0", "-q", "0.5,0.5")
        assert code == 0
        assert json.loads(out)["divergence_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_identical(self, capsys):
        code, out = run(capsys, "divergence", "--alpha", "2", "-p", "0.3,0.7", "-q", "0.3,0.7")
        assert code == 0
        assert json.loads(out)["divergence_bits"] == pytest.approx(0.0, abs=1e-14)

    def test_conditional(self, capsys):
        code, out = run(
            capsys,
            "divergence",
            "--alpha", "0.5",
            "-p", "1,0;0,1",
            "-q", "0.5,0.5;0.5,0.5",
            "--p-y", "0.5,0.5",
        )
        assert code == 0
        assert json.loads(out)["divergence_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_conditional_alpha_one_is_the_averaged_kl(self, capsys):
        code, out = run(
            capsys,
            "divergence", "--alpha", "1", "-p", "1,0;0,1", "-q", "0.5,0.5;0.5,0.5", "--p-y", "0.5,0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["conditional"] is True
        assert doc["divergence_bits"] == 1.0  # one bit under either signal

    def test_file_inputs(self, capsys, tmp_path):
        p_file = tmp_path / "p.json"
        q_file = tmp_path / "q.json"
        p_file.write_text("[0.6, 0.4]")
        q_file.write_text("[0.5, 0.5]")
        code, out = run(capsys, "divergence", "--alpha", "1", "-p", str(p_file), "-q", str(q_file))
        assert code == 0
        expected = 0.6 * math.log2(1.2) + 0.4 * math.log2(0.8)
        assert json.loads(out)["divergence_bits"] == pytest.approx(expected, abs=1e-14)

    def test_file_that_does_not_parse_is_invalid_input(self, capsys, tmp_path):
        p_file = tmp_path / "p.json"
        p_file.write_text("[0.6, 0.4")
        code = main(["divergence", "--alpha", "0.5", "-p", str(p_file), "-q", "0.5,0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: -p: {str(p_file)!r} is not valid JSON: "
            "Expecting ',' delimiter: line 1 column 10 (char 9)\n"
        )

    @pytest.mark.parametrize("content", ['["a", "b"]', "[[0.5, 0.5], [0.5]]"])
    def test_non_numeric_file_names_the_field(self, capsys, tmp_path, content):
        p_file = tmp_path / "p.json"
        p_file.write_text(content)
        code = main(["divergence", "--alpha", "0.5", "-p", str(p_file), "-q", "0.5,0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "-p" in err

    def test_invalid_distribution(self, capsys):
        code = main(["divergence", "--alpha", "0.5", "-p", "0.9,0.9", "-q", "0.5,0.5"])
        assert capsys.readouterr().err.startswith("error: -p, -q: p sums to")
        assert code == 2

    @pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("p_y", [[], ["--p-y", "1"]])
    def test_bad_order_names_the_flag(self, capsys, alpha, p_y):
        code = main(["divergence", "--alpha", alpha, "-p", "0.5,0.5", "-q", "0.5,0.5", *p_y])
        assert capsys.readouterr().err.startswith("error: --alpha: divergence order must be")
        assert code == 2

    def test_ragged_table_is_invalid_input(self, capsys):
        argv = ["divergence", "--alpha", "2", "-p", "0.5,0.5;1", "-q", "0.5,0.5;0.5,0.5"]
        code = main(argv + ["--p-y", "0.5,0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "p_cond" in err
        assert "Traceback" not in err

    def test_fewer_rows_than_signals_is_invalid_input(self, capsys):
        argv = ["divergence", "--alpha", "2", "-p", "0.5,0.5", "-q", "0.5,0.5", "--p-y", "0.5,0.5"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "rows" in err


class TestRoundTrip:
    def test_allocation_floats_survive_serialization(self, capsys, fair_spec):
        _, out = run(capsys, "optimize", fair_spec, "--beta", "0.37")
        doc = json.loads(out)
        from powerbet import new_race, optimal_full

        exact = optimal_full(new_race([0.6, 0.4], [2, 2]), 0.37)
        assert doc["allocation"]["bets"] == [float(v) for v in exact.bets]
        # a serialize/parse cycle reproduces every float bit for bit
        again = json.loads(json.dumps(doc, sort_keys=True, indent=2))
        assert again == doc

    def test_identical_invocations_identical_documents(self, capsys, fair_spec):
        _, first = run(capsys, "optimize", fair_spec, "--beta", "0.5", "--check")
        _, second = run(capsys, "optimize", fair_spec, "--beta", "0.5", "--check")
        assert first == second
