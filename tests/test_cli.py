import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from itertools import accumulate

import numpy as np
import pytest

from helpers import reference_log_wealth, reference_winners
from powerbet import (
    Allocation,
    ConditionalAllocation,
    NotEvaluableError,
    PartialAllocation,
    cli,
    cond_renyi_div,
    new_race,
    optimal_full,
    simulate_growth,
    strategy,
    utility,
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


HORSES = [{"p": 0.5, "odds": 2.0}, {"p": 0.5, "odds": 3.0}]
SIDE = ["optimize", "--beta", "0.5", "--mode", "side-info"]
DIVERGENCE = ["divergence", "--alpha", "0.5"]


@pytest.mark.parametrize(
    "spec,argv,message",
    [
        ({"horses": [{"p": 1.0}]}, ["analyze"], "horses[0].odds is missing"),
        (
            {"horses": HORSES, "side_info": []},
            SIDE,
            "side_info must be an object with fields signals and joint",
        ),
        (
            {"horses": HORSES, "side_info": {"joint": []}},
            SIDE,
            "side_info.joint must be a nonempty list of rows",
        ),
        (
            {"horses": HORSES, "side_info": {"signals": ["a"], "joint": [[0.25, 0.25]] * 2}},
            SIDE,
            "side_info.signals length must match the number of joint rows",
        ),
        (
            {"horses": HORSES, "side_info": {"joint": [[0.5, 0.25], [0.25]]}},
            SIDE,
            "side_info.joint[1] must have one column per horse",
        ),
        (
            {"horses": HORSES, "side_info": {"joint": [[0.5, 0.0], [0.25, 0.25]]}},
            SIDE,
            "side_info.joint column sums disagree with horses[].p",
        ),
        (None, [*DIVERGENCE, "-p", " ; ", "-q", "0.5,0.5"], "-p is empty"),
        (
            None,
            [*DIVERGENCE, "-p", "0.5,x", "-q", "0.5,0.5"],
            "-p must be comma-separated numbers (rows split by ';')",
        ),
        (
            None,
            [*DIVERGENCE, "-p", "1,0;0,1", "-q", "0.5,0.5;0.5,0.5", "--p-y", "0.5,0.5;0.5,0.5"],
            "--p-y must be a single probability vector",
        ),
        (
            None,
            [*DIVERGENCE, "-p", "1,0;0,1", "-q", "0.5,0.5;0.5,0.5"],
            "-p and -q must be single vectors unless --p-y is given",
        ),
        # last, so the cases above keep their positional ids
        ({"horses": [{"odds": 2.0}]}, ["analyze"], "horses[0].p is missing"),
    ],
)
def test_malformed_input_names_what_is_wrong(capsys, tmp_path, spec, argv, message):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [argv[0], str(path), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


BIG = "1e308,1e308"  # probabilities whose sum overflows


@pytest.mark.parametrize(
    "spec,argv,message",
    [
        ({"horses": [{"p": 1e308, "odds": 2.0}] * 2}, ["analyze"], "horses: probs"),
        (None, [*DIVERGENCE, "-p", BIG, "-q", "0.5,0.5"], "-p, -q: p"),
        (
            None,
            [*DIVERGENCE, "-p", BIG, "-q", "0.5,0.5", "--p-y", "1"],
            "-p, -q, --p-y: a row of p_cond",
        ),
    ],
)
def test_a_sum_that_overflows_is_one_error_line(capsys, tmp_path, spec, argv, message):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [argv[0], str(path), *argv[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would be a traceback
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message} sums to inf, deviating from 1 by more than 1e-09\n"


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

    @pytest.mark.parametrize("beta", ["0.25", "-0.5", "-1"])
    def test_grid_judges_the_value_not_the_allocation_distance(self, capsys, tmp_path, beta):
        # three optimal bets far below 1/k: no grid point lies within 2/k of the optimum,
        # yet the certificate passes and the grid's best value is lower
        horses = [{"p": 0.997, "odds": 1.0}] + [{"p": 0.001, "odds": 1000}] * 3
        path = tmp_path / "ls.json"
        path.write_text(json.dumps({"horses": horses}))
        code, out = run(capsys, "optimize", str(path), "--beta", beta, "--check")
        check = json.loads(out)["oracle_check"]
        assert code == 0
        assert check["passed"] is True
        assert check["gap_nats"] <= check["tolerance_nats"]
        assert check["grid_minus_analytic"] <= 1e-9
        assert check["max_allocation_distance"] > 2.0 / check["grid_resolution"]  # printed only

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

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "-0.\uff15", "1e1_0"])
    def test_beta_that_is_not_a_decimal_is_invalid_input(self, capsys, fair_spec, tmp_path, text):
        # float reads digit underscores and other scripts' digits: "1_0" as 10, "\u0663" as 3
        for cmd in ("optimize", "simulate"):
            assert main([cmd, fair_spec, "--beta", text]) == 2
            assert capsys.readouterr().err.startswith("error: --beta must be kelly")
        doc = {"horses": [{"p": 0.6, "odds": 2.0}, {"p": 0.4, "odds": 2.0}], "beta": text}
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: beta must be kelly")

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
        monkeypatch.setattr(strategy, "dispatch", lambda mk, beta: Allocation([0, 1, 0]))
        code, out = run(capsys, "optimize", spec, "--beta", "2", "--check")
        assert code == 4
        assert json.loads(out)["oracle_check"]["gap_bits"] > 0.01

    def test_worst_case_bound_is_the_track_constant(self, capsys, monkeypatch, subfair_spec):
        code, out = run(capsys, "optimize", subfair_spec, "--beta", "-inf", "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_check"]["gap"] == abs(doc["utility_bits"] - math.log2(0.75))
        # a bet off the bookie mix pays less than c = 0.75 on its worse horse
        monkeypatch.setattr(strategy, "dispatch", lambda mk, beta: Allocation([0.6, 0.4]))
        code, out = run(capsys, "optimize", subfair_spec, "--beta", "-inf", "--check")
        assert code == 4
        assert json.loads(out)["oracle_check"]["gap"] == pytest.approx(math.log2(0.75 / 0.6))

    def test_a_decomposition_residual_past_the_tolerance_fails(
        self, capsys, monkeypatch, fair_spec
    ):
        code, out = run(capsys, "optimize", fair_spec, "--beta", "0.5", "--check")
        assert code == 0
        honest = json.loads(out)
        decompose = utility.decompose_full
        monkeypatch.setattr(
            utility,
            "decompose_full",
            lambda *args: dataclasses.replace(decompose(*args), residual=1.0),
        )
        code, out = run(capsys, "optimize", fair_spec, "--beta", "0.5", "--check")
        assert code == 4
        doc = json.loads(out)
        assert doc["oracle_check"] == {**honest["oracle_check"], "passed": False}

    @pytest.mark.parametrize(
        "argv", [["--beta", "kelly"], ["--beta", "kelly", "--mode", "side-info"],
                 ["--beta=-0.001", "--mode", "side-info"]]
    )
    def test_a_payoff_below_the_normal_range_keeps_the_identity(self, capsys, tmp_path, argv):
        # the second horse's payoff, 1e-200 * 1e-200 or 2e-200 * 1e-200, rounds to 0.0
        spec = _write(tmp_path, "under.json", UNDERFLOW_SPEC)
        code, out = run(capsys, "optimize", spec, *argv, "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["utility_bits"] == pytest.approx(1.0, abs=1e-12)
        assert doc["decomposition"]["residual"] < 1e-9
        assert doc["oracle_check"]["passed"] is True

    @pytest.mark.parametrize("beta", ["-5", "-1e6", "-inf"])
    def test_an_optimal_bet_below_the_subnormals_prints_positive(self, capsys, tmp_path, beta):
        # the 1e200 horse's optimal bet lies below 2^-1074 (its bookie weight c / o is about
        # 1e-400): it prints as 2^-1074, not 0.0, so the utility is finite and the check passes
        spec = _write(tmp_path, "pair.json", PAIR_SPEC)
        code, out = run(capsys, "optimize", spec, f"--beta={beta}", "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bets"][1] == 2.0**-1074
        assert math.isfinite(doc["utility_bits"])
        assert doc["oracle_check"]["passed"] is True
        if beta == "-inf":  # the bet pays more than c on that horse, and c on the others
            assert doc["utility_bits"] == pytest.approx(math.log2(PAIR_C), abs=1e-12)

    def test_partial_mode_prints_its_report_and_keeps_its_residual_rule(
        self, capsys, monkeypatch, subfair_spec
    ):
        argv = ["optimize", subfair_spec, "--beta", "0.5", "--mode", "partial", "--check"]
        code, out = run(capsys, *argv)
        assert code == 0
        honest = json.loads(out)
        report, cash = honest["decomposition"], honest["allocation"]["cash"]
        assert report["direct"] == honest["utility_bits"] and report["residual"] < 1e-9
        # the cash is a bet cash / o on every horse: c = 0.75 scales by s = 1 - cash + cash / c
        assert report["log_c"] == pytest.approx(math.log2(0.75 * (1 - cash + cash / 0.75)))
        decompose = utility.decompose_full
        monkeypatch.setattr(
            utility,
            "decompose_full",
            lambda *args: dataclasses.replace(decompose(*args), residual=1.0),
        )
        code, out = run(capsys, *argv)
        assert code == 4
        assert json.loads(out)["oracle_check"] == {**honest["oracle_check"], "passed": False}


UNDERFLOW_SPEC = {
    "horses": [{"p": 1.0, "odds": 2.0}, {"p": 1e-200, "odds": 1e-200}],
    "side_info": {"signals": ["a", "b"], "joint": [[0.5, 1e-200], [0.5, 0.0]]},
}
# odds 1e+-200: the bookie weight c / o of the 1e200 horse is about 1e-400
PAIR_SPEC = {
    "horses": [{"p": 0.2, "odds": 3.0}, {"p": 0.5, "odds": 1e200}, {"p": 0.3, "odds": 1e-200}]
}
PAIR_C = 1.0 / (1.0 / 3.0 + 1e-200 + 1e200)


class TestSimulate:
    def test_a_payoff_below_the_normal_range_has_a_finite_rate(self, capsys, tmp_path):
        spec = _write(tmp_path, "under.json", UNDERFLOW_SPEC)
        code, out = run(capsys, "simulate", spec, "-n", "100")
        assert code == 0
        summary = json.loads(out[out.index("{") :])
        assert summary["theoretical_doubling_rate_bits"] == 1.0

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

    def test_bookie_mix_with_a_bet_below_the_subnormals_is_not_ruined(self, capsys, tmp_path):
        # the 1e200 horse's bet c / o rounds up to 2^-1074, so no race pays less than c
        spec = _write(tmp_path, "pair.json", PAIR_SPEC)
        code, out = run(capsys, "simulate", spec, "--beta=-inf", "-n", "1000", "--seed", "3")
        assert code == 0
        summary = json.loads(out[out.index("{") :])
        assert summary["allocation"]["bets"][1] == 2.0**-1074
        assert summary["empirical_rate_bits"] >= math.log2(PAIR_C)

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

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["simulate", "-n", "1_0"], "-n"),  # a digit underscore, which int() reads as 10
            (["simulate", "--seed", "\u0663"], "--seed"),  # an Arabic-Indic 3
            (["optimize", "--check", "--grid-resolution", "\u0664\u0660"], "--grid-resolution"),
        ],
    )
    def test_integer_flag_outside_ascii_digits_is_invalid_input(
        self, capsys, fair_spec, flags, named
    ):
        with pytest.raises(SystemExit) as exit_:
            main([flags[0], fair_spec, *flags[1:]])
        captured = capsys.readouterr()
        assert exit_.value.code == 2
        assert captured.out == ""
        assert f"error: argument {named}: invalid int value: {flags[-1]!r}" in captured.err

    def test_count_past_the_int64_counts_is_invalid_input(
        self, capsys, monkeypatch, fair_spec, tmp_path
    ):
        def must_not_run(*args):
            raise AssertionError("simulated past the count bound")

        monkeypatch.setattr(cli.oracle, "simulate_growth", must_not_run)
        target = tmp_path / "x.csv"
        code = main(["simulate", fair_spec, "-n", str(2**63), "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: -n must be an integer in [1, 2**63)\n"
        assert not target.exists()  # refused before the output was opened

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
        for rows in (1, 7, n - 1, n, n + 1):  # races per block
            monkeypatch.setattr(cli.oracle, "_block_races", lambda m: rows)
            traj = simulate_growth(market, optimal_full(market, 0.5), n, 3)
            lines = ["race,cum_log2_wealth"]
            lines.extend(f"{i + 1},{float(v)!r}" for i, v in enumerate(traj.log_wealth))
            expected = "\n".join(lines) + "\n"
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
    # each CSV was checked against the text of the one-shot reference in helpers
    # before it was pinned, the summaries come from the band of the outcome counts
    PINNED = {
        2**14 - 1: (
            "3bcb4ea1e3b0a0f79d4b54b95a260d7c7146475048ae185752a09697a702f5c5",
            "90a2be09e86ee567b4eb5594bd34b05a2121f41c63ffe7667c5307fc5dae0003",
            "26a74a995fee19c71889bb342bd9543e58be265fd8f3673c65afe1f1f3a95213",
        ),
        2**14: (
            "4408d791aa5834abc5c92cceedbfce0b776e8c80f16837ec921444375a99ced8",
            "02388a194b3b020eaee397466781a8affde91b38f275aabba3e39d6363d8725b",
            "27b67bc97e955c7d37830a8f5de13031dd6dc8f319b4b74db59df3953ecc87ed",
        ),
        2**16 + 1: (
            "e7a3c4b2800a6e158c2bcd57843a6cb66083786de3d9016074db861aa210537f",
            "803c784f13ae4812a164af6b0f5e18a62a220017ec8770a937e99d17eb02ffc2",
            "45fb537b59b57acf106988cc94d23c47945012a45eb50b9490c1e80524130453",
        ),
        3 * 2**16 + 5: (
            "a47a2e8dcf27ec4e3611c8b9285ae1f955742b1ae2691a236fe9a1d157ece03d",
            "00cf5c000028a785c6bddc04cedd28bd83749b45c098a689d85af01a6ae7e0b6",
            "d1f21c8d332ec230b95a5be05ac0271b8527c719d3e959fe64103050ebad58bf",
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

    BLOCK = cli.oracle._block_races(2)  # races per block of a two-horse race

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * 2**16 + 5])
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

    @pytest.mark.parametrize("n", [3, BLOCK + 1, 3 * 2**16 + 5])
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

    def test_writes_carry_at_most_2_14_rows_of_a_longer_block(self, monkeypatch, tmp_path):
        # 1,000 horses: two blocks of 2^16 races and a short third, four writes each
        probs = np.random.default_rng(12).dirichlet(np.ones(1000)).tolist()
        spec = _write(tmp_path, "wide.json", {"horses": [{"p": p, "odds": 1500.0} for p in probs]})
        n, writes = 2 * 2**16 + 5, []
        sink = io.StringIO()
        monkeypatch.setattr(sink, "write", lambda text: writes.append(text) or len(text))
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["simulate", spec, "--beta", "kelly", "-n", str(n), "--seed", "4"]) == 0
        text = "".join(writes)
        doc = json.loads(text[text.index("{") :])
        market = new_race(probs, [1500.0] * 1000)
        log_wealth = reference_log_wealth(market, Allocation(doc["allocation"]["bets"]), n, 4)
        lines = ["race,cum_log2_wealth"]
        lines.extend(f"{i + 1},{float(v)!r}" for i, v in enumerate(log_wealth))
        expected = "\n".join(lines) + "\n"
        assert text.startswith(expected)
        csv = list(accumulate(map(len, writes))).index(len(expected)) + 1  # the CSV's writes
        assert [w.count("\n") for w in writes[:csv]] == [1] + [2**14] * 8 + [5]

    def test_one_simulate_replays_the_races_once(self, capsys, monkeypatch, fair_spec, tmp_path):
        calls = []
        stream = cli.oracle._stream

        def logging(seed, jumps):
            calls.append(jumps)
            return stream(seed, jumps)

        monkeypatch.setattr(cli.oracle, "_stream", logging)
        code = main(["simulate", fair_spec, "-n", "1000", "--output", str(tmp_path / "traj.csv")])
        capsys.readouterr()
        assert code == 0
        assert calls == [1, 1, 2]  # the counts, then one replay: the counts again and the order

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

    @pytest.mark.parametrize("alpha", [5e-324, 2.2e-309])
    def test_conditional_at_a_subnormal_order(self, capsys, alpha):
        # the outer tilt (alpha - 1) / alpha overflows to -inf: its limit is the least row
        tables = ["-p", "0.5,0.5;0.2,0.8", "-q", "0.3,0.7;0.6,0.4", "--p-y", "0.4,0.6"]
        code = main(["divergence", f"--alpha={alpha!r}", *tables])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        value = json.loads(captured.out)["divergence_bits"]
        p_cond, q_cond = [[0.5, 0.5], [0.2, 0.8]], [[0.3, 0.7], [0.6, 0.4]]
        above = cond_renyi_div(p_cond, q_cond, [0.4, 0.6], 1e-308)
        assert math.copysign(1.0, value) == 1.0 and value <= above

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # huge order: the far form's terms leave the double range; D_inf = log2 4
            (
                [
                    "--alpha", "1e308",
                    "-p", "0.4444444444444444,0.4444444444444444,0.1111111111111111",
                    "-q", "0.1111111111111111,0.4444444444444444,0.4444444444444444",
                ],
                2.0,
            ),
            # tiny order: the outer tilt times every row overflows; the least row, log2 10
            (
                ["--alpha", "1e-308", "-p", "1,0;1,0", "-q", "0.1,0.9;0.05,0.95", "--p-y", "0.5,0.5"],
                math.log2(10.0),
            ),
        ],
        ids=["huge", "tiny-conditional"],
    )
    def test_orders_at_the_ends_of_the_double_range(self, capsys, argv, expected):
        code = main(["divergence", *argv])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["divergence_bits"] == pytest.approx(expected, abs=1e-15)

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

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "0.\uff15", "1e1_0"])
    def test_numbers_that_are_not_decimals_are_invalid_input(self, capsys, text):
        # float reads digit underscores and other scripts' digits: "1_0" as 10, "\u0663" as 3
        code = main(["divergence", "--alpha", text, "-p", "0.5,0.5", "-q", "0.5,0.5"])
        assert capsys.readouterr().err == f"error: --alpha: not a decimal: {text!r}\n"
        assert code == 2
        code = main(["divergence", "--alpha", "2", "-p", f"{text},0.5", "-q", "0.5,0.5"])
        assert capsys.readouterr().err.startswith("error: -p must be comma-separated numbers")
        assert code == 2

    @pytest.mark.parametrize("alpha", ["-1", "nan"])
    @pytest.mark.parametrize("p_y", [[], ["--p-y", "1"]])
    def test_bad_order_names_the_flag(self, capsys, alpha, p_y):
        code = main(["divergence", "--alpha", alpha, "-p", "0.5,0.5", "-q", "0.5,0.5", *p_y])
        assert capsys.readouterr().err.startswith("error: --alpha: divergence order must be")
        assert code == 2

    @pytest.mark.parametrize("alpha", ["0", "inf"])
    @pytest.mark.parametrize("p_y", [[], ["--p-y", "1"]])
    def test_order_ends_print_a_value(self, capsys, alpha, p_y):
        # D_0 and D_inf are the limits at the ends of [0, inf], ordinary orders
        code = main(["divergence", "--alpha", alpha, "-p", "0.5,0.5", "-q", "0.5,0.5", *p_y])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        doc = json.loads(captured.out)
        assert doc["alpha"] == float(alpha)
        assert doc["divergence_bits"] == 0.0
        # the same ends on unequal inputs: -log2 Q(p > 0), and log2 max p/q
        p, q = ["-p", "0.5,0.5,0"], ["-q", "0.125,0.375,0.5"]
        code = main(["divergence", "--alpha", alpha, *p, *q, *p_y])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        expected = 1.0 if alpha == "0" else 2.0
        assert json.loads(captured.out)["divergence_bits"] == pytest.approx(expected, abs=1e-15)

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
