import json
import math
import warnings

import numpy as np
import pytest

from powerbet import cli, new_race, optimal_full, simulate_growth
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
        kkt = doc["oracle_check"]["kkt"]
        assert max(kkt["stationarity_gap"], kkt["feasibility_gap"]) < 1e-8

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
        assert check["kkt"]["mu"] == pytest.approx(1.0, rel=1e-15, abs=0.0)

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
        # a resolution of 200 would enumerate 70,058,751 points at 5 horses
        horses = [{"p": p, "odds": o} for p, o in zip([0.3, 0.25, 0.2, 0.15, 0.1], [3, 4, 5, 6, 9])]
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"horses": horses}))
        code, out = run(capsys, "optimize", str(path), "--beta", "0.5", "--check")
        assert code == 0
        check = json.loads(out)["oracle_check"]
        assert check["grid_resolution"] == 121
        assert check["passed"] is True

    def test_partial_cash_rounds_to_zero_close_to_one(self, capsys, subfair_spec):
        argv = ["optimize", subfair_spec, "--beta", "0.999", "--mode", "partial"]
        code, out = run(capsys, *argv)
        assert code == 0
        alloc = json.loads(out)["allocation"]
        assert alloc["cash"] == 0.0
        assert alloc["bets"] == [1.0, 0.0]
        # the certificate cannot certify a zero cash: its gaps are infinite
        code, out = run(capsys, *argv, "--check")
        assert code == 4
        check = json.loads(out)["oracle_check"]
        assert check["grid_minus_analytic"] <= 1e-9
        assert check["kkt"]["feasibility_gap"] == math.inf
        assert check["kkt"]["cash_feasibility_gap"] == math.inf
        assert '"feasibility_gap": Infinity' in out


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
            monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", rows)
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
        capsys.readouterr()
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
