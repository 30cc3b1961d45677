"""Smoke tests for the benchmark harness.

Every workload runs at a tiny size, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit.  Run from the repository
root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
from worker import latency_summary  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    specs = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, spec["name"]

    text = "\n".join(lines[:-1])
    for spec in specs:
        assert f"{spec['name']} " in text and spec["unit"] in text
    if not trace:
        assert "fail_frac" in text and "task_p50_ms" in text and "of n=" in text
    assert "commit" in text and "numpy" in text and "nproc" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_attempts_and_fails_the_same_tasks_on_every_run(workload):
    first, second = (json.loads(_run(ROOT, workload, 0).stdout.strip().splitlines()[-1]) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    summary = latency_summary([i / 1000 for i in range(45)])
    assert summary["n"] == 45
    assert summary["tail_ms"] == pytest.approx(34.0)
    assert summary["tail_pct"] == pytest.approx(100 * 35 / 45)
    assert summary["p50_ms"] == pytest.approx(22.0)
