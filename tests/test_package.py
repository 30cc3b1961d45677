import os
import re
import subprocess
import sys
import types

import powerbet


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(powerbet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(powerbet.__all__) == len(set(powerbet.__all__))
    assert set(powerbet.__all__) == public


def test_benchmark_calls_only_public_names():
    # the benchmark runs every commit's tree through this list of names
    root = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(root, os.pardir, "perfbench", "workloads.py"), encoding="utf-8") as fh:
        used = set(re.findall(r"\b(?:lib|powerbet)\.([A-Za-z_]\w*)", fh.read()))
    assert used
    assert used <= set(powerbet.__all__), sorted(used - set(powerbet.__all__))


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(powerbet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, powerbet; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
