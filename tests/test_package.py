import os
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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(powerbet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, powerbet; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
