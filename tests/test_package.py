import ast
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


LAYERS = ["errors", "market", "divergence", "strategy", "utility", "oracle", "cli"]


def _package_imports(path: str) -> set[str]:
    """The package modules a module imports, at any depth, by relative or absolute name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("powerbet"):
                continue
            base = base.removeprefix("powerbet").lstrip(".")
            if base:
                found.add(base.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("powerbet."):
                    found.add(alias.name.split(".")[1])
    return found


def test_cli_reads_no_private_name_of_the_solver_layers():
    # --check reads what the optimizers recorded through oracle, not their kernels
    root = os.path.dirname(os.path.abspath(powerbet.__file__))
    with open(os.path.join(root, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("strategy", "divergence")
        and node.attr.startswith("_")
    ]
    reads += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("strategy", "divergence")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert reads == []


def test_modules_import_only_the_layers_below_them():
    # errors -> market -> divergence -> strategy -> utility -> oracle -> cli
    root = os.path.dirname(os.path.abspath(powerbet.__file__))
    modules = {name[:-3] for name in os.listdir(root) if name.endswith(".py")}
    assert modules == set(LAYERS) | {"__init__", "__main__"}
    for depth, name in enumerate(LAYERS):
        imported = _package_imports(os.path.join(root, name + ".py"))
        assert imported <= set(LAYERS[:depth]), (name, sorted(imported - set(LAYERS[:depth])))
