"""Smoke runs of the benchmark harness on every workload: each run must
complete and its outputs must match the harness's reference (the sweep and
Euler values in perfbench/reference.json, an exact reference for the
particles). No timing bound. The names the benchmark imports or wraps
from qnlab must resolve."""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep_1d", "euler_2d", "nbody_ladder"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--smoke", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


def qnlab_names(source: str):
    """(module, attribute) of every `from qnlab... import name` in source."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "qnlab"
            for alias in node.names]


def wrapped_names(source: str):
    """(module, attribute) of every row of the WRAPPED table in source."""
    (table,) = [node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]]
    return [(ast.unparse(row.elts[0]), ast.literal_eval(row.elts[1])) for row in table.elts]


def unresolved(names):
    return [f"{module}.{attr}" for module, attr in names
            if not hasattr(importlib.import_module(module), attr)]


# the benchmark imports these names itself or wraps them at call time; a
# moved name would fail only a traced run, or leave a layer metric at 0
@pytest.mark.parametrize("path, names", [
    ("perfbench/micro.py", qnlab_names),
    ("perfbench/tracer.py", wrapped_names),
], ids=["micro_imports", "tracer_wraps"])
def test_benchmark_names_resolve(path, names):
    found = names((ROOT / path).read_text())
    assert found
    assert unresolved(found) == []
