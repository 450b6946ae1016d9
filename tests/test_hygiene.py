"""Source hygiene of the qnlab package: no unused imports, imports at module
level only, numpy's transforms behind qnlab.spectral, the import direction
between the solver and energy modules, and one owner for each restated rule."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "qnlab").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in `path` and never read there; imports on a
    line marked `# noqa` (re-exports, side-effect imports) are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    # a function-local import hides an import cycle
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [f"{path.name}:{node.lineno}" for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_numpy_transforms_only_in_spectral():
    users = [p.name for p in MODULES if "np.fft" in p.read_text(encoding="utf-8")]
    assert users == ["spectral.py"]


def test_schrodinger_does_not_import_energy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import sys, qnlab.schrodinger; print('qnlab.energy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# inner loops work on plain arrays: fields are validated where they cross the
# public API, not each time a loop allocates one
PLAIN_ARRAY_LOOPS = [("poisson_boltzmann.py", "_pcg"), ("poisson_boltzmann.py", "_newton_hat"),
                     ("euler.py", "_rhs")]


@pytest.mark.parametrize("module, func", PLAIN_ARRAY_LOOPS, ids=lambda v: v)
def test_inner_loops_build_no_fields(module, func):
    tree = ast.parse((SRC / "qnlab" / module).read_text(encoding="utf-8"))
    [body] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == func]
    built = [f"{module}:{node.lineno}" for node in ast.walk(body) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("RealField", "ComplexField")]
    assert built == []


# one owner per rule: each rule below is written in one function, so a change
# to it edits one place

def _call_sites(path: Path, callee: str) -> list[str]:
    """`module:function` for every call of `callee` (by name or attribute) in
    `path`; a nested function counts as its own, module level as `<module>`."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and \
                    getattr(child.func, "id", getattr(child.func, "attr", None)) == callee:
                sites.append(f"{path.name}:{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_newton_tail_has_one_caller():
    # the stopping tolerance, the Newton solve and the split are built once
    sites = [s for p in MODULES for s in _call_sites(p, "_newton_hat")]
    assert len(sites) == 1, sites


def test_euler_reference_has_one_caller():
    # a sweep integrates its reference once and hands it to every point
    sites = [s for p in MODULES for s in _call_sites(p, "_euler_reference")]
    assert sites == ["experiments.py:_sweep_reference"]


def test_prepared_state_built_in_one_function():
    sites = _call_sites(SRC / "qnlab" / "experiments.py", "WellPreparedSpec")
    assert len(sites) == 1, sites


def _is_power_of_two_test(node) -> bool:
    """`x & (x - 1)`, either way round."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for a, b in ((node.left, node.right), (node.right, node.left)):
        if isinstance(b, ast.BinOp) and isinstance(b.op, ast.Sub) and \
                isinstance(b.right, ast.Constant) and b.right.value == 1 and \
                ast.dump(b.left) == ast.dump(a):
            return True
    return False


def test_power_of_two_rule_only_in_grid():
    users = [p.name for p in MODULES
             if any(_is_power_of_two_test(n)
                    for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))]
    assert users == ["grid.py"]


def test_schrodinger_run_stamps_times_by_index():
    # sample i is w0.time + i * dt, as in run_euler; a running sum of dt drifts
    tree = ast.parse((SRC / "qnlab" / "schrodinger.py").read_text(encoding="utf-8"))
    [body] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "run"]
    sums = [node.lineno for node in ast.walk(body) if isinstance(node, ast.AugAssign)
            and any(isinstance(n, ast.Name) and n.id == "dt" for n in ast.walk(node.value))]
    assert sums == []
