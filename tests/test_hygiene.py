"""Source hygiene of the qnlab package: no unused imports, imports at module
level only, numpy's transforms behind qnlab.spectral, and the import
direction between the solver and energy modules."""
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
