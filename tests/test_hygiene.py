"""Source hygiene of the qnlab package: no unused imports, imports at module
level only, no public name without a caller, numpy's transforms behind
qnlab.spectral, the import direction between the solver and energy modules,
and one owner for each restated rule."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_smoke import qnlab_names, wrapped_names

from qnlab.config import _KEYS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def _referenced(node) -> set[str]:
    """Every name read, attribute taken or name imported under `node`."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in n.names)
    return names


# public names whose only callers are tests, each with the reason it stays
UNCALLED_KEPT = {
    "nbody.green_kernel_prime": "the direct-sum oracle of the commutator and of phi'",
}


def test_every_public_name_has_a_caller():
    # a public top-level function or class is used elsewhere in the package,
    # by the benchmark (perfbench/micro.py imports, perfbench/tracer.py
    # wraps), or by the acceptance gate; a name that nothing runs is deleted
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    outside = set().union(
        (name for _, name in qnlab_names((ROOT / "perfbench" / "micro.py").read_text())),
        (name for _, name in wrapped_names((ROOT / "perfbench" / "tracer.py").read_text())),
        _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    uncalled = []
    for module, tree in trees.items():
        other_modules = set().union(*(_referenced(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                # a reference inside its own definition (recursion) does not count
                same_module = set().union(*(_referenced(o) for o in tree.body if o is not node))
                if node.name not in other_modules | same_module | outside:
                    uncalled.append(f"{module}.{node.name}")
    assert sorted(uncalled) == sorted(UNCALLED_KEPT)


def test_numpy_transforms_only_in_spectral():
    users = [p.name for p in MODULES if "np.fft" in p.read_text(encoding="utf-8")]
    assert users == ["spectral.py"]


def _numpy_fft_names(node) -> list[str]:
    """The attribute names X of every `np.fft.X` under `node`."""
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Attribute) and n.value.attr == "fft"
            and isinstance(n.value.value, ast.Name) and n.value.value.id == "np"]


def test_spectral_calls_numpy_transforms_only_where_they_are_counted():
    # TransformCounter (tests/conftest.py) patches the four transforms and
    # irfft_padded: a numpy transform anywhere else in spectral.py would run
    # uncounted. Symbols reads numpy's mode numbers, which transform nothing
    tree = ast.parse((SRC / "qnlab" / "spectral.py").read_text(encoding="utf-8"))
    counted = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("rfft", "irfft", "fft", "ifft", "irfft_padded")]
    [symbols] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "Symbols"]
    [init] = [node for node in symbols.body if isinstance(node, ast.FunctionDef)
              and node.name == "__init__"]
    assert sorted(set(_numpy_fft_names(init))) == ["fftfreq", "rfftfreq"]
    assert len(_numpy_fft_names(tree)) == \
        sum(len(_numpy_fft_names(node)) for node in counted) + len(_numpy_fft_names(init))
    # and np.fft is the only name numpy's transforms go by there
    imports = [ast.unparse(node) for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "fft" in line] == []


def _loaded_after(module: str, names: list[str]) -> list[str]:
    """Which of `names` are in sys.modules after `import module` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = f"import sys, {module}; print(*[m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_schrodinger_does_not_import_energy():
    assert _loaded_after("qnlab.schrodinger", ["qnlab.energy"]) == []


def test_cli_leaves_numpy_fft_unloaded():
    # numpy.fft loads at a run's first transform: transform set-up at import
    # would move into every CLI start-up
    assert _loaded_after("qnlab.cli", ["numpy.fft"]) == []


def test_cli_leaves_the_process_pool_unloaded():
    # concurrent.futures loads its process pool, and multiprocessing with it,
    # on first attribute access; only a sweep under --jobs > 1 touches it
    pool = ["multiprocessing", "concurrent.futures.process"]
    assert _loaded_after("qnlab.cli", pool) == []


# inner loops work on plain arrays: fields are validated where they cross the
# public API, not each time a loop allocates one. A Strang step's |psi|^2 is
# nonnegative by construction and keeps the mass of run's checked w0, so the
# step builds no field, split or state and checks no density either
PLAIN_ARRAY_LOOPS = [("poisson_boltzmann.py", "_pcg"), ("poisson_boltzmann.py", "_newton_hat"),
                     ("euler.py", "_rhs"), ("schrodinger.py", "_step_core")]
CHECKED_API = ("RealField", "ComplexField", "PotentialSplit", "WaveFunction", "check_density",
               "solve_pb", "solve_potential")


@pytest.mark.parametrize("module, func", PLAIN_ARRAY_LOOPS, ids=lambda v: v)
def test_inner_loops_build_no_fields(module, func):
    tree = ast.parse((SRC / "qnlab" / module).read_text(encoding="utf-8"))
    [body] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == func]
    built = [f"{module}:{node.lineno}" for node in ast.walk(body) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in CHECKED_API]
    assert built == []


# one owner per rule: each rule below is written in one function, so a change
# to it edits one place

def _chains(path: Path, match) -> list[tuple[str, ...]]:
    """The enclosing functions, outermost first, of every node in `path` that
    `match` accepts; () at module level."""
    chains = []

    def visit(node, chain):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*chain, child.name))
                continue
            if match(child):
                chains.append(chain)
            visit(child, chain)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return chains


def _call_chains(path: Path, callee: str) -> list[tuple[str, ...]]:
    """_chains of every call of `callee` (by name or attribute) in `path`."""
    return _chains(path, lambda node: isinstance(node, ast.Call) and
                   getattr(node.func, "id", getattr(node.func, "attr", None)) == callee)


def _call_sites(path: Path, callee: str) -> list[str]:
    """`module:function` for every call of `callee` (by name or attribute) in
    `path`; a nested function counts as its own, module level as `<module>`."""
    return [f"{path.name}:{chain[-1] if chain else '<module>'}"
            for chain in _call_chains(path, callee)]


def test_newton_tail_has_one_caller():
    # the stopping tolerance, the Newton solve and the split are built once
    sites = [s for p in MODULES for s in _call_sites(p, "_newton_hat")]
    assert len(sites) == 1, sites


def test_potential_solves_share_one_array_path():
    # a public solve checks its input, runs the array-level core a step runs
    # unchecked, and wraps the result: there is no second solve path
    sites = [s for p in MODULES for s in _call_sites(p, "potential_values")]
    assert sites == ["schrodinger.py:solve_potential", "schrodinger.py:_step_core"]
    sites = [s for p in MODULES for s in _call_sites(p, "pb_values")]
    assert sites == ["poisson_boltzmann.py:solve_pb", "poisson_boltzmann.py:_empirical_solve",
                     "schrodinger.py:potential_values"]


def test_newton_hat_reads_its_guess_once():
    # one start rule for every solve: the guess, or zeros without one, is
    # the starting iterate, and nothing else in the solve asks whether a
    # guess was given
    path = SRC / "qnlab" / "poisson_boltzmann.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [func] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_newton_hat"]
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    readers = [s for s in body if any(isinstance(node, ast.Name) and node.id == "hat0"
                                      for node in ast.walk(s))]
    assert len(readers) == 1, [s.lineno for s in readers]
    [stmt] = readers
    # hat, res, weight = residual(<the starting iterate>)
    assert isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
    assert stmt.value.func.id == "residual"
    assert [t.id for t in stmt.targets[0].elts] == ["hat", "res", "weight"]
    [start] = stmt.value.args
    reads = [node for node in ast.walk(stmt) if isinstance(node, ast.Name) and node.id == "hat0"]
    assert reads and all(any(node is r for node in ast.walk(start)) for r in reads)


def test_run_warm_starts_come_from_one_extrapolation():
    # every warm start of run, step solve and sample re-solve, is the
    # polynomial _extrapolate builds, so a change of predictor (uneven
    # substeps, another order) edits one function
    path = SRC / "qnlab" / "schrodinger.py"
    assert _call_chains(path, "_extrapolate") == [("run",), ("run",)]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [body] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "run"]
    hat0_position = {"_step_core": 5, "solve_potential": 3}
    guesses = [node.args[hat0_position[node.func.id]] for node in ast.walk(body)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) in hat0_position
               and len(node.args) > hat0_position[node.func.id]]
    assert len(guesses) == 2
    assert all(isinstance(g, ast.Call) and g.func.id == "_extrapolate" for g in guesses)


def test_euler_reference_callers_are_pinned():
    # a sweep integrates its reference once and hands it to every point; the
    # euler_run kind integrates its own
    sites = [s for p in MODULES for s in _call_sites(p, "_euler_reference")]
    assert sites == ["experiments.py:_sweep_reference", "experiments.py:_run_euler"]


def test_euler_constants_called_once_through_the_experiments_global():
    # the Grönwall constants are computed in one place, by a call that looks
    # the name up in qnlab.experiments, where perfbench's tracer wraps it
    sites = [s for p in MODULES for s in _call_sites(p, "euler_constants")]
    assert sites == ["experiments.py:_euler_reference"]
    tree = ast.parse((SRC / "qnlab" / "experiments.py").read_text(encoding="utf-8"))
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "euler_constants"]
    assert [type(f) for f in calls] == [ast.Name]
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module == "euler" for alias in node.names]
    assert "euler_constants" in imported


def test_n_grid_first_step_checked_once_before_the_grid_rule():
    # the callers of _coarsest_run hand it an n-grid state that has passed
    # the n grid's first-step check; no coarse grid's prepare applies it
    sites = [s for p in MODULES for s in _call_sites(p, "check_first_step")]
    assert sites == ["experiments.py:_euler_reference"]
    tree = ast.parse((SRC / "qnlab" / "experiments.py").read_text(encoding="utf-8"))
    [body] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_euler_reference"]

    def first_call(callee):
        return min(i for i, stmt in enumerate(body.body) for node in ast.walk(stmt)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee)

    assert first_call("check_first_step") < first_call("_coarsest_run")
    chains = _call_chains(SRC / "qnlab" / "experiments.py", "check_kinetic_phase")
    assert chains == [("_schrodinger_samples",)]


def test_euler_integrates_only_under_the_grid_rule():
    # every Euler run of an experiment goes through _euler_reference's
    # callback to _coarsest_run or through the coarse time-step rule
    chains = _call_chains(SRC / "qnlab" / "experiments.py", "run_euler")
    assert chains
    assert all(c[:2] == ("_euler_reference", "integrate") or c[:1] == ("_coarse_step_run",)
               for c in chains), chains


def test_prepared_state_built_in_one_function():
    sites = _call_sites(SRC / "qnlab" / "experiments.py", "WellPreparedSpec")
    assert len(sites) == 1, sites


def test_initial_data_read_only_in_profiles():
    # every run evaluates its initial data through _profiles(cfg, grid), so a
    # new data family edits one function; the summary's initial block only
    # echoes the configured values
    fields = {field for key, (field, _, _) in _KEYS.items() if key.startswith("initial.")}
    assert fields
    readers = {f"{p.name}:{chain[-1] if chain else '<module>'}" for p in MODULES
               for chain in _chains(p, lambda node: isinstance(node, ast.Attribute)
                                    and node.attr in fields)}
    assert sorted(readers) == ["experiments.py:_profiles", "experiments.py:run_experiment"]


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
