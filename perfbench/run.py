"""qnlab benchmark: whole `qnlab` CLI runs, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Each CLI run is a fresh single process
(`--jobs 1`) started only after the previous one ends; the program is
imported from ./src. With `--trace 0` the runs are untraced and the last
stdout line reports the end-to-end metrics; with `--trace 1` one untraced
and one traced run are made, the microbenchmarks run, and the last line
reports the per-layer metrics. Every run's outputs are checked against the
reference (perfbench/reference.py) and byte for byte against the first run.
Artifacts, spans and provenance land in perfbench/out/<workload>/.
See perfbench/README.md for the metric definitions.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "sweep_1d": "quasineutral_sweep",
    "euler_2d": "euler_run",
    "nbody_ladder": "nbody_stats",
}
# smoke mode: the same workloads at tiny sizes, for the benchmark's own test
SMOKE_SETS = {
    "sweep_1d": ["grid.n=256", "physics.T=0.002", "runtime.sample_every=10"],
    "euler_2d": ["grid.n=32", "physics.T=0.0004", "runtime.sample_every=2"],
    "nbody_ladder": ["nbody.n_particles=8,64,512", "nbody.n_configs=20"],
}
CHILD_TIMEOUT_S = 170
# The shared host this was tuned on drifts by up to 40% within half an hour,
# so times are scaled by probes that use no qnlab code. run_experiment time
# reads as seconds on a host where the child's speed probe takes 50 ms;
# set-up time as seconds on a host where importing numpy and
# scipy.sparse.linalg in a fresh interpreter takes 0.4 s.
PROBE_REF_S = 0.05
IMPORT_REF_S = 0.4
MICRO_MIN_SAMPLES = 11
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("count", "spans", "cg_failures", "newton_iters", "newton_iters_per_solve"):
        return "count"
    if last == "flops":
        return "flop"
    if last == "bytes_computed":
        return "B"
    stem = name[:-len(".tail")] if last == "tail" else name
    for part in reversed(stem.split(".")):
        for suffix in ("_us", "_ms", "_s"):
            if part.endswith(suffix):
                return suffix[1:]
    raise ValueError(f"no unit for metric {name!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("QNLAB_SEED", None)
    return env


def import_probe() -> float:
    """Spawn-to-exit seconds of an interpreter that imports the libraries
    qnlab imports, and nothing of qnlab."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse.linalg"], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - start


def spawn(mode, workload, seed, out_dir: Path, smoke: bool) -> dict:
    """One CLI process; returns the child's stamps plus setup_s and errors."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stamp = out_dir.parent / (out_dir.name + ".stamp.json")
    stamp.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(stamp), mode, "--",
            WORKLOADS[workload], "--config", str(HERE / "configs" / f"{workload}.cfg"),
            "--jobs", "1", "--out", str(out_dir), "--set", f"seeds={seed}"]
    for item in SMOKE_SETS[workload] if smoke else ():
        argv += ["--set", item]
    env = child_env()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not stamp.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    stamps = json.loads(stamp.read_text())
    stamps["setup_s"] = stamps["config_ready"] - spawned
    if stamps["status"] != 0:
        stamps["error"] = f"qnlab exited {stamps['status']}: {proc.stderr.strip()[-2000:]}"
    return stamps


def scaled_wall(stamps) -> float:
    return stamps["wall_s"] * PROBE_REF_S / statistics.fmean(stamps["probe_s"])


def scaled_setup(stamps) -> float:
    return stamps["setup_s"] * IMPORT_REF_S / stamps["import_probe_s"]


def output_files(out_dir: Path) -> dict:
    """summary.json, errors.json and every CSV, relative path -> bytes."""
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*"))
            if p.is_file() and (p.suffix == ".csv" or p.name in ("summary.json", "errors.json"))}


class Checker:
    """Counts operations (runs, sweep points, ladder entries) and failures."""

    def __init__(self, workload, profile, seed):
        self.workload, self.profile, self.seed = workload, profile, seed
        self.attempted = self.failed = 0
        self.first_files = None
        self.problems = []

    def _fail(self, what, reasons):
        self.failed += 1
        self.problems += [f"{what}: {r}" for r in reasons]

    def run(self, label, stamps, out_dir: Path):
        self.attempted += 1
        if "error" in stamps or not (out_dir / "summary.json").exists():
            self._fail(label, [stamps.get("error", "no summary.json")])
            return
        files = output_files(out_dir)
        run_reasons = []
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            diff = sorted(k for k in set(files) | set(self.first_files)
                          if files.get(k) != self.first_files.get(k))
            run_reasons.append(f"outputs differ from the first run: {diff}")
        summary = json.loads(files["summary.json"])
        run_ok, entries = reference.check(self.workload, self.profile, summary, self.seed)
        if not run_ok:
            run_reasons.append("run-level values or entry count differ from the reference")
        if run_reasons:
            self._fail(label, run_reasons)
        for i, reasons in enumerate(entries):
            self.attempted += 1
            if reasons:
                self._fail(f"{label} entry {i}", reasons)


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_end_to_end(args, checker, work: Path):
    runs = []
    start = time.monotonic()
    while True:
        out_dir = work / f"run{len(runs)}"
        stamps = spawn("run", args.workload, args.seed, out_dir, args.smoke)
        checker.run(f"run {len(runs)}", stamps, out_dir)
        if "error" not in stamps:
            stamps["import_probe_s"] = import_probe()
        runs.append(stamps)
        elapsed = time.monotonic() - start
        # stop when one more run would end further past the deadline than
        # stopping now falls short of it; two runs at least, to compare outputs
        if len(runs) >= 2 and elapsed + elapsed / len(runs) / 2 > args.seconds:
            break
    good = [r for r in runs if "error" not in r]
    if not good:
        return None, ""
    walls = [scaled_wall(r) for r in good]
    print("samples wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in good)
          + " | setup_s " + " ".join(f"{r['setup_s']:.4f}" for r in good)
          + " | probe_s " + " ".join(f"{r['probe_s'][0]:.4f},{r['probe_s'][1]:.4f}" for r in good)
          + " | import_probe_s " + " ".join(f"{r['import_probe_s']:.4f}" for r in good))
    median, tail, count = layers.timing(walls, 1.0)
    metrics = {
        "wall_s": median,
        "setup_s": statistics.median(scaled_setup(r) for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }
    raw = statistics.median(r["wall_s"] for r in good)
    return metrics, (f"wall_s: median of {count} scaled runs, {layers.tail_label(count)} "
                     f"{tail:.4f} s; unscaled median {raw:.4f} s")


def measure_layers(args, checker, work: Path):
    import micro

    plain = spawn("run", args.workload, args.seed, work / "untraced", args.smoke)
    checker.run("untraced run", plain, work / "untraced")
    traced = spawn("trace", args.workload, args.seed, work / "traced", args.smoke)
    checker.run("traced run", traced, work / "traced")
    if "error" in plain or "error" in traced:
        return None
    spans = traced.pop("spans")
    (work / "spans.json").write_text(json.dumps(
        {"trace_id": f"{args.workload}-seed{args.seed}", "fields": ["name", "start", "end",
                                                                     "parent", "attrs"],
         "spans": spans}))
    metrics = layers.from_spans(spans)
    metrics["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(plain)

    cases = micro.cases(args.smoke, str(HERE / "configs" / "sweep_1d.cfg"))
    budget = 0.0 if args.smoke else 0.25 * args.seconds / len(cases)
    results = [(name, micro.time_case(fn, budget, MICRO_MIN_SAMPLES), extras)
               for name, fn, extras in cases]
    metrics.update(layers.from_micro(results))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    args = parser.parse_args(argv)
    if not (SRC / "qnlab" / "cli.py").is_file():
        print(f"error: no qnlab sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # qnlab seeds must be non-negative; any benchmark seed maps onto one
    args.seed %= 2**32

    profile = "smoke" if args.smoke else "full"
    work = OUT / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    prov = provenance()
    (work / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))

    checker = Checker(args.workload, profile, args.seed)
    if args.trace:
        metrics = measure_layers(args, checker, work)
        units = {name: unit_of(name) for name in metrics or ()}
    else:
        metrics, summary_line = measure_end_to_end(args, checker, work)
        units = END_TO_END_UNITS
        print(summary_line)
    for problem in checker.problems:
        print("FAILED " + problem)
    if metrics is None:
        print("error: no run completed", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        count = metrics.get(name[:-len("tail")] + "count") if name.endswith(".tail") else None
        note = f"  ({layers.tail_label(count)})" if count else ""
        print(f"{name:52s} {value:>16.6g} {units[name]}{note}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
