"""End-to-end CLI runs: artifacts, exit codes, determinism, schema."""
import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from qnlab import experiments, poisson_boltzmann, reports, schrodinger
from qnlab.cli import main
from qnlab.config import sample_steps
from qnlab.euler import run_euler
from qnlab.reports import SWEEP_FIELDS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"

SWEEP_CFG = """\
kind = quasineutral_sweep
physics.eps  = 0.02, 0.01
physics.hbar = 0.02, 0.01
physics.T = 0.01
physics.dt = 1e-3
initial.rho0_amp = 0.5
initial.u0_amp = 0.1
runtime.sample_every = 5
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as fh:
        return json.load(fh)


def assert_schema_valid(summary):
    jsonschema = pytest.importorskip("jsonschema")
    with open(DOCS / "summary_schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(summary, schema)


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "exp.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp / "out"
    code = main(["quasineutral_sweep", "--config", str(cfg), "--out", str(out)])
    return code, out


class TestSweepRun:
    def test_exit_zero(self, sweep_out):
        assert sweep_out[0] == 0

    def test_csv_header_exact(self, sweep_out):
        first = (sweep_out[1] / "sweep.csv").read_text().splitlines()[0]
        assert first == ",".join(SWEEP_FIELDS)

    def test_row_count_and_times(self, sweep_out):
        with open(sweep_out[1] / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 10 steps sampled every 5 -> times {0, 5dt, 10dt} per point
        assert len(rows) == 6
        times = sorted({float(r["time"]) for r in rows if float(r["eps"]) == 0.02})
        assert times == pytest.approx([0.0, 0.005, 0.01])
        # exactly: sample k of every point is stamped k * dt
        for eps in (0.02, 0.01):
            cells = [r["time"] for r in rows if float(r["eps"]) == eps]
            assert cells == [repr(k * 1e-3) for k in sample_steps(0.01, 1e-3, 5)]

    def test_floats_round_trip(self, sweep_out):
        with open(sweep_out[1] / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        summary = load_summary(sweep_out[1])
        point = summary["points"][0]
        col = [float(r["total_modulated"]) for r in rows
               if float(r["eps"]) == point["eps"]]
        # repr serialization loses nothing, so maxima recompute exactly
        assert max(col) == point["maxima"]["total_modulated"]

    def test_plotdata_files(self, sweep_out):
        names = sorted(p.name for p in (sweep_out[1] / "plotdata").iterdir())
        assert names == ["conserved_total.csv", "current_weak_error.csv",
                         "h_minus1_density_error.csv", "l1_entropy_error.csv",
                         "total_modulated.csv"]
        with open(sweep_out[1] / "plotdata" / "total_modulated.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["eps", "hbar", "time", "value"]
        assert len(rows) == 6

    def test_summary_schema(self, sweep_out):
        summary = load_summary(sweep_out[1])
        assert_schema_valid(summary)
        assert summary["sweep"]["complete"] is True
        assert summary["sweep"]["strictly_decreasing"] is True
        for point in summary["points"]:
            assert all(point["checks"].values())
            assert point["conserved_drift_max"] < 1e-6

    def test_gronwall_block(self, sweep_out):
        point = load_summary(sweep_out[1])["points"][0]
        assert set(point["gronwall"]) == {
            "sup_grad_u", "log_rho_h1", "dt_log_rho_h1",
            "log_rho_w1inf_h1", "sup_grad_advection"}
        assert all(v >= 0 for v in point["gronwall"].values())

    def test_euler_reference_block(self, sweep_out):
        # the default grid is the floor grid: the reference runs on it
        # unpadded, at the sweep's own step
        summary = load_summary(sweep_out[1])
        for point in summary["points"]:
            assert point["euler_reference"]["n"] == 256
            assert point["euler_reference"]["dt"] == summary["physics"]["dt"]
            assert 0.0 <= point["euler_reference"]["top_band_share"] <= 1.0

    def test_no_stray_temp_files(self, sweep_out):
        stray = [p for p in sweep_out[1].rglob("*") if p.name.startswith("tmp")]
        assert stray == []


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["quasineutral_sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["quasineutral_sweep", "--config", cfg, "--out", str(b)]) == 0
        rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in rels:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        serial, pooled = tmp_path / "s", tmp_path / "p"
        main(["quasineutral_sweep", "--config", cfg, "--out", str(serial)])
        main(["quasineutral_sweep", "--config", cfg, "--jobs", "2",
              "--out", str(pooled)])
        assert ((serial / "sweep.csv").read_bytes()
                == (pooled / "sweep.csv").read_bytes())
        assert ((serial / "summary.json").read_bytes()
                == (pooled / "summary.json").read_bytes())

    def test_padded_reference_reruns_and_pools_byte_identical(self, tmp_path):
        # at n = 512 the reference runs on 256 nodes and is zero-padded
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        runs = {name: tmp_path / name for name in ("a", "b", "p")}
        for name, out in runs.items():
            jobs = ["--jobs", "2"] if name == "p" else []
            assert main(["quasineutral_sweep", "--config", cfg, "--set", "grid.n=512",
                         *jobs, "--out", str(out)]) == 0
        # no probe: m = 5, the only divisor > 1, has m dt max_rate = 2.95 > 1
        assert ({(p["euler_reference"]["n"], p["euler_reference"]["dt"])
                 for p in load_summary(runs["a"])["points"]} == {(256, 1e-3)})
        rels = sorted(p.relative_to(runs["a"]) for p in runs["a"].rglob("*") if p.is_file())
        for out in (runs["b"], runs["p"]):
            assert rels == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
            for rel in rels:
                assert (runs["a"] / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_sweep_computes_one_euler_reference(self, tmp_path, monkeypatch):
        calls = []

        def counted(s0, big_t, dt, **kwargs):
            calls.append((s0.grid.n, dt))
            return run_euler(s0, big_t, dt, **kwargs)

        cfg = write_cfg(tmp_path, SWEEP_CFG)
        serial, pooled = tmp_path / "s", tmp_path / "p"
        monkeypatch.setattr(experiments, "run_euler", counted)
        assert main(["quasineutral_sweep", "--config", cfg, "--out", str(serial)]) == 0
        assert calls == [(256, 1e-3)]
        calls.clear()
        assert main(["quasineutral_sweep", "--config", cfg, "--jobs", "2",
                     "--out", str(pooled)]) == 0
        assert calls == [(256, 1e-3)]
        rels = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(pooled) for p in pooled.rglob("*") if p.is_file())
        for rel in rels:
            assert (serial / rel).read_bytes() == (pooled / rel).read_bytes(), rel

    def test_benchmark_point_reference_takes_60_rk4_steps(self, tmp_path, monkeypatch):
        # the perfbench sweep point at n = 2048 passes the band check on the
        # floor grid, and its probes at m = 10 and 5 choose m = 5: 20 + 40 RK4
        # steps on 256 nodes in place of 200 at dt
        grids = []

        def counted(s0, big_t, dt, **kwargs):
            grids.append((s0.grid.n, dt))
            return run_euler(s0, big_t, dt, **kwargs)

        monkeypatch.setattr(experiments, "run_euler", counted)
        out = tmp_path / "out"
        assert main(["quasineutral_sweep", "--config",
                     str(ROOT / "perfbench" / "configs" / "sweep_1d.cfg"), "--out", str(out)]) == 0
        assert grids == [(experiments.FLOOR_N[1], 1e-3), (experiments.FLOOR_N[1], 5e-4)]
        summary = load_summary(out)
        assert_schema_valid(summary)
        (point,) = summary["points"]
        assert point["euler_reference"]["n"] == experiments.FLOOR_N[1]
        assert point["euler_reference"]["dt"] == 5e-4
        assert point["euler_reference"]["top_band_share"] <= experiments.BAND_SHARE_BOUND


class TestExitCodes:
    def test_missing_config_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "absent.cfg")
        assert main(["pb_solve", "--config", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "ConfigError"
        assert record["path"] == path

    def test_invalid_value_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "physics.dt = -1\n")
        assert main(["euler_run", "--config", cfg]) == 2
        assert "positive" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("item", [
        "physics.T=nan", "physics.T=inf", "physics.dt=nan", "initial.rho0_amp=nan",
        "physics.eps=0.02,nan",
    ])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, item):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        code = main(["quasineutral_sweep", "--config", cfg, "--set", item,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "ConfigError"
        assert repr(item.partition("=")[0]) in record["message"]
        assert not (tmp_path / "out").exists()

    # a negative seed reaches numpy's generator; one configuration has no
    # standard error; no particle count reports no point; a third axis, a
    # negative T (the rule of the kinds without time evolution, pb_solve and
    # nbody_stats) and sample_every = 0 fail the range rules of build_config;
    # pb_solve always solves Poisson-Boltzmann, and a sweep compares against
    # isothermal Euler, the quasi-neutral limit of that closure only;
    # pb_solve and schrodinger_run run one (eps, hbar) pair
    @pytest.mark.parametrize("kind, overrides, env, named", [
        ("nbody_stats", ["--set", "seeds=-1"], None, "seeds"),
        ("nbody_stats", ["--set", "seeds=3,-2"], None, "seeds"),
        ("nbody_stats", [], "-3", "QNLAB_SEED"),
        ("nbody_stats", ["--set", "nbody.n_configs=1"], None, "nbody.n_configs"),
        ("nbody_stats", ["--set", "nbody.n_particles="], None, "nbody.n_particles"),
        ("nbody_stats", ["--set", "nbody.n_particles=8,64,8"], None, "nbody.n_particles"),
        ("nbody_stats", ["--set", "grid.dim=3"], None, "grid.dim"),
        ("nbody_stats", ["--set", "physics.T=-1"], None, "physics.T"),
        ("nbody_stats", ["--set", "runtime.sample_every=0"], None, "runtime.sample_every"),
        ("pb_solve", ["--set", "physics.mode=linear_poisson"], None, "physics.mode"),
        ("quasineutral_sweep", ["--set", "physics.mode=linear_poisson"], None, "physics.mode"),
        ("pb_solve", ["--set", "physics.eps=0.1,0.05"], None, "physics.eps"),
        ("schrodinger_run", ["--set", "physics.hbar=0.1,0.05"], None, "physics.hbar"),
    ], ids=["seed", "later_seed", "env_seed", "one_config", "no_particle_count",
            "repeated_particle_count", "dim", "negative_T", "zero_sample_every",
            "linear_pb_solve", "linear_sweep", "pb_solve_pairs", "schrodinger_run_pairs"])
    def test_unusable_nbody_config_exit_two(self, tmp_path, capsys, monkeypatch,
                                            kind, overrides, env, named):
        if env is None:
            monkeypatch.delenv("QNLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("QNLAB_SEED", env)
        cfg = write_cfg(tmp_path, "nbody.n_particles = 8\nnbody.n_configs = 10\n")
        out = tmp_path / "out"
        assert main([kind, "--config", cfg, *overrides, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "ConfigError"
        assert named in record["message"]
        assert not out.exists()

    def test_output_path_that_is_a_file_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = pb_solve\n")
        out = tmp_path / "taken"
        out.write_text("a file\n")
        assert main(["pb_solve", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err)
        assert record["type"] == "ConfigError"
        assert record["path"] == str(out)
        assert captured.out == ""
        assert out.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "taken"]

    def test_success_removes_a_previous_errors_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = pb_solve\n")
        out = tmp_path / "out"
        assert main(["pb_solve", "--config", cfg, "--set", "initial.rho0_amp=800",
                     "--out", str(out)]) == 1
        assert (out / "errors.json").exists()
        assert main(["pb_solve", "--config", cfg, "--out", str(out)]) == 0
        assert load_summary(out)["errors"] == []
        assert not (out / "errors.json").exists()

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = pb_solve\n")
        assert main(["euler_run", "--config", cfg]) == 2

    def test_solver_failure_exit_one(self, tmp_path, capsys):
        # amplitude 0.5 at eps = 0.1 loses positivity in the prepared density
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        code = main(["quasineutral_sweep", "--config", cfg,
                     "--set", "physics.eps=0.1,0.02",
                     "--set", "physics.hbar=0.1,0.02", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["type"] == "NotPositive"
        assert record["stage"] == "prepare"
        assert "step" not in record and "time" not in record
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        summary = load_summary(out)
        assert_schema_valid(summary)
        statuses = [p["status"] for p in summary["points"]]
        assert statuses == ["error", "ok"]
        assert summary["sweep"]["complete"] is False

    # exp(800 cos) overflows, so the initial density is not a finite field;
    # the finite check reports it once, in the record, and numpy stays silent
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["pb_solve", "schrodinger_run", "euler_run",
                                      "quasineutral_sweep"])
    def test_unbuildable_data_writes_error_record(self, tmp_path, capsys, kind):
        cfg = write_cfg(tmp_path, f"kind = {kind}\ninitial.rho0_amp = 800\n")
        out = tmp_path / "out"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "prepare"
        assert record["message"] == "field values must be finite"
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["errors"] == [record]

    def test_euler_blowup_writes_error_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = euler_run\ngrid.n = 256\n"
                        "initial.rho0_amp = 0.5\ninitial.u0_amp = 2\n"
                        "physics.T = 0.2\nphysics.dt = 1e-4\nruntime.sample_every = 200\n")
        out = tmp_path / "out"
        assert main(["euler_run", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "euler"
        assert record["type"] == "BlowupGuardTripped"
        assert record["message"].endswith("at t = 0.0767")
        assert abs(record["time"] - 0.0767) <= 1e-4
        assert record["step"] == 767
        assert record["value"] > 50
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert "euler" not in summary
        assert not (out / "plotdata").exists()

    @pytest.mark.parametrize("sample_every", [50, 100])
    def test_euler_mass_drift_leaves_the_guard_to_decide(self, tmp_path, capsys, sample_every):
        # on 64 nodes this flow's mass drifts past 1e-6 before the guard
        # trips; the run stops where the guard does at every sampling rate,
        # not at the first sample whose mass has drifted
        cfg = write_cfg(tmp_path, "kind = euler_run\ngrid.n = 64\n"
                        "initial.rho0_amp = 0.5\ninitial.u0_amp = 2\n"
                        f"physics.T = 0.2\nphysics.dt = 1e-4\nruntime.sample_every = {sample_every}\n")
        out = tmp_path / "out"
        assert main(["euler_run", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "euler"
        assert record["type"] == "BlowupGuardTripped"
        assert record["message"].endswith("at t = 0.0818")
        assert record["step"] == 818

    def test_euler_unstable_step_writes_error_record(self, tmp_path, capsys):
        # dt max_rate = 4.7 > 2 sqrt 2 from the first step; this run used to
        # report a blow-up at t = 0.0080
        cfg = write_cfg(tmp_path, "kind = euler_run\ngrid.n = 2048\n"
                        "initial.rho0_amp = 0.5\ninitial.u0_amp = 0.1\n"
                        "physics.T = 0.01\nphysics.dt = 1e-3\n")
        out = tmp_path / "out"
        assert main(["euler_run", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "euler"
        assert record["type"] == "StepTooLarge"
        assert record["message"].endswith("at t = 0.0000; shrink dt")
        assert record["time"] == 0.0
        assert record["step"] == 0
        assert 4.7 < record["value"] < 4.8
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        assert_schema_valid(load_summary(out))

    def test_failed_solve_writes_where_and_by_how_much(self, tmp_path, capsys, monkeypatch):
        # the fourth solve, at the midpoint of step 3, meets a Newton cap of
        # 0: the record carries the step's start time, the 2 steps completed
        # and the residual of the solve's warm start
        solves = []
        potential_values = schrodinger.potential_values

        def capped(*args, **kwargs):
            solves.append(None)
            if len(solves) == 4:
                monkeypatch.setattr(poisson_boltzmann, "NEWTON_CAP", 0)
            return potential_values(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "potential_values", capped)
        cfg = write_cfg(tmp_path, "kind = schrodinger_run\nphysics.T = 0.01\n"
                        "physics.dt = 1e-3\nphysics.eps = 0.02\nphysics.hbar = 0.02\n"
                        "initial.rho0_amp = 0.2\n")
        out = tmp_path / "out"
        assert main(["schrodinger_run", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "schrodinger"
        assert record["type"] == "PotentialSolveFailed"
        assert record["time"] == 2e-3
        assert record["step"] == 2
        assert record["value"] > poisson_boltzmann.NEWTON_RTOL
        assert record["message"].startswith(
            f"Newton cap 0 reached with residual {record['value']:.3e} (tol ")
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        assert_schema_valid(load_summary(out))

    def test_failed_pb_solve_writes_by_how_much(self, tmp_path, capsys, monkeypatch):
        # a Newton cap of 0 stops the solve at its start: the record carries
        # that start's residual, and no time or step, which a lone solve lacks
        monkeypatch.setattr(poisson_boltzmann, "NEWTON_CAP", 0)
        cfg = write_cfg(tmp_path, "kind = pb_solve\ninitial.rho0_amp = 0.3\n")
        out = tmp_path / "out"
        assert main(["pb_solve", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["stage"] == "pb_solve"
        assert record["type"] == "NewtonDiverged"
        assert record["value"] > poisson_boltzmann.NEWTON_RTOL
        assert record["message"].startswith(
            f"Newton cap 0 reached with residual {record['value']:.3e} (tol ")
        assert "time" not in record and "step" not in record
        with open(out / "errors.json") as fh:
            assert json.load(fh) == [record]
        assert_schema_valid(load_summary(out))

    def test_all_points_failing_leaves_header_only_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        code = main(["quasineutral_sweep", "--config", cfg,
                     "--set", "physics.eps=0.2,0.1",
                     "--set", "physics.hbar=0.2,0.1", "--out", str(out)])
        assert code == 1
        assert (out / "sweep.csv").read_text() == ",".join(SWEEP_FIELDS) + "\n"
        summary = load_summary(out)
        assert summary["sweep"]["sup_total_modulated"] == []
        assert_schema_valid(summary)


class TestOtherKinds:
    def test_pb_flat_source_is_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = pb_solve\ninitial.rho0_amp = 0\n")
        out = tmp_path / "out"
        assert main(["pb_solve", "--config", cfg, "--out", str(out)]) == 0
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["pb"]["newton_iterations"] == 0
        assert summary["pb"]["sup_v"] == 0.0
        with open(out / "plotdata" / "potential.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 256
        assert all(float(r["v"]) == 0.0 for r in rows)
        assert all(float(r["background"]) == 1.0 for r in rows)

    def test_pb_reports_newton_convergence(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "kind = pb_solve\ninitial.rho0_amp = 0.3\nphysics.eps = 0.05\n")
        out = tmp_path / "out"
        assert main(["pb_solve", "--config", cfg, "--out", str(out)]) == 0
        pb = load_summary(out)["pb"]
        assert 0 < pb["newton_iterations"] <= 15
        assert pb["cg_iterations"] >= pb["newton_iterations"]
        assert pb["cg_failures"] == 0
        assert pb["final_residual"] < 1e-10
        assert pb["checks"]["l2_boltzmann"] and pb["checks"]["boltzmann_mass"]
        assert abs(pb["background_mass"] - 1.0) < 1e-8

    def test_euler_run(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "kind = euler_run\nphysics.T = 0.05\nphysics.dt = 1e-3\n")
        out = tmp_path / "out"
        assert main(["euler_run", "--config", cfg, "--out", str(out)]) == 0
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["euler"]["mass_defect_max"] < 1e-10
        with open(out / "plotdata" / "euler.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["time"]) == 0.0
        assert float(rows[-1]["time"]) == pytest.approx(0.05)

    def test_euler_2d_reference_block(self, tmp_path):
        # perfbench's euler_2d data: the 32^2 floor resolves them, and the
        # states are zero-padded to 256^2
        out = tmp_path / "out"
        cfg = ROOT / "perfbench" / "configs" / "euler_2d.cfg"
        assert main(["euler_run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["euler_reference"]["n"] == 32
        assert summary["euler_reference"]["dt"] == summary["physics"]["dt"]
        assert summary["euler_reference"]["top_band_share"] <= experiments.BAND_SHARE_BOUND
        assert summary["grid"] == {"dim": 2, "n": 256}

    def test_schrodinger_run(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = schrodinger_run\n"
                        "physics.T = 0.02\nphysics.dt = 1e-3\n"
                        "physics.eps = 0.02\nphysics.hbar = 0.02\n"
                        "initial.rho0_amp = 0.2\n")
        out = tmp_path / "out"
        assert main(["schrodinger_run", "--config", cfg, "--out", str(out)]) == 0
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["schrodinger"]["conserved_drift_max"] < 1e-6
        assert summary["schrodinger"]["mass_defect_max"] < 1e-12

    def test_nbody_stats(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = nbody_stats\n"
                        "nbody.n_particles = 8, 32\nnbody.n_configs = 50\n"
                        "seeds = 1\n")
        out = tmp_path / "out"
        assert main(["nbody_stats", "--config", cfg, "--out", str(out)]) == 0
        summary = load_summary(out)
        assert_schema_valid(summary)
        assert summary["nbody"]["energy_within_3se"] is True
        assert summary["nbody"]["w1sq_decay_exponent"] > 0.8

    def test_nbody_seed_changes_stats(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = nbody_stats\n"
                        "nbody.n_particles = 8\nnbody.n_configs = 20\n")
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["nbody_stats", "--config", cfg, "--set", f"seeds={seed}",
                  "--out", str(out)])
            outs.append(load_summary(out)["nbody"]["points"][0]["mean_energy"])
        assert outs[0] != outs[1]


class TestEnvSeed:
    def test_qnlab_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNLAB_SEED", "17")
        cfg = write_cfg(tmp_path, "kind = nbody_stats\n"
                        "nbody.n_particles = 8\nnbody.n_configs = 10\n")
        out = tmp_path / "out"
        assert main(["nbody_stats", "--config", cfg, "--out", str(out)]) == 0
        assert load_summary(out)["seeds"] == [17]


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "sweep.csv"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(reports.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        reports.write_text_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_emitted_files_take_the_mode_of_a_plain_open(tmp_path, umask):
    # summary.json, sweep.csv, every plotdata CSV and errors.json (the first
    # point fails at prepare) get 0o666 less the umask, as open() gives
    cfg = write_cfg(tmp_path, "kind = quasineutral_sweep\ngrid.n = 64\nphysics.T = 0.002\n"
                    "physics.dt = 1e-3\nphysics.eps = 0.1, 0.02\nphysics.hbar = 0.1, 0.02\n"
                    "initial.rho0_amp = 0.5\n")
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["quasineutral_sweep", "--config", cfg, "--out", str(out)]) == 1
    finally:
        os.umask(old)
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert {"summary.json", "errors.json", "sweep.csv", "plotdata/total_modulated.csv"} <= \
        set(files)
    for rel in files:
        assert stat.S_IMODE((out / rel).stat().st_mode) == 0o666 & ~umask, rel


def test_console_script_installed(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = pb_solve\ninitial.rho0_amp = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qnlab.cli", "pb_solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert str(tmp_path / "out") in proc.stdout


def test_cli_import_leaves_scipy_out():
    # numpy 2 loads numpy.random lazily; the package loads it at import, so
    # no run pays for it inside its own timing
    code = ("import sys, qnlab.cli; "
            "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["False", "True"]
