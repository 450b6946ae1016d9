"""The sweep's Schrödinger run: integrated on the coarsest grid n_s from
FLOOR_N up whose sampled psi and V hold at most SCHRODINGER_BAND_SHARE_BOUND
of their L2 norm in the top dealiased band; on the sweep's grid n where no
coarser grid does. A sweep point evaluates its rows after t = 0 on
n_d = max(n_s, n_e), n_e the Euler reference's grid: a run on n_s < n_d has
its psi zero-padded to n_d and its potentials re-solved there. The t = 0 row
is the n-grid prepared state's, and the L1 term is taken on n."""
import csv
import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qnlab import experiments, schrodinger, spectral
from qnlab.cli import main
from qnlab.config import build_config, sample_steps
from qnlab.errors import StepTooLarge
from qnlab.grid import ComplexField, TorusGrid
from qnlab.schrodinger import WaveFunction, check_kinetic_phase, density, run

ROOT = Path(__file__).resolve().parent.parent
BENCH_CFG = ROOT / "perfbench" / "configs" / "sweep_1d.cfg"
# the perfbench sweep point, and how far its outputs may move from the
# n-grid run's: the pins' relative tolerance for the maxima, and for every
# sweep.csv cell SWEEP_CELL_REL (the largest move measured on the perfbench
# point, the AC-1 ladder, the AC-2 half-step run and steep data was 1.0e-11)
BENCH = dataclasses.replace(
    build_config({}, "quasineutral_sweep"), grid_dim=1, grid_n=2048, big_t=0.02, dt=1e-4,
    sample_every=20, mode="poisson_boltzmann", rho0_amp=0.5, u0_amp=0.1)
PIN_REL, PIN_FLOOR = 1e-9, 1e-12
SWEEP_CELL_REL = 1e-10
# steep data: the Schrodinger run needs 512 nodes and the Euler reference n
STEEP = dataclasses.replace(BENCH, grid_n=1024, big_t=0.2, dt=4e-4, sample_every=50, u0_amp=0.5)


@pytest.fixture
def runs(monkeypatch):
    """Grid size of every schrodinger.run call the experiments module makes."""
    calls = []

    def recorded(w0, *args, **kwargs):
        calls.append(w0.psi.grid.n)
        return run(w0, *args, **kwargs)

    monkeypatch.setattr(experiments, "run", recorded)
    return calls


def prepared(cfg, eps, hbar, n=None):
    return experiments._wave(cfg, TorusGrid(1, n or cfg.grid_n), eps, hbar)


def on_the_n_grid(monkeypatch):
    """Reject every coarser grid: the sweep point of the n-grid run."""
    monkeypatch.setattr(experiments, "SCHRODINGER_BAND_SHARE_BOUND", -1.0)


def test_benchmark_point_runs_on_256_nodes(runs, tmp_path):
    out = tmp_path / "out"
    assert main(["quasineutral_sweep", "--config", str(BENCH_CFG), "--out", str(out)]) == 0
    assert runs == [experiments.FLOOR_N[1]]
    summary = json.loads((out / "summary.json").read_text())
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(summary, json.loads((ROOT / "docs" / "summary_schema.json").read_text()))
    (point,) = summary["points"]
    assert point["schrodinger_grid"]["n"] == experiments.FLOOR_N[1]
    assert 0.0 < point["schrodinger_grid"]["top_band_share"] <= \
        experiments.SCHRODINGER_BAND_SHARE_BOUND
    # every row is on the n grid's sample times
    with open(out / "sweep.csv") as fh:
        times = [float(r["time"]) for r in csv.DictReader(fh)]
    assert times == pytest.approx([k * 0.002 for k in range(11)])


def test_benchmark_point_agrees_with_the_n_grid_run(monkeypatch):
    reference = experiments._sweep_reference(BENCH)
    coarse = experiments._sweep_point(BENCH, reference, 0.025, 0.025)
    on_the_n_grid(monkeypatch)
    fine = experiments._sweep_point(BENCH, reference, 0.025, 0.025)
    assert coarse["schrodinger_grid"]["n"] == 256
    assert fine["schrodinger_grid"]["n"] == 2048
    for key, want in fine["maxima"].items():
        assert abs(coarse["maxima"][key] - want) <= max(PIN_REL * abs(want), PIN_FLOOR), key
    # the t = 0 row is the n grid's own sample, bit for bit
    assert coarse["rows"][0] == fine["rows"][0]
    for got, want in zip(coarse["rows"], fine["rows"], strict=True):
        for key in want:
            assert abs(got[key] - want[key]) <= SWEEP_CELL_REL * abs(want[key]), (key, got["time"])
    # checks, Gronwall constants and the Euler reference are unchanged
    moved = ("rows", "maxima", "conserved_drift_max", "schrodinger_grid")
    assert ({k: v for k, v in coarse.items() if k not in moved}
            == {k: v for k, v in fine.items() if k not in moved})
    assert all(coarse["checks"].values())


def test_benchmark_point_solves_one_potential_on_n(monkeypatch):
    # both runs resolve the point on 256 nodes, so its rows after t = 0 are
    # evaluated there: the only potential solved on n is the prepared
    # state's, at t = 0 (11 when each later sample was re-solved on n)
    solved = []
    computed = schrodinger.potential_values

    def recorded(rho, eps, grid, *args, **kwargs):
        solved.append((grid.n, kwargs["time"]))
        return computed(rho, eps, grid, *args, **kwargs)

    monkeypatch.setattr(schrodinger, "potential_values", recorded)
    point = experiments._sweep_point(BENCH, experiments._sweep_reference(BENCH), 0.025, 0.025)
    assert point["status"] == "ok"
    assert [t for n, t in solved if n == BENCH.grid_n] == [0.0]
    # the 256-node run: its t = 0 solve, 200 step solves and 10 sample solves
    assert Counter(n for n, _ in solved) == {256: 211, BENCH.grid_n: 1}


def on_n(computed, report_n=False):
    """_schrodinger_samples with every later sample brought to n: psi
    zero-padded, its potential re-solved on n from the padded hat; the
    reported grid is n if report_n, else the run's n_s."""
    def samples_on_n(cfg, w0):
        samples, resolution = computed(cfg, w0)
        grid = w0.psi.grid
        steps = sample_steps(cfg.big_t, cfg.dt, cfg.sample_every)
        padded = samples[:1]
        for (w, split), step in zip(samples[1:], steps[1:], strict=True):
            psi = spectral.resample(w.psi.values, grid.shape)
            w = WaveFunction(ComplexField(grid, psi), w.hbar, w.eps, w.time)
            hat0 = spectral.resample(split.hat.values, grid.shape)
            padded.append((w, schrodinger.solve_potential(density(w), w.eps, cfg.mode, hat0,
                                                          time=w.time, step=step)))
        return padded, {**resolution, "n": grid.n} if report_n else resolution
    return samples_on_n


def test_steep_point_with_the_euler_reference_on_n_is_evaluated_on_n(monkeypatch):
    # n_s = 512 < n_e = n = 1024: n_d = n, so the point is its evaluation on n,
    # every later Schrodinger sample zero-padded and re-solved there, bit for bit
    reference = experiments._sweep_reference(STEEP)
    got = experiments._sweep_point(STEEP, reference, 0.01, 0.01)
    assert (got["schrodinger_grid"]["n"], got["euler_reference"]["n"]) == (512, 1024)
    monkeypatch.setattr(experiments, "_schrodinger_samples",
                        on_n(experiments._schrodinger_samples))
    assert got == experiments._sweep_point(STEEP, reference, 0.01, 0.01)


def test_euler_reference_is_padded_to_a_finer_schrodinger_grid(monkeypatch):
    # hbar = 5e-4: n_e = 256 < n_s = 512 < n = 1024, so the later rows are
    # evaluated on 512 nodes, the Euler samples zero-padded there. Each cell
    # stays within SWEEP_CELL_REL of the evaluation on n, or within roundoff
    # of a sum of O(1) terms (the relative entropy, about 1e-8, moves by
    # 1.6e-18); the t = 0 row is that evaluation's, bit for bit
    cfg = dataclasses.replace(BENCH, grid_n=1024, big_t=0.002, dt=1e-4, sample_every=10)
    reference = experiments._sweep_reference(cfg)
    got = experiments._sweep_point(cfg, reference, 0.01, 5e-4)
    assert (got["schrodinger_grid"]["n"], got["euler_reference"]["n"]) == (512, 256)
    monkeypatch.setattr(experiments, "_schrodinger_samples",
                        on_n(experiments._schrodinger_samples, report_n=True))
    want = experiments._sweep_point(cfg, reference, 0.01, 5e-4)
    assert got["rows"][0] == want["rows"][0]
    for g, w in zip(got["rows"], want["rows"], strict=True):
        for key in w:
            assert abs(g[key] - w[key]) <= max(SWEEP_CELL_REL * abs(w[key]), 1e-16), key
    assert got["checks"] == want["checks"]


def test_steep_data_double_once(runs):
    # eps = hbar = 0.01 and u0_amp = 0.5: by T = 0.2 the 256-node run holds
    # 2.4e-9 of psi in its top band, the 512-node run 2e-13
    cfg = STEEP
    w0 = prepared(cfg, 0.01, 0.01)
    samples, resolution = experiments._schrodinger_samples(cfg, w0)
    assert runs == [256, 512]
    assert resolution["n"] == 512
    assert resolution["top_band_share"] <= experiments.SCHRODINGER_BAND_SHARE_BOUND
    assert samples[0][0] is w0
    assert samples[0][1].potential.grid.n == 1024
    # the later samples are the 512-node run's own; zero-padded to n they sit
    # within 1e-10 of the n-grid run's psi (9.6e-12 measured)
    ref = run(w0, cfg.big_t, cfg.dt, sample_every=cfg.sample_every)
    for (w, split), (w_ref, _) in zip(samples[1:], ref[1:], strict=True):
        assert w.time == w_ref.time
        assert w.psi.grid.n == split.potential.grid.n == 512
        padded = spectral.resample(w.psi.values, w_ref.psi.grid.shape)
        assert np.max(np.abs(padded - w_ref.psi.values)) <= 1e-10


def test_unresolved_prepared_state_is_never_integrated_there(runs):
    # hbar = 5e-4 puts about 3e-4 of the prepared psi's L2 norm in the top
    # band of 256 nodes: that grid is left before any step, and 512 nodes,
    # where the share is 2e-13, carry the run
    cfg = dataclasses.replace(BENCH, grid_n=1024, big_t=0.002, dt=1e-4, sample_every=10)
    coarse = prepared(cfg, 0.01, 5e-4, n=256)
    assert experiments._top_band_share([coarse.psi.values]) > \
        experiments.SCHRODINGER_BAND_SHARE_BOUND
    samples, resolution = experiments._schrodinger_samples(cfg, prepared(cfg, 0.01, 5e-4))
    assert runs == [512]
    assert resolution["n"] == 512


def test_grid_rule_keeps_a_2d_state_in_2d(runs):
    # the coarse grids the rule tries have the state's dimension: from a
    # 128^2 start, the prepared state on 32^2 is left before any step, the
    # run is on 64^2, and every later sample lies there
    cfg = dataclasses.replace(
        build_config({}, "schrodinger_run"), grid_dim=2, grid_n=128, eps=(0.02,), hbar=(0.02,),
        big_t=0.002, dt=1e-4, sample_every=10, rho0_amp=0.05, u0_amp=0.0)
    w0 = experiments._wave(cfg, TorusGrid(2, 128), 0.02, 0.02)
    samples, resolution = experiments._schrodinger_samples(cfg, w0)
    assert runs == [64]
    assert resolution["n"] == 64
    assert samples[0][0] is w0
    assert len(samples) == 3
    for w, split in samples[1:]:
        assert w.psi.grid == split.potential.grid == TorusGrid(2, 64)


def test_n_grid_kinetic_phase_cap_holds_before_any_coarse_run(runs):
    # at dt = 1e-3 a step on 2048 nodes exceeds the kinetic-phase cap and a
    # step on 256 nodes does not: the point fails as the n-grid run does,
    # and nothing is integrated on any grid
    cfg = dataclasses.replace(BENCH, dt=1e-3)
    check_kinetic_phase(prepared(cfg, 0.025, 0.025, n=256), cfg.dt)
    # the sweep's own reference fails at this dt too (dt max_rate = 4.7 on
    # 2048 nodes), and a point raises a failed reference first
    got = experiments._sweep_point(cfg, experiments._sweep_reference(cfg), 0.025, 0.025)
    assert runs == []
    assert (got["error"]["stage"], got["error"]["type"]) == ("euler", "StepTooLarge")
    assert got["error"]["message"].startswith("RK4 step dt * lambda = 4.718")
    # past a reference that stands, the cap decides
    standing = experiments._sweep_reference(dataclasses.replace(cfg, dt=1e-4))
    got = experiments._sweep_point(cfg, standing, 0.025, 0.025)
    assert runs == []
    with pytest.raises(StepTooLarge) as fine:
        run(prepared(cfg, 0.025, 0.025), cfg.big_t, cfg.dt, sample_every=cfg.sample_every)
    phase = 0.025 * (np.pi * 2048) ** 2 * cfg.dt / 2.0
    assert fine.value.value == pytest.approx(phase, rel=1e-15)
    assert got["error"] == {"stage": "schrodinger", "type": "StepTooLarge",
                            "message": str(fine.value), "time": 0.0,
                            "value": fine.value.value, "step": 0, "eps": 0.025, "hbar": 0.025}


@pytest.mark.parametrize("n_trips", [False, True], ids=["n-grid-runs", "n-grid-trips"])
def test_coarse_guard_trip_hands_over_to_the_n_grid(runs, monkeypatch, n_trips):
    # every run below n trips a guard; the point is then the n grid's: its
    # samples, or its own trip's error record
    cfg = dataclasses.replace(BENCH, grid_n=512)
    recorded = experiments.run

    def coarse_trips(w0, *args, **kwargs):
        samples = recorded(w0, *args, **kwargs)
        if w0.psi.grid.n < cfg.grid_n:
            raise StepTooLarge("coarse trip", time=0.01, value=1.0)
        if n_trips:
            raise StepTooLarge("n-grid trip", time=0.015, value=2.0)
        return samples

    monkeypatch.setattr(experiments, "run", coarse_trips)
    reference = experiments._sweep_reference(cfg)
    got = experiments._sweep_point(cfg, reference, 0.025, 0.025)
    assert runs == [256, 512]
    if n_trips:
        assert got["error"] == {"stage": "schrodinger", "type": "StepTooLarge",
                                "message": "n-grid trip", "time": 0.015, "value": 2.0,
                                "eps": 0.025, "hbar": 0.025}
    on_the_n_grid(monkeypatch)
    assert got == experiments._sweep_point(cfg, reference, 0.025, 0.025)


@pytest.mark.parametrize("overrides", [
    dict(grid_n=256, big_t=0.002, sample_every=10),                       # perfbench smoke
    dict(grid_n=256, big_t=0.01, dt=1e-3, sample_every=5),                # test_cli SWEEP_CFG
    dict(grid_n=64, big_t=0.01, dt=1e-3, sample_every=5),
], ids=["smoke", "sweep-cfg", "n64"])
def test_grids_up_to_the_floor_take_the_n_grid_run(runs, overrides):
    cfg = dataclasses.replace(BENCH, **overrides)
    w0 = prepared(cfg, 0.02, 0.02)
    samples, resolution = experiments._schrodinger_samples(cfg, w0)
    assert runs == [cfg.grid_n]
    assert resolution["n"] == cfg.grid_n
    ref = run(w0, cfg.big_t, cfg.dt, sample_every=cfg.sample_every)
    for (w, split), (w_ref, split_ref) in zip(samples, ref, strict=True):
        assert w.time == w_ref.time
        assert np.array_equal(w.psi.values, w_ref.psi.values)
        assert np.array_equal(split.potential.values, split_ref.potential.values)
