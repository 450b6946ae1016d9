"""The sweep's Euler reference: integrated on the coarsest grid that resolves
the flow to BAND_SHARE_BOUND, from FLOOR_N up, at the coarsest multiple
of dt whose estimated RK4 error is at most TIME_ERROR_BOUND, and zero-padded to
the Schrödinger grid; on the Schrödinger grid at dt where no coarser grid does."""
import json

import numpy as np
import pytest

from qnlab import experiments, spectral
from qnlab.cli import main
from qnlab.errors import BlowupGuardTripped, StepTooLarge
from qnlab.euler import EulerState, euler_constants, run_euler
from qnlab.grid import RealField, TorusGrid, integrate

# AC-1 data: (n, rho0_amp, u0_amp, T, dt, sample_every)
AC1 = (2048, 0.5, 0.1, 0.2, 1e-4, 200)


def cos_run(n, rho0_amp, u0_amp, big_t, dt, sample_every):
    """The standard data's samples on the 1-D n grid at step dt."""
    return run_euler(experiments._cos_euler_data(1, n, rho0_amp, u0_amp), big_t, dt,
                     sample_every=sample_every)


@pytest.fixture
def grids(monkeypatch):
    """(grid size, step) of every run_euler call the experiments module makes."""
    calls = []

    def recorded(s0, big_t, dt, **kwargs):
        calls.append((s0.grid.n, dt))
        return run_euler(s0, big_t, dt, **kwargs)

    monkeypatch.setattr(experiments, "run_euler", recorded)
    return calls


def max_state_error(samples, ref) -> float:
    assert [s.time for s in samples] == [r.time for r in ref]
    return max(float(np.max(np.abs(a.values - b.values)))
               for s, r in zip(samples, ref)
               for a, b in zip((s.log_rho, *s.u), (r.log_rho, *r.u)))


def test_coarse_reference_matches_the_n_grid_on_ac1_data(grids):
    samples, gronwall, resolution = experiments._euler_reference(*AC1)
    # probes m = 10 and 8 (the largest divisors of 200 with m dt lambda <= 1)
    # estimate C; m = 2 is the largest with C m^4 <= 1e-12: 1450 RK4 steps
    assert grids == [(256, 1e-3), (256, 8e-4), (256, 2e-4)]
    assert resolution["n"] == 256
    assert resolution["dt"] == 2e-4
    assert resolution["top_band_share"] <= experiments.BAND_SHARE_BOUND
    assert all(s.grid.n == 2048 for s in samples)
    ref = cos_run(*AC1)
    assert max_state_error(samples, ref) <= 1e-12
    assert gronwall == euler_constants(samples)


def test_benchmark_point_steps_at_the_probe(grids):
    # the perfbench sweep point: probes m = 10 and 5, and m = 5 meets the
    # bound, so its run is the reference: 20 + 40 RK4 steps instead of 200
    args = (2048, 0.5, 0.1, 0.02, 1e-4, 20)
    samples, _, resolution = experiments._euler_reference(*args)
    assert grids == [(256, 1e-3), (256, 5e-4)]
    assert (resolution["n"], resolution["dt"]) == (256, 5e-4)
    assert max_state_error(samples, cos_run(*args)) <= experiments.TIME_ERROR_BOUND


def test_unresolved_floor_doubles_once(grids):
    # close enough to the shock that 256 nodes leave the top band at 1e-9;
    # the rule runs again on 512 nodes, where m = 2 is its only probe
    args = (1024, 0.5, 1.0, 0.1, 1e-4, 250)
    samples, _, resolution = experiments._euler_reference(*args)
    assert grids == [(256, 5e-4), (256, 2e-4), (256, 1e-4), (512, 1e-4)]
    assert (resolution["n"], resolution["dt"]) == (512, 1e-4)
    assert max_state_error(samples, cos_run(*args)) <= 1e-12


@pytest.mark.parametrize("args, calls", [
    ((64, 0.5, 0.1, 0.02, 1e-3, 5), [(64, 1e-3)]),     # the floor is the grid itself
    # no grid below 512 resolves the steepened flow
    ((512, 0.5, 1.0, 0.14, 2e-4, 350), [(256, 2e-4), (512, 2e-4)]),
], ids=["1d-n64", "steep-n512"])
def test_fallback_is_the_n_grid_reference_bit_for_bit(grids, args, calls):
    samples, gronwall, resolution = experiments._euler_reference(*args)
    assert grids == calls
    assert (resolution["n"], resolution["dt"]) == args[0:1] + args[4:5]
    ref = cos_run(*args)
    assert max_state_error(samples, ref) == 0.0
    assert gronwall == euler_constants(ref)


def test_failed_model_check_falls_back_to_dt_bit_for_bit(grids, monkeypatch):
    # probes m = 10 and 5 choose m = 2; a chosen run that sits 1e-9 off the
    # C h^4 model fails the check, and the reference is the floor grid at dt
    args = (512, 0.5, 0.5, 0.02, 1e-4, 100)
    recorded = experiments.run_euler

    def off_model(s0, big_t, dt, **kwargs):
        samples = recorded(s0, big_t, dt, **kwargs)
        if dt != 2e-4:
            return samples
        return [EulerState(s.log_rho, [RealField(c.grid, c.values * (1.0 + 1e-9)) for c in s.u],
                           s.time) for s in samples]

    monkeypatch.setattr(experiments, "run_euler", off_model)
    samples, _, resolution = experiments._euler_reference(*args)
    assert grids == [(256, 1e-3), (256, 5e-4), (256, 2e-4), (256, 1e-4)]
    assert (resolution["n"], resolution["dt"]) == (256, 1e-4)
    grid = TorusGrid(1, 512)

    def pad(f):
        return RealField(grid, spectral.resample(f.values, grid.shape))

    floor = [EulerState(pad(s.log_rho), [pad(c) for c in s.u], s.time)
             for s in cos_run(256, *args[1:])]
    assert max_state_error(samples, floor) == 0.0


def test_guard_trip_on_a_coarse_grid_is_decided_on_the_n_grid(grids):
    # the steepening flow trips the guard at t = 0.0767 on 256 nodes and at
    # t = 0.0766 on 1024; the first probe (m = 5) trips it, and the error
    # reports the (n, dt) run's trip, as without the floor and the probes
    args = (1024, 0.5, 2.0, 0.2, 1e-4, 200)
    with pytest.raises(BlowupGuardTripped) as fine:
        cos_run(*args)
    grids.clear()
    with pytest.raises(BlowupGuardTripped) as caught:
        experiments._euler_reference(*args)
    assert grids == [(256, 5e-4), (1024, 1e-4)]
    assert str(caught.value) == str(fine.value)
    assert (caught.value.time, caught.value.value) == (fine.value.time, fine.value.value)
    assert caught.value.step == fine.value.step == 766


def test_unstable_step_on_the_floor_hands_over_to_the_n_grid(grids):
    # dt max_rate = 2.95 on 256 nodes leaves no probe, and the dt run is past
    # RK4's bound; the error is the (n, dt) run's, with its larger rate
    args = (2048, 0.5, 0.1, 0.05, 5e-3, 5)
    with pytest.raises(StepTooLarge) as fine:
        cos_run(*args)
    grids.clear()
    with pytest.raises(StepTooLarge) as caught:
        experiments._euler_reference(*args)
    assert grids == [(256, 5e-3), (2048, 5e-3)]
    assert str(caught.value) == str(fine.value)
    assert caught.value.value == fine.value.value > 20


def test_euler_run_kind_integrates_on_the_grid_it_was_given(grids, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = euler_run\ngrid.n = 2048\nphysics.T = 0.01\nphysics.dt = 1e-4\n"
                   "initial.rho0_amp = 0.5\ninitial.u0_amp = 0.1\nruntime.sample_every = 20\n")
    out = tmp_path / "out"
    assert main(["euler_run", "--config", str(cfg), "--out", str(out)]) == 0
    assert grids == [(2048, 1e-4)]
    ref = cos_run(2048, 0.5, 0.1, 0.01, 1e-4, 20)
    want = {**euler_constants(ref),
            "mass_defect_max": max(abs(float(integrate(s.rho())) - 1.0) for s in ref)}
    assert json.loads((out / "summary.json").read_text())["euler"] == want


def test_failed_reference_is_computed_once_per_sweep(grids, tmp_path):
    # the steepening flow trips the guard after 86 steps; the sweep computes
    # its reference once, before any point, so the three points share one
    # run_euler call and one error, serially and on a pool
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = quasineutral_sweep\ngrid.n = 256\nphysics.T = 0.2\n"
                   "physics.dt = 1e-3\nphysics.eps = 0.1, 0.05, 0.025\n"
                   "physics.hbar = 0.1, 0.05, 0.025\ninitial.u0_amp = 2\n")
    out = tmp_path / "out"
    assert main(["quasineutral_sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert grids == [(256, 1e-3)]
    records = json.loads((out / "errors.json").read_text())
    assert [(r["eps"], r["hbar"]) for r in records] == [(0.1, 0.1), (0.05, 0.05), (0.025, 0.025)]
    first = {k: v for k, v in records[0].items() if k not in ("eps", "hbar")}
    assert first["stage"] == "euler"
    assert first["type"] == "BlowupGuardTripped"
    assert first["message"].endswith("at t = 0.0860")
    assert first["step"] == 86
    for record in records[1:]:
        assert {k: v for k, v in record.items() if k not in ("eps", "hbar")} == first
    pooled = tmp_path / "pooled"
    assert main(["quasineutral_sweep", "--config", str(cfg), "--jobs", "2",
                 "--out", str(pooled)]) == 1
    assert grids == [(256, 1e-3)] * 2
    for name in ("errors.json", "summary.json"):
        assert (pooled / name).read_bytes() == (out / name).read_bytes(), name
