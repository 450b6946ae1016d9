"""The sweep's Euler reference: integrated on the coarsest grid that resolves
the flow to BAND_SHARE_BOUND, from EULER_FLOOR_N up, and zero-padded to the
Schrödinger grid; on the Schrödinger grid itself where no coarser grid does."""
import json

import numpy as np
import pytest

from qnlab import experiments
from qnlab.cli import main
from qnlab.errors import BlowupGuardTripped
from qnlab.euler import euler_constants, run_euler
from qnlab.grid import integrate

# AC-1 data: (dim, n, rho0_amp, u0_amp, T, dt, sample_every)
AC1 = (1, 2048, 0.5, 0.1, 0.2, 1e-4, 200)


@pytest.fixture
def grids(monkeypatch):
    """The grid size of every run_euler call the experiments module makes,
    from a fresh reference cache."""
    sizes = []

    def recorded(s0, *args, **kwargs):
        sizes.append(s0.grid.n)
        return run_euler(s0, *args, **kwargs)

    experiments._euler_reference.cache_clear()
    monkeypatch.setattr(experiments, "run_euler", recorded)
    yield sizes
    experiments._euler_reference.cache_clear()


def max_state_error(samples, ref) -> float:
    assert [s.time for s in samples] == [r.time for r in ref]
    return max(float(np.max(np.abs(a.values - b.values)))
               for s, r in zip(samples, ref)
               for a, b in zip((s.log_rho, *s.u), (r.log_rho, *r.u)))


def test_coarse_reference_matches_the_n_grid_on_ac1_data(grids):
    samples, gronwall, resolution = experiments._euler_reference(*AC1)
    assert grids == [256]
    assert resolution["n"] == 256
    assert resolution["top_band_share"] <= experiments.BAND_SHARE_BOUND
    assert all(s.grid.n == 2048 for s in samples)
    ref = experiments._cos_euler_run(*AC1)
    assert max_state_error(samples, ref) <= 1e-12
    assert gronwall == euler_constants(samples)


def test_unresolved_floor_doubles_once(grids):
    # close enough to the shock that 256 nodes leave the top band at 1e-9
    args = (1, 1024, 0.5, 1.0, 0.1, 1e-4, 250)
    samples, _, resolution = experiments._euler_reference(*args)
    assert grids == [256, 512]
    assert resolution["n"] == 512
    assert max_state_error(samples, experiments._cos_euler_run(*args)) <= 1e-12


@pytest.mark.parametrize("args", [
    (1, 64, 0.5, 0.1, 0.02, 1e-3, 5),         # the floor is the grid itself
    (2, 64, 0.5, 0.1, 0.01, 1e-3, 5),
    (1, 512, 0.5, 1.0, 0.14, 2e-4, 350),      # no grid below 512 resolves the steepened flow
], ids=["1d-n64", "2d-n64", "steep-n512"])
def test_fallback_is_the_n_grid_reference_bit_for_bit(grids, args):
    samples, gronwall, resolution = experiments._euler_reference(*args)
    assert grids[-1] == resolution["n"] == args[1]
    ref = experiments._cos_euler_run(*args)
    assert max_state_error(samples, ref) == 0.0
    assert gronwall == euler_constants(ref)


def test_guard_trip_on_a_coarse_grid_is_decided_on_the_n_grid(grids):
    # the steepening flow trips the guard at t = 0.0767 on 256 nodes and at
    # t = 0.0766 on 1024: the error reports the latter, as without the floor
    args = (1, 1024, 0.5, 2.0, 0.2, 1e-4, 200)
    with pytest.raises(BlowupGuardTripped) as fine:
        experiments._cos_euler_run(*args)
    grids.clear()
    with pytest.raises(BlowupGuardTripped) as caught:
        experiments._euler_reference(*args)
    assert grids == [256, 1024]
    assert str(caught.value) == str(fine.value)


def test_euler_run_kind_integrates_on_the_grid_it_was_given(grids, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = euler_run\ngrid.n = 2048\nphysics.T = 0.01\nphysics.dt = 1e-4\n"
                   "initial.rho0_amp = 0.5\ninitial.u0_amp = 0.1\nruntime.sample_every = 20\n")
    out = tmp_path / "out"
    assert main(["euler_run", "--config", str(cfg), "--out", str(out)]) == 0
    assert grids == [2048]
    ref = experiments._cos_euler_run(1, 2048, 0.5, 0.1, 0.01, 1e-4, 20)
    want = {**euler_constants(ref),
            "mass_defect_max": max(abs(float(integrate(s.rho())) - 1.0) for s in ref)}
    assert json.loads((out / "summary.json").read_text())["euler"] == want
