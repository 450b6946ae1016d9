"""Tests for the split-step Schrodinger integrator."""
import dataclasses

import numpy as np
import pytest
from conftest import full_k_squared

from qnlab import schrodinger
from qnlab.config import sample_steps
from qnlab.energy import conserved_energy, field_energy, modulated_total
from qnlab.errors import StepTooLarge
from qnlab.euler import EulerState
from qnlab.experiments import _prepared_state
from qnlab.grid import ComplexField, RealField, TorusGrid, integrate
from qnlab.schrodinger import (
    WaveFunction,
    current,
    density,
    run,
    solve_potential,
    step_strang,
)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 256)


@pytest.fixture(scope="module")
def prepared(grid):
    """Well-prepared-style state at eps = 0.05, hbar = 0.1."""
    eps, hbar = 0.05, 0.1
    x = grid.axis_points()
    v0 = 0.1 * np.cos(2 * np.pi * x)
    lap = np.fft.ifft(np.fft.fft(v0) * (-full_k_squared(grid))).real
    rho = np.exp(v0) - eps * lap
    rho /= rho.mean()
    u0 = 0.2 * np.sin(2 * np.pi * x) / (2 * np.pi)
    psi = np.sqrt(rho) * np.exp(1j * u0 / hbar)
    return WaveFunction(ComplexField(grid, psi), hbar, eps)


@pytest.fixture(scope="module")
def prepared_run(prepared):
    return {
        "coarse": run(prepared, 0.2, 1e-3, sample_every=20),
        "fine": run(prepared, 0.2, 5e-4, sample_every=40),
    }


def plane_wave(grid, hbar=0.5, eps=0.1):
    x = grid.axis_points()
    return WaveFunction(ComplexField(grid, np.exp(2j * np.pi * x)), hbar, eps)


# ---------------------------------------------------------------------------
# closed-form solutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["poisson_boltzmann", "linear_poisson"])
def test_plane_wave_single_step(grid, mode):
    w = plane_wave(grid)
    dt = 1e-3
    out = step_strang(w, dt, mode)
    x = grid.axis_points()
    exact = np.exp(2j * np.pi * x - 0.5j * w.hbar * (2 * np.pi) ** 2 * dt)
    assert np.max(np.abs(out.psi.values - exact)) <= 1e-12


def test_plane_wave_long_run_phase(grid):
    w = plane_wave(grid)
    traj = run(w, 1.0, 1e-3, sample_every=10**9)
    x = grid.axis_points()
    exact = np.exp(2j * np.pi * x - 0.5j * w.hbar * (2 * np.pi) ** 2 * 1.0)
    assert np.max(np.abs(traj[-1][0].psi.values - exact)) <= 1e-10


def test_constant_state_stationary(grid):
    w = WaveFunction(ComplexField(grid, np.ones(grid.n)), 0.3, 0.2)
    out = step_strang(w, 1e-3)
    assert np.max(np.abs(out.psi.values - 1.0)) <= 1e-14


def test_modes_agree_for_flat_density(grid):
    w = plane_wave(grid)
    a = run(w, 0.01, 1e-3, sample_every=10**9, mode="poisson_boltzmann")
    b = run(w, 0.01, 1e-3, sample_every=10**9, mode="linear_poisson")
    assert np.max(np.abs(a[-1][0].psi.values - b[-1][0].psi.values)) <= 1e-13


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_density_and_current_plane_wave(grid):
    w = plane_wave(grid, hbar=0.5)
    np.testing.assert_allclose(density(w).values, 1.0, atol=1e-14)
    np.testing.assert_allclose(current(w)[0].values, np.pi, atol=1e-12)


def test_current_vanishes_for_real_state(grid):
    x = grid.axis_points()
    amp = 1.0 + 0.2 * np.cos(2 * np.pi * x)
    amp /= np.sqrt((amp**2).mean())
    w = WaveFunction(ComplexField(grid, amp.astype(complex)), 0.3, 0.1)
    assert np.max(np.abs(current(w)[0].values)) <= 1e-13


def test_current_of_wkb_state(grid):
    # psi = sqrt(rho) e^{iU/hbar} has J = rho U'
    x = grid.axis_points()
    hbar = 0.1
    rho = 1.0 + 0.2 * np.cos(2 * np.pi * x)
    rho /= rho.mean()
    u_pot = 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi)
    w = WaveFunction(ComplexField(grid, np.sqrt(rho) * np.exp(1j * u_pot / hbar)), hbar, 0.1)
    expected = rho * 0.1 * np.cos(2 * np.pi * x)
    np.testing.assert_allclose(current(w)[0].values, expected, atol=1e-8)


def test_total_energy_plane_wave(grid):
    w = plane_wave(grid, hbar=0.5)
    split = solve_potential(density(w), w.eps)
    np.testing.assert_allclose(conserved_energy(w, split), 0.5**2 * (2 * np.pi) ** 2 / 2,
                               rtol=1e-12)
    assert abs(field_energy(split)) <= 1e-12


def test_total_energy_ground_state(grid):
    w = WaveFunction(ComplexField(grid, np.ones(grid.n)), 0.2, 0.3)
    zero = RealField(grid, np.zeros(grid.n))
    report = modulated_total(w, solve_potential(density(w), w.eps), EulerState(zero, [zero]))
    assert abs(report.conserved_total) <= 1e-12
    np.testing.assert_allclose(
        report.total_modulated,
        report.kinetic_modulated + report.field_energy + report.relative_entropy,
        rtol=1e-12,
    )


# ---------------------------------------------------------------------------
# conservation and convergence
# ---------------------------------------------------------------------------

def test_mass_conservation(prepared_run):
    for traj in prepared_run.values():
        for wf, _ in traj:
            assert abs(integrate(density(wf)) - 1.0) <= 1e-12


def test_energy_drift_second_order(prepared_run):
    drifts = {}
    for name, traj in prepared_run.items():
        f = [conserved_energy(wf, split) for wf, split in traj]
        drifts[name] = max(abs(v - f[0]) for v in f)
    assert drifts["coarse"] <= 1e-6
    assert 3.5 <= drifts["coarse"] / drifts["fine"] <= 4.5


def test_linear_closure_conserves_its_energy(prepared):
    # under -eps*Lap(V) = |psi|^2 - 1 the conserved energy has no int V e^V
    # term; its drift is the order-2 splitting error, as under Poisson-Boltzmann
    drifts = []
    for dt, every in ((1e-3, 20), (5e-4, 40)):
        traj = run(prepared, 0.2, dt, sample_every=every, mode="linear_poisson")
        f = [conserved_energy(wf, split) for wf, split in traj]
        drifts.append(max(abs(v - f[0]) for v in f))
    assert drifts[0] <= 1e-6
    assert 3.5 <= drifts[0] / drifts[1] <= 4.5


def test_snapshot_splits_self_consistent(prepared_run):
    traj = prepared_run["coarse"]
    wf, split = traj[-1]
    g = wf.psi.grid
    v = split.potential.values
    lap = np.fft.ifft(np.fft.fft(v) * (-full_k_squared(g))).real
    res = -wf.eps * lap - density(wf).values + np.exp(v)
    assert np.sqrt(np.mean(res**2)) <= 1e-9
    assert wf.time == pytest.approx(0.2, rel=1e-12)


def test_times_strictly_increasing(prepared_run):
    times = [wf.time for wf, _ in prepared_run["coarse"]]
    assert np.all(np.diff(times) > 0)


def test_self_convergence_order_two(prepared):
    ref = run(prepared, 0.1, 1e-3 / 16, sample_every=10**9)

    def terminal_error(dt):
        tr = run(prepared, 0.1, dt, sample_every=10**9)
        return np.max(np.abs(tr[-1][0].psi.values - ref[-1][0].psi.values))

    ratio = terminal_error(1e-3) / terminal_error(5e-4)
    assert 3.5 <= ratio <= 4.6


def test_continuity_equation(grid, prepared):
    # d/dt int(a rho) = int(a' J) with midpoint current, error O(dt^2)
    x = grid.axis_points()
    a = np.cos(2 * np.pi * x)
    da = -2 * np.pi * np.sin(2 * np.pi * x)

    def cont_err(dt):
        w_here = run(prepared, 10 * dt, dt, sample_every=10**9)[-1][0]
        w_next = step_strang(w_here, dt)
        w_mid = run(prepared, 10 * dt + dt / 2, dt / 2, sample_every=10**9)[-1][0]
        lhs = np.mean(a * (np.abs(w_next.psi.values) ** 2 - np.abs(w_here.psi.values) ** 2)) / dt
        return abs(lhs - np.mean(da * current(w_mid)[0].values))

    e1, e2 = cont_err(1e-3), cont_err(5e-4)
    assert e1 <= 1e-7
    assert e1 / e2 >= 3.5


def test_boltzmann_linear_wave_frequency():
    # Small data about rho = 1, u = 0, V = 0. The Madelung form linearizes to
    # drho_tt = Lap dV - (hbar^2/4) Lap^2 drho, and the Boltzmann closure
    # -eps Lap dV = drho - dV gives dV_k = drho_k / (1 + eps K^2). A density
    # mode K = 2 pi k at rest therefore follows b0 cos(omega t), with
    #     omega^2 = K^2 / (1 + eps K^2) + hbar^2 K^4 / 4,
    # the quantum ion-acoustic relation (Haas, Garcia, Goedert and Manfredi,
    # Phys. Plasmas 10, 2003). Over one period at dt = T/2000 the mode-1
    # cosine coefficient of |psi|^2 follows it to 2.0e-6 |b0|, Strang's
    # second-order error (3.1e-5, 7.8e-6, 2.0e-6, 3.9e-7 at 500 to 4000 steps
    # per period); the nonlinear terms reach mode 1 at O(a^2) relative,
    # 1e-8 here. The bound allows twice the measured remainder. A Lie
    # splitting misses by 1.6e-3 |b0|.
    eps = hbar = 0.0125
    k = 2.0 * np.pi

    def omega(eps_factor=1.0, hbar_factor=1.0):
        return np.sqrt(k**2 / (1.0 + eps_factor * eps * k**2)
                       + (hbar_factor * hbar) ** 2 * k**4 / 4.0)

    grid = TorusGrid(1, 256)
    w0 = _prepared_state(grid, 1e-4, 0.0, eps, hbar)
    period = 2.0 * np.pi / omega()
    samples = run(w0, period, period / 2000, sample_every=100)
    cos_1 = np.cos(2.0 * np.pi * grid.axis_points())
    b = np.array([2.0 * np.mean(density(w).values * cos_1) for w, _ in samples])
    t = np.array([w.time for w, _ in samples])
    assert t[-1] == pytest.approx(period, rel=1e-12)

    def miss(w):
        return float(np.max(np.abs(b - b[0] * np.cos(w * t)))) / abs(b[0])

    bound = 4e-6
    assert miss(omega()) <= bound
    # the bound tells the closure and the quantum term apart: without the
    # factor 1/(1 + eps K^2) the curve misses by 0.92 |b0|, with half of
    # hbar by 4.1e-3 |b0|
    assert miss(omega(eps_factor=0.0)) > 1e3 * bound
    assert miss(omega(hbar_factor=0.5)) > 1e2 * bound


# ---------------------------------------------------------------------------
# guards and plumbing
# ---------------------------------------------------------------------------

def test_warm_start_needs_about_one_newton_iteration(monkeypatch):
    # the sweep_1d point: eps = hbar = 0.025, n = 2048, dt = 1e-4, 200 steps
    g = TorusGrid(1, 2048)
    w0 = _prepared_state(g, 0.5, 0.1, 0.025, 0.025)
    infos = []

    def counted(*args, **kwargs):
        split = solve_potential(*args, **kwargs)
        infos.append(split.info)
        return split

    monkeypatch.setattr(schrodinger, "solve_potential", counted)
    run(w0, 0.02, 1e-4, sample_every=20)
    assert len(infos) == 1 + 200 + 10
    assert sum(i["iterations"] for i in infos) <= 1.2 * len(infos)
    # CG stops within CG_THETA of Newton's tolerance, not at roundoff: 4.06
    # iterations per solve at CG_THETA = 0.01, 5.83 at CG_THETA = 0
    assert sum(i["cg_iterations"] for i in infos) <= 4.5 * len(infos)
    assert all(i["residuals"][-1] <= i["tolerance"] for i in infos)


def test_run_matches_repeated_strang_steps():
    # the sweep_1d point: eps = hbar = 0.025, n = 2048, dt = 1e-4; run carries
    # coefficients and fuses kinetic half steps, step_strang starts from grid
    # values and solves the potential cold, so they differ only by roundoff
    # and the Newton tolerance
    g = TorusGrid(1, 2048)
    w = _prepared_state(g, 0.5, 0.1, 0.025, 0.025)
    dt, steps = 1e-4, 50
    traj = run(w, steps * dt, dt, sample_every=7)
    expected = {}
    for i in range(1, steps + 1):
        w = step_strang(w, dt)
        expected[i] = w.psi.values
    sampled = sample_steps(steps * dt, dt, 7)
    assert sampled == [0, 7, 14, 21, 28, 35, 42, 49, 50]
    assert len(traj) == len(sampled)
    for i, (wf, _) in zip(sampled[1:], traj[1:]):
        assert wf.time == pytest.approx(i * dt, rel=1e-12)
        ref = expected[i]
        assert np.max(np.abs(wf.psi.values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_kinetic_phase_guard(grid):
    w = dataclasses.replace(plane_wave(grid, hbar=0.5), time=0.25)
    with pytest.raises(StepTooLarge) as exc:
        step_strang(w, 0.01)
    # the state's time, and hbar |2 pi k|^2 dt / 2 at the Nyquist mode; no
    # step completed
    assert exc.value.time == 0.25
    assert exc.value.step == 0
    assert exc.value.value == pytest.approx(0.5 * (np.pi * grid.n) ** 2 * 0.01 / 2.0, rel=1e-15)


def test_kinetic_phase_guard_counts_every_axis():
    # in 2-D the corner mode has |2 pi k|^2 = 2 (pi n)^2: a dt at 0.75 of the
    # cap in 1-D is 1.5 times the cap in 2-D
    hbar, n = 0.1, 64
    dt = 0.75 * schrodinger.KINETIC_PHASE_CAP * 2.0 / (hbar * (np.pi * n) ** 2)
    step_strang(WaveFunction(ComplexField(TorusGrid(1, n), np.ones(n)), hbar, 0.1), dt)
    w2 = WaveFunction(ComplexField(TorusGrid(2, n), np.ones((n, n))), hbar, 0.1)
    with pytest.raises(StepTooLarge):
        step_strang(w2, dt)


def test_run_transforms_only_in_steps(monkeypatch, transforms, prepared):
    # outside the potential solves, a step is one transform pair: the closing
    # half-kinetic factor of a step and the opening one of the next are one
    # multiplier on the carried coefficients. The start transforms psi
    # forward once, and each sample after t0 costs one inverse transform;
    # its energies are the caller's
    def uncounted(*args, **kwargs):
        transforms.paused = True
        try:
            return solve_potential(*args, **kwargs)
        finally:
            transforms.paused = False

    monkeypatch.setattr(schrodinger, "solve_potential", uncounted)
    steps = 10
    run(prepared, steps * 1e-3, 1e-3, sample_every=2)
    samples = steps // 2
    assert transforms.counts == {"fft": 1 + steps, "ifft": steps + samples, "rfft": 0, "irfft": 0}


def test_potential_phase_guard():
    g = TorusGrid(1, 64)
    x = g.axis_points()
    rho = 1.0 + 0.9 * np.cos(2 * np.pi * x)
    rho /= rho.mean()
    w = WaveFunction(ComplexField(g, np.sqrt(rho).astype(complex)), 1e-3, 0.01, time=0.25)
    dt = 5e-3
    # the first step fails: max|V| dt / hbar at its midpoint density
    half = np.exp(-0.25j * w.hbar * full_k_squared(g) * dt)
    mid = np.fft.ifft(half * np.fft.fft(w.psi.values))
    v = solve_potential(RealField(g, np.abs(mid) ** 2), w.eps).potential.values
    phase = float(np.max(np.abs(v))) * dt / w.hbar
    assert phase >= np.pi
    for advance in (step_strang, lambda w, dt: run(w, 2 * dt, dt)):
        with pytest.raises(StepTooLarge) as exc:
            advance(w, dt)
        assert exc.value.time == 0.25
        assert exc.value.step == 0
        assert exc.value.value == pytest.approx(phase, rel=1e-12)


def test_potential_phase_guard_reports_the_failing_steps_start(prepared, monkeypatch):
    # the solve of the third step returns a potential far past the phase
    # guard: the error carries that step's start time, 2 dt after t0, and
    # the two steps completed before it
    solves = []

    def lifted(*args, **kwargs):
        split = solve_potential(*args, **kwargs)
        solves.append(split)
        if len(solves) == 4:  # the t0 solve, then steps 1, 2 and 3
            split.hat.values += 1e4
        return split

    monkeypatch.setattr(schrodinger, "solve_potential", lifted)
    dt = 1e-3
    with pytest.raises(StepTooLarge) as exc:
        run(prepared, 10 * dt, dt)
    assert exc.value.time == 2 * dt
    assert exc.value.step == 2
    v = solves[-1].potential.values
    assert exc.value.value == float(np.max(np.abs(v))) * dt / prepared.hbar


def test_wave_function_validation(grid):
    with pytest.raises(ValueError):
        WaveFunction(ComplexField(grid, 2.0 * np.ones(grid.n)), 0.1, 0.1)
    with pytest.raises(ValueError):
        WaveFunction(ComplexField(grid, np.ones(grid.n)), -0.1, 0.1)


def test_zero_horizon_returns_input(prepared):
    traj = run(prepared, 0.0, 1e-3)
    assert len(traj) == 1
    wf, _ = traj[0]
    assert wf.time == prepared.time
    np.testing.assert_array_equal(wf.psi.values, prepared.psi.values)


def test_unknown_mode_rejected(grid):
    w = plane_wave(grid)
    with pytest.raises(ValueError):
        step_strang(w, 1e-3, mode="hartree")
