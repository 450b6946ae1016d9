"""Tests for the isothermal Euler solver in log variables."""
import tracemalloc

import numpy as np
import pytest
from conftest import data_config, full_wavenumbers

from qnlab import euler, experiments, spectral
from qnlab.config import sample_steps
from qnlab.errors import BlowupGuardTripped, StepTooLarge
from qnlab.grid import ComplexField, RealField, TorusGrid, gradient, integrate
from qnlab.euler import (
    RK4_STABILITY,
    EulerState,
    check_first_step,
    euler_constants,
    euler_rhs,
    max_rate,
    normalize_log_density,
    run_euler,
)
from qnlab.schrodinger import WaveFunction, run


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 256)


def zero(grid):
    return RealField(grid, np.zeros(grid.n))


def nlog(grid, vals):
    return normalize_log_density(RealField(grid, vals))


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_constant_state(grid):
    s = EulerState(zero(grid), [zero(grid)])
    d_log, d_u = euler_rhs(s)
    assert np.max(np.abs(d_log.values)) == 0.0
    assert np.max(np.abs(d_u[0].values)) == 0.0


def test_rhs_uniform_flow(grid):
    s = EulerState(zero(grid), [RealField(grid, np.full(grid.n, 0.7))])
    d_log, d_u = euler_rhs(s)
    assert np.max(np.abs(d_log.values)) <= 1e-14
    assert np.max(np.abs(d_u[0].values)) <= 1e-14


def test_rhs_pressure_only(grid):
    # constant log-shift from normalization drops out of both rhs formulas
    x = grid.axis_points()
    s = EulerState(nlog(grid, 0.1 * np.cos(2 * np.pi * x)), [zero(grid)])
    _, d_u = euler_rhs(s)
    np.testing.assert_allclose(d_u[0].values, 0.2 * np.pi * np.sin(2 * np.pi * x),
                               atol=1e-12)


def reference_rhs(grid, log_rho, u):
    """The complex-FFT right-hand side: every derivative through its own
    transform pair, Nyquist mode kept, and the whole sum dealiased."""
    k = [full_wavenumbers(grid, axis) for axis in range(grid.dim)]
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        mask &= np.abs(k[axis] / (2 * np.pi)) <= grid.n / 3.0

    def deriv(vals, axis):
        return np.fft.ifftn(np.fft.fftn(vals) * 1j * k[axis]).real

    def dealias(vals):
        return np.fft.ifftn(np.fft.fftn(vals) * mask).real

    d_log = -sum(deriv(u[j], j) for j in range(grid.dim))
    for j in range(grid.dim):
        d_log = d_log - u[j] * deriv(log_rho, j)
    d_u = []
    for i in range(grid.dim):
        advect = sum(u[j] * deriv(u[i], j) for j in range(grid.dim))
        d_u.append(dealias(-advect - deriv(log_rho, i)))
    return dealias(d_log), d_u


def full_spectrum_state(grid, seed):
    """Smooth data plus white noise, so every mode carries energy, the
    Nyquist mode and the 2/3-rule edge included."""
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    smooth = sum(np.cos(2 * np.pi * c) for c in coords)
    log_rho = nlog(grid, 0.3 * smooth + 0.05 * rng.standard_normal(grid.shape))
    u = [RealField(grid, 0.2 * np.sin(2 * np.pi * c) + 0.05 * rng.standard_normal(grid.shape))
         for c in coords]
    return EulerState(log_rho, u)


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
def test_rhs_matches_complex_reference(dim, n):
    g = TorusGrid(dim, n)
    s = full_spectrum_state(g, seed=dim)
    d_log, d_u = euler_rhs(s)
    ref_log, ref_u = reference_rhs(g, s.log_rho.values, [c.values for c in s.u])
    for got, ref in [(d_log.values, ref_log)] + [(a.values, b) for a, b in zip(d_u, ref_u)]:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, n, per_stage", [(1, 64, 5), (2, 32, 11)])
def test_rk4_stage_uses_real_transforms_only(transforms, dim, n, per_stage):
    counts, fields = transforms.counts, transforms.fields
    steps, samples = 3, 2  # sample_every = 2 reports steps 2 and 3 after s0
    run_euler(full_spectrum_state(TorusGrid(dim, n), seed=5), steps * 1e-4, 1e-4,
              sample_every=2)
    stages = 4 * steps
    # a stage transforms forward only the dim + 1 summed advection terms, the
    # rest of its transforms are inverse; the state enters as dim + 1 forward
    # transforms and leaves as dim + 1 inverse ones per sample; the blow-up
    # guard reads the first stage's derivatives and transforms nothing
    assert fields["rfft"] == (dim + 1) * (1 + stages)
    assert fields["irfft"] == (per_stage - (dim + 1)) * stages + (dim + 1) * samples
    assert fields["fft"] + fields["ifft"] == 0
    # 2 calls per stage, one inverse and one forward, and one call per state
    # in and per sample out
    assert counts["rfft"] == 1 + stages
    assert counts["irfft"] == stages + samples


@pytest.mark.parametrize("dim, n, amp, message", [
    (1, 32, 6.0, "at t = 0.0070"),
    (2, 32, 5.0, "at t = 0.0120"),
])
def test_blowup_guard_trips_at_the_same_step(dim, n, amp, message):
    # steepening flows that pass the guard first and trip it later; the trip
    # times are those of the complex-FFT solver that computed the guard with
    # its own transforms before each step
    g = TorusGrid(dim, n)
    u = [RealField(g, amp * np.sin(2 * np.pi * c)) for c in g.coords()]
    s0 = EulerState(RealField(g, np.zeros(g.shape)), u)
    with pytest.raises(BlowupGuardTripped, match=rf"\|\|grad u\|\|_inf > 50.0 {message}$"):
        run_euler(s0, 1.0, 1e-3)


def test_blowup_guard_trips_on_nan():
    # a NaN derivative sup after the first one must not read as small
    g = TorusGrid(2, 16)
    s0 = EulerState(RealField(g, np.zeros(g.shape)),
                    [RealField(g, np.zeros(g.shape)) for _ in range(2)])
    s0.u[1].values[3, 5] = np.nan  # past the field check, as a step between samples could
    sups: list = []
    sym = spectral.symbols(g, real=True)
    euler._rhs(sym, euler.spectrum(s0), euler._buffers(sym), sups)
    assert np.isnan(euler._grad_u_sup(sups))
    with pytest.raises(BlowupGuardTripped, match=r"\|\|grad u\|\|_inf > 50.0 at t = 0.0000$"):
        run_euler(s0, 0.01, 1e-3, sample_every=10)


def test_state_validation(grid):
    # unit mass is checked on the state a run starts from
    with pytest.raises(ValueError, match="integrates to"):
        run_euler(EulerState(RealField(grid, np.ones(grid.n)), [zero(grid)]), 0.01, 1e-3)  # mass e
    with pytest.raises(ValueError):
        EulerState(zero(grid), [zero(grid), zero(grid)])  # wrong dimension


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_constant_state_stays_constant(grid):
    traj = run_euler(EulerState(zero(grid), [zero(grid)]), 0.1, 1e-2)
    assert len(traj) == 11
    for s in traj:
        assert np.max(np.abs(s.log_rho.values)) == 0.0
        assert np.max(np.abs(s.u[0].values)) == 0.0


def test_linear_wave_oracle(grid):
    # small data behaves like the wave equation: log rho ~ a cos(2pix)cos(2pit)
    a = 1e-3
    x = grid.axis_points()
    s0 = EulerState(RealField(grid, a * np.cos(2 * np.pi * x)), [zero(grid)])
    traj = run_euler(s0, 0.5, 1e-3)
    worst = max(
        np.max(np.abs(s.log_rho.values - a * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * s.time)))
        for s in traj[::50]
    )
    assert worst <= 10 * a**2


@pytest.mark.parametrize("a", [1e-4, 1e-3])
def test_run_euler_linear_wave_frequency(a):
    # about rho = 1, u = 0 the linearized equations give
    # delta rho_tt = Lap(delta rho) (isothermal sound speed 1), so mode 1 of
    # rho oscillates as b0 cos(omega t) with omega = K = 2 pi. Over one
    # period at dt = 2e-3 the miss measured 1.24 a^2 |b0| at a = 1e-4 and at
    # a = 1e-3, and the same at dt = 1e-3: it is the O(a^2) nonlinear term,
    # not RK4's time error. C = 2.5 leaves a 2x margin. omega = sqrt(0.9) K
    # misses by 0.253 |b0|
    K = 2 * np.pi
    s0 = experiments._euler_state(data_config(a, 0.0), TorusGrid(1, 256))
    traj = run_euler(s0, 2 * np.pi / K, 2e-3, sample_every=25)
    cos_kx = np.cos(K * s0.grid.axis_points())
    b = np.array([2 * np.mean(s.rho().values * cos_kx) for s in traj])
    t = np.array([s.time for s in traj])
    bound = 2.5 * a**2 * abs(b[0])
    assert len(traj) == 21 and t[-1] == pytest.approx(1.0)
    assert np.max(np.abs(b - b[0] * np.cos(K * t))) <= bound
    assert np.max(np.abs(b - b[0] * np.cos(np.sqrt(0.9) * K * t))) > 1e3 * bound


def test_mass_conserved(grid):
    x = grid.axis_points()
    s0 = EulerState(nlog(grid, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    traj = run_euler(s0, 0.2, 1e-3)
    masses = [integrate(s.rho()) for s in traj[::20]]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-8


def test_self_convergence_fourth_order(grid):
    x = grid.axis_points()
    s0 = EulerState(nlog(grid, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    ref = run_euler(s0, 0.1, 1e-3 / 8)[-1]

    def err(dt):
        fin = run_euler(s0, 0.1, dt)[-1]
        return np.max(np.abs(fin.log_rho.values - ref.log_rho.values))

    assert err(4e-3) / err(2e-3) >= 13.0  # at least ~order 3.7 observed


def test_reflection_symmetry(grid):
    # even log rho, odd u is preserved by the dynamics
    x = grid.axis_points()
    s0 = EulerState(nlog(grid, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    fin = run_euler(s0, 0.05, 1e-3)[-1]

    def reflect(v):
        return np.roll(v[::-1], 1)

    assert np.max(np.abs(fin.log_rho.values - reflect(fin.log_rho.values))) <= 1e-12
    assert np.max(np.abs(fin.u[0].values + reflect(fin.u[0].values))) <= 1e-12


# sample k is stamped k * dt by both integrators. With a dyadic dt a running
# sum of dt would be exact too; at dt = 1e-4 it drifts (200 steps would give
# 0.019999999999999934, 2000 steps 0.1999999999999943)
@pytest.mark.parametrize("dt, steps_in_t, sample_every", [
    # T a whole multiple of dt
    pytest.param(2.0**-10, 12, 5, id="12-5"),
    # T not a multiple: rounds to 12 steps
    pytest.param(2.0**-10, 12.3, 5, id="12.3-5"),
    # 0 < T < dt/2: one step
    pytest.param(2.0**-10, 0.3, 5, id="0.3-5"),
    # sample_every beyond the step count: first and last only
    pytest.param(2.0**-10, 12, 50, id="12-50"),
    # the sweep_1d benchmark point's time grid, and ten times its horizon
    pytest.param(1e-4, 200, 20, id="dt1e-4-200-20"),
    pytest.param(1e-4, 2000, 200, id="dt1e-4-2000-200"),
])
def test_integrators_report_the_same_steps(dt, steps_in_t, sample_every):
    big_t = steps_in_t * dt
    g = TorusGrid(1, 16)
    w0 = WaveFunction(ComplexField(g, np.exp(2j * np.pi * g.axis_points())), 0.5, 0.1)
    s0 = EulerState(zero(g), [zero(g)])
    steps = sample_steps(big_t, dt, sample_every)
    times = [w.time for w, _ in run(w0, big_t, dt, sample_every=sample_every)]
    etimes = [s.time for s in run_euler(s0, big_t, dt, sample_every=sample_every)]
    assert len(times) == len(etimes) == len(steps)
    assert times == etimes == [i * dt for i in steps]


def test_run_euler_memory_holds_only_samples():
    g = TorusGrid(2, 64)
    x, y = g.coords()
    s0 = EulerState(nlog(g, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(g, 0.1 * np.sin(2 * np.pi * c)) for c in (x, y)])
    state_bytes = 3 * g.size * 8
    spectral.symbols(g, real=True)  # cached symbols are not part of the run
    tracemalloc.start()
    try:
        traj = run_euler(s0, 200 * 1e-4, 1e-4, sample_every=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 2
    # RK4 temporaries take about 8 states; keeping all 201 states takes 200+
    assert peak < 16 * state_bytes


def test_blowup_guard(grid):
    # dt max_rate = 5.4 is past RK4's bound too; the guard reads first
    x = grid.axis_points()
    s0 = EulerState(zero(grid), [RealField(grid, 9.0 * np.sin(2 * np.pi * x))])
    assert 1e-3 * max_rate(grid, 9.0) > RK4_STABILITY
    with pytest.raises(BlowupGuardTripped) as caught:
        run_euler(s0, 1.0, 1e-3)
    assert caught.value.time == 0.0
    assert caught.value.step == 0
    assert caught.value.value == pytest.approx(18.0 * np.pi, rel=1e-12)


def test_unstable_step_raises_step_too_large():
    # the standard data on 2048 nodes at dt = 1e-3: dt max_rate = 4.7 > 2 sqrt 2,
    # which used to surface as a blow-up at t = 0.0080
    s0 = experiments._euler_state(data_config(0.5, 0.1), TorusGrid(1, 2048))
    rate = 1e-3 * max_rate(s0.grid, max(float(np.max(np.abs(c.values))) for c in s0.u))
    with pytest.raises(StepTooLarge, match=r"at t = 0\.0000; shrink dt$") as caught:
        run_euler(s0, 0.01, 1e-3)
    assert caught.value.time == 0.0
    assert caught.value.step == 0
    assert caught.value.value == pytest.approx(rate, rel=1e-12)
    assert caught.value.value > RK4_STABILITY


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 256)])
@pytest.mark.parametrize("u0_amp, dt, raises, log_rho", [
    (0.1, 1e-4, False, False),  # a stable step: the rate decides
    (0.1, 1e-2, True, False),  # unstable, and u alone shows the state varies
    (0.0, 1e-2, True, True),  # unstable at u = 0: log rho decides
])
def test_first_step_check_transforms_log_rho_only_to_decide(dim, n, u0_amp, dt, raises, log_rho,
                                                            transforms):
    transforms.paused = True
    s0 = experiments._euler_state(data_config(0.5, u0_amp), TorusGrid(dim, n))
    transforms.paused = False
    if raises:
        with pytest.raises(StepTooLarge, match=r"at t = 0\.0000; shrink dt$"):
            check_first_step(s0, dt)
    else:
        check_first_step(s0, dt)
    # u goes forward and back in one call each; log rho, when read, in one more
    assert transforms.fields == {"fft": 0, "ifft": 0, "rfft": dim + log_rho, "irfft": dim}
    assert transforms.counts == {"fft": 0, "ifft": 0, "rfft": 1 + log_rho, "irfft": 1}


def test_max_rate_bounds_the_linear_spectrum():
    # 2 pi (n/3) sqrt(dim) (sqrt(dim) sup_u + 1); AC-9 steps its n = 256,
    # |u| <= 0.1 data at dt = 4e-3, inside the bound
    top = 2.0 * np.pi * 8 / 3
    assert max_rate(TorusGrid(1, 8), 0.0) == pytest.approx(top)
    assert max_rate(TorusGrid(2, 8), 1.0) == pytest.approx(top * np.sqrt(2) * (np.sqrt(2) + 1))
    assert 4e-3 * max_rate(TorusGrid(1, 256), 0.1) == pytest.approx(2.36, abs=5e-3)


@pytest.mark.parametrize("dim, n, top", [(1, 32, 2 * np.pi * 10 * 1.1),
                                          (2, 16, 2 * np.pi * (0.1 * 10 + np.sqrt(50)))])
def test_max_rate_bounds_the_jacobian_at_a_constant_flow(dim, n, top):
    # at u_i = 0.1 the linearized right-hand side has eigenvalues
    # i (u.2 pi k +- |2 pi k|); only the kept modes (|k_axis| <= n/3: 10 on
    # 32 nodes, (5, 5) on 16^2) may carry them, so max_rate bounds them all
    g = TorusGrid(dim, n)
    base = np.concatenate([np.zeros(g.size)] + [np.full(g.size, 0.1)] * dim)

    def rhs(x):
        log_rho, *u = (RealField(g, f) for f in x.reshape(dim + 1, *g.shape))
        d_log, d_u = euler_rhs(EulerState(log_rho, u))
        return np.concatenate([f.values.ravel() for f in (d_log, *d_u)])

    h = 1e-6
    # central differences of a quadratic map: exact up to roundoff
    jac = np.column_stack([(rhs(base + h * e) - rhs(base - h * e)) / (2 * h)
                           for e in np.eye(base.size)])
    radius = float(np.max(np.abs(np.linalg.eigvals(jac))))
    assert radius == pytest.approx(top, rel=1e-6)
    assert radius <= max_rate(g, 0.1)


def test_modes_above_the_kept_band_stay_at_roundoff():
    # AC-9's data at its coarsest step, dt max_rate = 2.36 < 2 sqrt 2: the
    # modes n/3 < |k| <= n/2 hold roundoff only and must not evolve; run at
    # the acoustic rate alone, 2 pi (n/2 - 1) dt = 3.19, they would grow.
    # Their L2 norm is read against each field's initial norm, as log rho
    # passes near zero on the way
    grid = TorusGrid(1, 256)
    x = grid.axis_points()
    s0 = EulerState(nlog(grid, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    sym = spectral.symbols(grid, real=True)

    def norm(f, symbol=1.0):
        return np.sqrt(sym.parseval(np.abs(sym.forward(f.values)) ** 2 * symbol))

    initial = [norm(f) for f in (s0.log_rho, *s0.u)]
    share = max(norm(f, 1.0 - sym.dealias) / f0 for s in run_euler(s0, 0.6, 4e-3)
                for f, f0 in zip((s.log_rho, *s.u), initial))
    assert share <= 1e-15


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_zero_for_constant_state(grid):
    c = euler_constants([EulerState(zero(grid), [zero(grid)])])
    assert all(v == 0.0 for v in c.values())


def test_constants_frozen_snapshot(grid):
    x = grid.axis_points()
    s = EulerState(zero(grid), [RealField(grid, np.sin(2 * np.pi * x))])
    c = euler_constants([s])
    np.testing.assert_allclose(c["sup_grad_u"], 2 * np.pi, rtol=1e-12)


def test_constants_match_finite_difference_in_time(grid):
    x = grid.axis_points()
    dt = 1e-3
    s0 = EulerState(nlog(grid, 0.2 * np.cos(2 * np.pi * x)),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    traj = run_euler(s0, 0.05, dt)
    c = euler_constants(traj[::10])
    fd = 0.0
    for a, b in zip(traj[:-1], traj[1:]):
        d = (b.log_rho.values - a.log_rho.values) / dt
        h1_sq = np.mean(d**2) + np.mean(
            np.fft.ifft(np.fft.fft(d) * 1j * full_wavenumbers(grid, 0)).real ** 2)
        fd = max(fd, float(np.sqrt(h1_sq)))
    assert abs(c["dt_log_rho_h1"] - fd) <= 0.05 * fd


def grid_space_constants(traj):
    """The grid-space formula of euler_constants: every norm a grid mean of
    spectral derivatives, each through its own transform pair."""
    def h1(f):
        sq = sum((np.mean(d.values**2) for d in gradient(f)), np.mean(f.values**2))
        return float(np.sqrt(sq))

    sup_grad_u = sup_log_h1 = sup_dt_log_h1 = sup_grad_advection = 0.0
    for s in traj:
        d_log, _ = euler_rhs(s)
        sup_grad_u = max(sup_grad_u, max(float(np.max(np.abs(d.values)))
                                         for c in s.u for d in gradient(c)))
        sup_log_h1 = max(sup_log_h1, h1(s.log_rho))
        sup_dt_log_h1 = max(sup_dt_log_h1, h1(d_log))
        advect = sum(u_j.values * d.values for u_j, d in zip(s.u, gradient(s.log_rho)))
        grad_sq = sum(float(np.mean(d.values**2)) for d in gradient(RealField(s.grid, advect)))
        sup_grad_advection = max(sup_grad_advection, float(np.sqrt(grad_sq)))
    return {
        "sup_grad_u": sup_grad_u,
        "log_rho_h1": sup_log_h1,
        "dt_log_rho_h1": sup_dt_log_h1,
        "log_rho_w1inf_h1": max(sup_log_h1, sup_dt_log_h1),
        "sup_grad_advection": sup_grad_advection,
    }


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
def test_constants_match_grid_space_formula(dim, n):
    # white noise loads the Nyquist and 2/3-rule edge modes, where the
    # half-spectrum Parseval weights and the zeroed Nyquist derivative matter
    g = TorusGrid(dim, n)
    traj = [full_spectrum_state(g, seed) for seed in (11, 12, 13)]
    got = euler_constants(traj)
    ref = grid_space_constants(traj)
    assert got.keys() == ref.keys()
    for key in ref:
        assert abs(got[key] - ref[key]) <= 1e-12 * ref[key], key


def test_constants_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        euler_constants([])


@pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 64)], ids=str)
def test_constants_rejected_on_a_coarser_or_other_dimension_grid(grid):
    line = TorusGrid(1, 32)
    s = EulerState(RealField(line, np.zeros(32)), [RealField(line, np.zeros(32))])
    with pytest.raises(ValueError, match="not as fine"):
        euler_constants([s], grid)
