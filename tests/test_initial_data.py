"""Tests for prepared wave-function data, i.i.d. sampling, and mollified
empirical measures."""
import numpy as np
import pytest
from conftest import data_config

from qnlab import experiments
from qnlab.errors import NotAProbabilityDensity, NotPositive
from qnlab.euler import EulerState, normalize_log_density
from qnlab.energy import modulated_total
from qnlab.grid import RealField, TorusGrid, gradient, integrate, laplacian
from qnlab.initial_data import (
    WellPreparedSpec,
    _bump,
    entropy_w1_check,
    mollified_empirical,
    quantum_density,
    sample_iid,
    well_prepared,
)
from qnlab.nbody import ParticleConfig, w1_circle, wrap_half
from qnlab.schrodinger import density, solve_potential


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 256)


def flat(grid):
    return RealField(grid, np.ones(grid.n))


def cos_density(grid, amp):
    x = grid.axis_points()
    vals = np.exp(amp * np.cos(2 * np.pi * x))
    return RealField(grid, vals / vals.mean())


# ---------------------------------------------------------------------------
# prepared states
# ---------------------------------------------------------------------------

def test_flat_density_zero_phase_gives_unit_wave(grid):
    spec = WellPreparedSpec(flat(grid), RealField(grid, np.zeros(grid.n)), 0.1, 0.1)
    w = well_prepared(spec)
    np.testing.assert_array_equal(w.psi.values, np.ones(grid.n) + 0j)
    assert w.time == 0.0


def test_flat_density_is_phase_only(grid):
    x = grid.axis_points()
    u0 = np.sin(2 * np.pi * x) / (2 * np.pi)
    spec = WellPreparedSpec(flat(grid), RealField(grid, u0), 0.1, 0.1)
    w = well_prepared(spec)
    np.testing.assert_array_equal(w.psi.values, np.exp(1j * u0 / 0.1))
    np.testing.assert_allclose(np.abs(w.psi.values) ** 2, 1.0, atol=1e-14)


def test_prepared_state_solves_field_equation(grid):
    # -eps*Lap(V0) = |psi|^2 - e^{V0} holds exactly at the spectral level
    rho0 = cos_density(grid, 0.5)
    spec = WellPreparedSpec(rho0, RealField(grid, np.zeros(grid.n)), 0.01, 0.1)
    w = well_prepared(spec)
    v0 = RealField(grid, np.log(rho0.values))
    residual = (-spec.eps * laplacian(v0).values
                - (np.abs(w.psi.values) ** 2 - rho0.values))
    assert np.sqrt(np.mean(residual**2)) < 1e-10
    mass = integrate(RealField(grid, np.abs(w.psi.values) ** 2))
    assert abs(mass - 1.0) < 1e-13


def test_quantum_density_keeps_unit_mass(grid):
    spec = WellPreparedSpec(cos_density(grid, 0.5), RealField(grid, np.zeros(grid.n)),
                            0.02, 0.02)
    rq = quantum_density(spec)
    assert abs(integrate(rq) - 1.0) < 1e-14
    assert float(rq.values.min()) > 0.0


def _prepared_energy(grid, eps, hbar):
    x = grid.axis_points()
    rho0 = cos_density(grid, 0.5)
    u0pot = RealField(grid, 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi))
    spec = WellPreparedSpec(rho0, u0pot, eps, hbar)
    w = well_prepared(spec)
    rq = quantum_density(spec)
    split = solve_potential(density(w), eps)
    eul = EulerState(normalize_log_density(RealField(grid, np.log(rho0.values))),
                     [gradient(u0pot)[0]])
    rep = modulated_total(w, split, eul)
    v0 = RealField(grid, np.log(rho0.values))
    kin_closed = (hbar**2 / 2) * integrate(
        RealField(grid, gradient(RealField(grid, np.sqrt(rq.values)))[0].values ** 2))
    field_closed = (eps / 2) * integrate(
        RealField(grid, gradient(v0)[0].values ** 2))
    return rep, kin_closed, field_closed


def test_prepared_energy_matches_closed_form(grid):
    rep, kin_closed, field_closed = _prepared_energy(grid, 0.01, 0.01)
    assert abs(rep.kinetic_modulated - kin_closed) < 1e-12
    assert abs(rep.field_energy - field_closed) < 1e-12
    assert abs(rep.relative_entropy) < 1e-12
    assert abs(rep.total_modulated - (kin_closed + field_closed)) < 1e-10


def test_prepared_energy_decreases_along_sweep(grid):
    totals = []
    for eh in (0.02, 0.01, 0.005):
        rep, kin_closed, field_closed = _prepared_energy(grid, eh, eh)
        assert abs(rep.kinetic_modulated - kin_closed) < 1e-12
        assert abs(rep.field_energy - field_closed) < 1e-12
        totals.append(rep.total_modulated)
    assert totals[0] > totals[1] > totals[2] > 0


def test_rejects_eps_too_large_for_density(grid):
    spec = WellPreparedSpec(cos_density(grid, 0.5), RealField(grid, np.zeros(grid.n)),
                            0.1, 0.1)
    with pytest.raises(NotPositive) as exc:
        well_prepared(spec)
    # the guard's value is the negative minimum of e^V0 - eps*Lap(V0)
    v0 = RealField(grid, np.log(spec.rho0.values))
    low = float(np.min(spec.rho0.values - 0.1 * laplacian(v0).values))
    assert low < 0.0
    assert exc.value.value == low
    assert exc.value.time is None
    assert exc.value.step is None


def test_spec_validation(grid):
    zeros = RealField(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        WellPreparedSpec(flat(grid), zeros, -1.0, 0.1)
    with pytest.raises(NotAProbabilityDensity):
        WellPreparedSpec(RealField(grid, np.cos(2 * np.pi * grid.axis_points())),
                         zeros, 0.1, 0.1)  # sign-changing
    with pytest.raises(NotAProbabilityDensity):
        WellPreparedSpec(RealField(grid, np.full(grid.n, 2.0)), zeros, 0.1, 0.1)


# ---------------------------------------------------------------------------
# i.i.d. sampling
# ---------------------------------------------------------------------------

def test_flat_sampling_reproduces_raw_uniforms(grid):
    cfg = sample_iid(flat(grid), 16, seed=3)
    np.testing.assert_array_equal(cfg.positions, np.random.default_rng(3).random(16))


def test_sampling_is_deterministic(grid):
    rho = cos_density(grid, 0.4)
    a = sample_iid(rho, 64, seed=11)
    b = sample_iid(rho, 64, seed=11)
    c = sample_iid(rho, 64, seed=12)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert np.max(np.abs(a.positions - c.positions)) > 1e-3


def test_sampling_matches_target_cdf(grid):
    # Kolmogorov-Smirnov against the exact CDF of 1 + cos(2 pi x); the
    # 99% band for n = 1e5 samples is 1.628/sqrt(n) ~ 5.1e-3
    x = grid.axis_points()
    rho = RealField(grid, 1.0 + np.cos(2 * np.pi * x))
    n = 100_000
    pts = np.sort(sample_iid(rho, n, seed=7).positions)
    target = pts + np.sin(2 * np.pi * pts) / (2 * np.pi)
    i = np.arange(1, n + 1)
    d_stat = max(np.max(np.abs(target - i / n)), np.max(np.abs(target - (i - 1) / n)))
    assert d_stat < 1.628 / np.sqrt(n)


def test_sampling_input_validation(grid):
    with pytest.raises(NotAProbabilityDensity):
        sample_iid(RealField(grid, np.full(grid.n, 0.5)), 4, seed=0)
    with pytest.raises(NotAProbabilityDensity):
        sample_iid(RealField(grid, np.cos(2 * np.pi * grid.axis_points())), 4, seed=0)
    with pytest.raises(ValueError):
        sample_iid(RealField(TorusGrid(2, 32), np.ones((32, 32))), 4, seed=0)


# ---------------------------------------------------------------------------
# mollified empirical measures
# ---------------------------------------------------------------------------

def test_mollifier_single_particle(grid):
    mu = mollified_empirical(ParticleConfig(np.array([0.0])), 0.25, grid)
    assert abs(integrate(mu) - 1.0) < 1e-12
    # annular profile: vanishes both near the particle and beyond eta/4
    y = wrap_half(grid.axis_points())
    assert np.all(mu.values[np.abs(y) <= 3 * 0.25 / 16] == 0.0)
    assert np.all(mu.values[np.abs(y) >= 0.25 / 4] == 0.0)
    # even in the wrapped coordinate
    np.testing.assert_allclose(mu.values[1:], mu.values[1:][::-1], atol=1e-12)


def test_mollifier_mass_concentrates_near_particles():
    grid = TorusGrid(1, 4096)
    cfg = ParticleConfig(np.array([0.15, 0.55, 0.8]))
    for eta in (0.1, 0.05):
        mu = mollified_empirical(cfg, eta, grid)
        y = grid.axis_points()
        dist = np.min(np.abs(wrap_half(y[None, :] - cfg.positions[:, None])), axis=0)
        near = dist <= eta / 4
        assert np.all(mu.values[~near] == 0.0)
        mass_near = np.sum(mu.values[near]) / grid.n
        assert abs(mass_near - 1.0) < 1e-12  # all mass in the balls


def test_mollified_w1_distance_below_eta():
    grid = TorusGrid(1, 1024)
    cfg = ParticleConfig(np.random.default_rng(5).random(8))
    for eta in (0.25, 0.1, 0.05):
        mu = mollified_empirical(cfg, eta, grid)
        assert w1_circle(mu, cfg) <= eta


def dense_mollified(cfg, eta, grid):
    """The N x n formula: every atom's bump evaluated at every node."""
    z = wrap_half(grid.axis_points()[None, :] - cfg.positions[:, None]) / eta
    vals = _bump(z).mean(axis=0) / eta
    return vals / vals.mean()


@pytest.mark.parametrize("n_part", [1, 17, 512])
@pytest.mark.parametrize("eta", [0.25, 0.05])
def test_mollifier_matches_dense_formula(n_part, eta):
    grid = TorusGrid(1, 2048)
    pos = np.random.default_rng(n_part).random(n_part)
    pos[0] = 0.0
    if n_part > 1:
        pos[-1] = 1.0 - 2.0**-52
    cfg = ParticleConfig(pos)
    want = dense_mollified(cfg, eta, grid)
    np.testing.assert_allclose(mollified_empirical(cfg, eta, grid).values, want,
                               rtol=1e-14, atol=1e-14)


def test_mollifier_rejects_unresolvable_eta():
    grid = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="too coarse"):
        mollified_empirical(ParticleConfig(np.array([0.0])), 1.0 / 512.0, grid)
    with pytest.raises(ValueError):
        mollified_empirical(ParticleConfig(np.array([0.0])), 0.3, grid)
    with pytest.raises(ValueError):
        mollified_empirical(ParticleConfig(np.array([0.0])), 0.0, grid)


# ---------------------------------------------------------------------------
# entropy / W1 compatibility of sampled configurations
# ---------------------------------------------------------------------------

def test_entropy_w1_bound_on_sampled_configs(grid):
    zeros = RealField(grid, np.zeros(grid.n))
    for eps, amp in ((1.0, 0.02), (0.25, 0.05)):
        rho0 = cos_density(grid, amp)
        rq = quantum_density(WellPreparedSpec(rho0, zeros, eps, 0.1))
        for seed in range(3):
            cfg = sample_iid(rq, 32, seed)
            rep = entropy_w1_check(cfg, rho0, rq, eps)
            assert rep["passed"]
            assert rep["lhs"] >= -1e-12
            assert rep["margin"] > 0.02


@pytest.mark.parametrize("grid", [TorusGrid(1, 2048), TorusGrid(2, 16), TorusGrid(2, 256)],
                         ids=str)
def test_cos_profiles_are_the_meshgrid_formula_bit_for_bit(grid):
    # one cos and one sin per axis, broadcast over the grid
    coords = grid.coords()
    phase = sum(np.cos(2.0 * np.pi * c) for c in coords)
    rho0 = np.exp(0.5 * phase)
    rho0 /= rho0.mean()
    u0pot = 0.3 * sum(np.sin(2.0 * np.pi * c) for c in coords) / (2.0 * np.pi)
    got_rho0, got_u0pot = experiments._profiles(data_config(0.5, 0.3), grid)
    assert np.array_equal(got_rho0.values, rho0)
    assert np.array_equal(got_u0pot.values, u0pot)
