"""Tests for the modulated-energy functionals and weak-distance reports."""
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

from qnlab.energy import (
    EnergyReport,
    ckp_check,
    kinetic_modulated,
    modulated_total,
    relative_entropy,
    weak_distances,
)
from qnlab.errors import NonpositiveReference, NotAProbabilityDensity
from qnlab.euler import EulerState
from qnlab.grid import ComplexField, RealField, TorusGrid, gradient, h_minus1_norm, integrate
from qnlab.schrodinger import WaveFunction, density, solve_potential


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 256)


@pytest.fixture(scope="module")
def flat_euler(grid):
    zero = RealField(grid, np.zeros(grid.n))
    return EulerState(zero, [zero])


def ones(grid):
    return RealField(grid, np.ones(grid.n))


def random_state(grid, rng, hbar=0.1, eps=0.2):
    x = grid.axis_points()
    a = sum(rng.standard_normal() * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
            for k in range(1, 4))
    b = sum(rng.standard_normal() * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
            for k in range(1, 4))
    vals = (1 + 0.1 * a) + 0.1j * b
    vals = vals / np.sqrt(np.mean(np.abs(vals) ** 2))
    return WaveFunction(ComplexField(grid, vals), hbar, eps)


# ---------------------------------------------------------------------------
# modulated kinetic energy
# ---------------------------------------------------------------------------

def test_kinetic_wkb_identity(grid):
    # (i hbar grad + grad U)(sqrt(rho) e^{iU/hbar}) = i hbar e^{iU/hbar} grad sqrt(rho)
    x = grid.axis_points()
    rho = np.exp(0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x))
    rho /= rho.mean()
    pot = 0.2 * np.sin(2 * np.pi * x) / (2 * np.pi) + 0.05 * np.cos(4 * np.pi * x)
    hbar = 0.1
    w = WaveFunction(ComplexField(grid, np.sqrt(rho) * np.exp(1j * pot / hbar)), hbar, 0.05)
    val = kinetic_modulated(w, gradient(RealField(grid, pot)))
    closed = (hbar**2 / 2) * integrate(
        RealField(grid, gradient(RealField(grid, np.sqrt(rho)))[0].values ** 2))
    assert abs(val - closed) < 1e-12 * closed + 1e-16


def test_kinetic_momentum_matched_plane_wave(grid):
    x = grid.axis_points()
    hbar = 0.1
    w = WaveFunction(ComplexField(grid, np.exp(2j * np.pi * x)), hbar, 0.05)
    u = [RealField(grid, np.full(grid.n, 2 * np.pi * hbar))]
    assert kinetic_modulated(w, u) < 1e-25


def test_kinetic_zero_velocity_matches_total_energy(grid):
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = random_state(grid, rng)
        val = kinetic_modulated(w, [RealField(grid, np.zeros(grid.n))])
        ref = 0.5 * w.hbar**2 * float(np.mean(np.abs(w.gradient[0]) ** 2))
        assert abs(val - ref) < 1e-14 * (1 + ref)


# ---------------------------------------------------------------------------
# relative entropy and the CKP bound
# ---------------------------------------------------------------------------

def test_relative_entropy_vanishes_on_equal(grid):
    m = RealField(grid, 1 + 0.4 * np.cos(2 * np.pi * grid.axis_points()))
    assert relative_entropy(m, m) == 0.0


def test_relative_entropy_constants(grid):
    val = relative_entropy(ones(grid), RealField(grid, np.full(grid.n, np.e)))
    assert abs(val - (np.e - 2.0)) < 1e-14


def test_relative_entropy_matches_quadrature(grid):
    x = grid.axis_points()
    m = RealField(grid, 1 + 0.2 * np.cos(2 * np.pi * x))
    val = relative_entropy(m, ones(grid))
    oracle = quad(lambda t: (1 + 0.2 * np.cos(2 * np.pi * t))
                  * np.log(1 + 0.2 * np.cos(2 * np.pi * t)), 0, 1, limit=200)[0]
    assert abs(val - oracle) < 1e-10


def test_relative_entropy_vacuum_convention(grid):
    # m = 1 + cos touches zero on the grid; 0 log 0 = 0 keeps the value finite
    x = grid.axis_points()
    m = RealField(grid, 1 + np.cos(2 * np.pi * x))
    assert float(m.values.min()) == 0.0
    val = relative_entropy(m, ones(grid))
    oracle = quad(lambda t: (1 + np.cos(2 * np.pi * t))
                  * np.log(max(1 + np.cos(2 * np.pi * t), 1e-300)), 0, 1, limit=400)[0]
    assert np.isfinite(val)
    assert abs(val - oracle) < 1e-5  # x log x kink limits the grid quadrature


def test_relative_entropy_validation(grid):
    with pytest.raises(NonpositiveReference):
        relative_entropy(ones(grid), RealField(grid, np.zeros(grid.n)))
    with pytest.raises(ValueError):
        relative_entropy(RealField(grid, np.full(grid.n, -0.5)), ones(grid))


def test_ckp_equal_densities(grid):
    r = ckp_check(ones(grid), ones(grid))
    assert r["l1_distance"] == 0.0
    assert r["passed"]


def test_ckp_cosine_margin(grid):
    x = grid.axis_points()
    r = ckp_check(RealField(grid, 1 + 0.3 * np.cos(2 * np.pi * x)), ones(grid))
    ent_oracle = quad(lambda t: (1 + 0.3 * np.cos(2 * np.pi * t))
                      * np.log(1 + 0.3 * np.cos(2 * np.pi * t)), 0, 1, limit=200)[0]
    l1_oracle = quad(lambda t: abs(0.3 * np.cos(2 * np.pi * t)), 0, 1, limit=200)[0]
    assert abs(r["entropy"] - ent_oracle) < 1e-12
    assert abs(r["l1_distance"] - l1_oracle) < 1e-4  # |.| kink, grid-mean quadrature
    assert r["passed"] and r["margin"] > 0.02


def test_ckp_random_density_pairs(grid):
    from conftest import smooth_density

    rng = np.random.default_rng(42)
    for _ in range(100):
        m = smooth_density(grid, rng)
        rho = smooth_density(grid, rng)
        r = ckp_check(m, rho)
        assert r["l1_distance"] <= r["entropy_bound"] + 1e-8


def test_ckp_near_equal_implies_l1_small(grid):
    # entropy below 1e-10 forces L1 below 1e-4
    x = grid.axis_points()
    rho = np.exp(0.3 * np.cos(2 * np.pi * x))
    rho /= rho.mean()
    m = rho * (1 + 1e-5 * np.cos(2 * np.pi * x))
    m /= m.mean()
    r = ckp_check(RealField(grid, m), RealField(grid, rho))
    assert r["entropy"] < 1e-10
    assert r["l1_distance"] < 1e-4


def test_ckp_rejects_unnormalized(grid):
    with pytest.raises(NotAProbabilityDensity):
        ckp_check(RealField(grid, np.full(grid.n, 2.0)), ones(grid))


# ---------------------------------------------------------------------------
# assembled reports
# ---------------------------------------------------------------------------

def test_modulated_total_equilibrium(grid, flat_euler):
    w = WaveFunction(ComplexField(grid, np.ones(grid.n, dtype=complex)), 0.1, 0.2)
    split = solve_potential(density(w), w.eps)
    rep = modulated_total(w, split, flat_euler)
    for part in (rep.kinetic_modulated, rep.field_energy, rep.relative_entropy,
                 rep.total_modulated, rep.conserved_total):
        assert abs(part) < 1e-14


def test_modulated_total_parts_sum(grid, flat_euler):
    rng = np.random.default_rng(2)
    w = random_state(grid, rng)
    split = solve_potential(density(w), w.eps)
    rep = modulated_total(w, split, flat_euler)
    assert rep.total_modulated == rep.kinetic_modulated + rep.field_energy + rep.relative_entropy
    assert set(asdict(rep)) == {"kinetic_modulated", "field_energy",
                                "relative_entropy", "total_modulated",
                                "conserved_total"}


def test_flat_reference_reproduces_conserved_total(grid, flat_euler):
    # plugging rho = 1, u = 0 into the modulated energy recovers F because
    # int e^V = 1 for every self-consistent solve
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = random_state(grid, rng)
        split = solve_potential(density(w), w.eps)
        rep = modulated_total(w, split, flat_euler)
        assert abs(rep.total_modulated - rep.conserved_total) < 1e-8


def test_modulated_energy_nonnegative(grid, flat_euler):
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = random_state(grid, rng)
        split = solve_potential(density(w), w.eps)
        rep = modulated_total(w, split, flat_euler)
        assert rep.kinetic_modulated >= -1e-12
        assert rep.field_energy >= -1e-12
        assert rep.relative_entropy >= -1e-12
        assert rep.total_modulated >= -1e-12


def test_reports_invariant_under_global_phase(grid, flat_euler):
    rng = np.random.default_rng(5)
    w = random_state(grid, rng)
    w2 = WaveFunction(ComplexField(grid, w.psi.values * np.exp(0.7j)), w.hbar, w.eps)
    s1 = solve_potential(density(w), w.eps)
    s2 = solve_potential(density(w2), w2.eps)
    r1 = modulated_total(w, s1, flat_euler)
    r2 = modulated_total(w2, s2, flat_euler)
    for key, val in asdict(r1).items():
        assert abs(val - asdict(r2)[key]) < 1e-12


# ---------------------------------------------------------------------------
# weak distances
# ---------------------------------------------------------------------------

def test_weak_distances_equilibrium(grid, flat_euler):
    w = WaveFunction(ComplexField(grid, np.ones(grid.n, dtype=complex)), 0.1, 0.2)
    x = grid.axis_points()
    rep = weak_distances(w, flat_euler, solve_potential(density(w), w.eps),
                         kinetic_modulated(w, flat_euler.u),
                         test_fields=[ones(grid), RealField(grid, np.sin(2 * np.pi * x))])
    assert rep["h_minus1_density"] < 1e-12
    assert rep["l1_background"] < 1e-12
    for c in rep["currents"]:
        assert abs(c["value"]) < 1e-14 and c["passed"]


def test_weak_density_distance_matches_closed_form(grid, flat_euler):
    x = grid.axis_points()
    amp = np.sqrt(1 + 0.1 * np.cos(2 * np.pi * x))
    w = WaveFunction(ComplexField(grid, amp.astype(complex)), 0.1, 0.2)
    rep = weak_distances(w, flat_euler, solve_potential(density(w), w.eps),
                         kinetic_modulated(w, flat_euler.u))
    closed = 0.1 / (2 * np.pi * np.sqrt(2))
    assert abs(rep["h_minus1_density"] - closed) < 1e-12
    assert rep["h_minus1_density"] == pytest.approx(
        h_minus1_norm(RealField(grid, 0.1 * np.cos(2 * np.pi * x))), abs=1e-15)


def test_weak_current_bound_on_random_states(grid, flat_euler):
    x = grid.axis_points()
    fields = [ones(grid), RealField(grid, np.sin(2 * np.pi * x)),
              RealField(grid, np.cos(2 * np.pi * x))]
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = random_state(grid, rng)
        split = solve_potential(density(w), w.eps)
        kin = kinetic_modulated(w, flat_euler.u)
        rep = weak_distances(w, flat_euler, split, kin, test_fields=fields)
        for c in rep["currents"]:
            assert c["passed"]
            assert abs(c["value"]) <= 2.0 * np.sqrt(kin) + 1e-14



def test_sample_differentiates_psi_once(grid, flat_euler, transforms):
    # one sweep sample: one complex pair for grad psi, one real pair for
    # grad V, one rfft for the H^-1 norm
    rng = np.random.default_rng(8)
    transforms.paused = True
    w = random_state(grid, rng)
    split = solve_potential(density(w), w.eps)
    transforms.paused = False
    x = grid.axis_points()
    fields = [ones(grid), RealField(grid, np.sin(2 * np.pi * x)),
              RealField(grid, np.cos(2 * np.pi * x))]
    rep = modulated_total(w, split, flat_euler)
    weak_distances(w, flat_euler, split, rep.kinetic_modulated, test_fields=fields)
    assert transforms.counts == {"fft": 1, "ifft": 1, "rfft": 2, "irfft": 1}
