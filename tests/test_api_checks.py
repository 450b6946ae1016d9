"""Inputs that cross the public API: NaN, zero and negative scale parameters,
and inputs of the wrong dimension, size or shape, are rejected up front with
the entry point's own message. Densities that cross it are held to the one
contract of qnlab.grid.check_density."""
import math

import numpy as np
import pytest

from qnlab.config import sample_steps
from qnlab.energy import ckp_check, kinetic_modulated
from qnlab.errors import NotAProbabilityDensity
from qnlab.grid import MASS_TOL, ComplexField, RealField, TorusGrid
from qnlab.initial_data import WellPreparedSpec, mollified_empirical, sample_iid, well_prepared
from qnlab.nbody import (ParticleConfig, commutator_functional, green_prime_symbol,
                         renormalized_energy, w1_circle)
from qnlab.poisson_boltzmann import (PotentialSplit, lipschitz_hat_prime, solve_pb,
                                     solve_pb_empirical, w1_stability_check)
from qnlab.schrodinger import WaveFunction, solve_potential, step_strang

GRID = TorusGrid(1, 64)
FLAT = RealField(GRID, np.ones(GRID.n))
PSI = ComplexField(GRID, np.ones(GRID.n, dtype=complex))
ZERO = RealField(GRID, np.zeros(GRID.n))
PLANE = TorusGrid(2, 8)
PLANE_ZERO = RealField(PLANE, np.zeros(PLANE.shape))

CASES = {
    "solve_potential_linear_negative_eps": (
        lambda: solve_potential(FLAT, -0.1, "linear_poisson"), "eps must be positive"),
    "solve_potential_linear_zero_eps": (
        lambda: solve_potential(FLAT, 0.0, "linear_poisson"), "eps must be positive"),
    "wave_function_nan_hbar": (
        lambda: WaveFunction(PSI, math.nan, 0.1), "hbar and eps must be positive"),
    "solve_pb_nan_eps": (lambda: solve_pb(FLAT, math.nan), "eps must be positive"),
    "solve_pb_empirical_nan_eps": (
        lambda: solve_pb_empirical(ParticleConfig(np.array([0.25])), math.nan, GRID),
        "eps must be positive"),
    "step_strang_nan_dt": (
        lambda: step_strang(WaveFunction(PSI, 0.1, 0.1), math.nan), "dt must be positive"),
    "well_prepared_spec_nan_eps": (
        lambda: WellPreparedSpec(FLAT, RealField(GRID, np.zeros(GRID.n)), math.nan, 0.1),
        "eps and hbar must be positive"),
    "sample_steps_nan_dt": (lambda: sample_steps(1.0, math.nan, 1), "need T finite"),
    "sample_steps_infinite_T": (lambda: sample_steps(math.inf, 0.1, 1), "need T finite"),
    "kinetic_modulated_two_components_in_1d": (
        lambda: kinetic_modulated(WaveFunction(PSI, 0.1, 0.1), [ZERO, ZERO]),
        "velocity needs 1 components, got 2"),
    "mollified_empirical_2d": (
        lambda: mollified_empirical(ParticleConfig(np.array([0.25])), 0.1, PLANE),
        "mollified measures are one-dimensional"),
    "green_prime_symbol_2d": (lambda: green_prime_symbol(PLANE), "K' symbol is one-dimensional"),
    "particle_config_empty": (
        lambda: ParticleConfig(np.array([])), "positions must be a nonempty 1-D array"),
    "particle_config_2d": (
        lambda: ParticleConfig(np.zeros((2, 2))), "positions must be a nonempty 1-D array"),
    "particle_config_nan": (
        lambda: ParticleConfig(np.array([0.25, math.nan])), "positions must be finite"),
    "solve_pb_empirical_2d": (
        lambda: solve_pb_empirical(ParticleConfig(np.array([0.25])), 0.1, PLANE),
        "empirical solves are one-dimensional"),
    "lipschitz_hat_prime_2d": (
        lambda: lipschitz_hat_prime(PotentialSplit(PLANE_ZERO, PLANE_ZERO, 0.1, {})),
        "Lipschitz diagnostic is one-dimensional"),
    "w1_stability_check_atoms_without_grid": (
        lambda: w1_stability_check(ParticleConfig(np.array([0.25])), FLAT, 0.1),
        "grid required for empirical inputs"),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_scale_rejected_with_own_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()


X = GRID.axis_points()
BUMP = RealField(GRID, 1.0 + 0.5 * np.cos(2 * np.pi * X))
ATOMS = ParticleConfig(np.array([0.1, 0.4, 0.7]))

DENSITY_TAKERS = {
    "well_prepared_spec": lambda f: WellPreparedSpec(f, RealField(GRID, np.zeros(GRID.n)),
                                                     0.1, 0.1),
    # at eps = 0.01 rho_eps = e^V0 - eps Lap(V0) of every bump below stays
    # positive, so the prepared wave function's mass is the density's
    "well_prepared": lambda f: well_prepared(WellPreparedSpec(f, ZERO, 0.01, 0.1)),
    "sample_iid": lambda f: sample_iid(f, 16, 0),
    "solve_pb": lambda f: solve_pb(f, 0.1),
    "ckp_check_first": lambda f: ckp_check(f, BUMP),
    "ckp_check_second": lambda f: ckp_check(BUMP, f),
    "renormalized_energy": lambda f: renormalized_energy(ATOMS, f),
    "commutator_functional": lambda f: commutator_functional(ATOMS, f, BUMP),
    "w1_circle": lambda f: w1_circle(ATOMS, f),
}


def scaled_bump(mass: float) -> RealField:
    return RealField(GRID, BUMP.values * mass)


def touching_zero() -> RealField:
    """Mass 1 to roundoff, with one node at -1e-13."""
    vals = 1.0 - np.cos(2 * np.pi * X)
    vals[0] = -1e-13
    return RealField(GRID, vals)


@pytest.mark.parametrize("name", DENSITY_TAKERS)
def test_density_contract_is_shared(name):
    take = DENSITY_TAKERS[name]
    assert 5e-9 < MASS_TOL < 1e-7
    with pytest.raises(NotAProbabilityDensity, match="integrates to"):
        take(scaled_bump(1.0 + 1e-7))
    with pytest.raises(NotAProbabilityDensity):
        take(touching_zero())
    take(scaled_bump(1.0 + 5e-9))
