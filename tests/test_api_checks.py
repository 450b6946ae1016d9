"""Scale parameters that cross the public API: NaN, zero and negative values
are rejected up front with the entry point's own message. Densities that
cross it are held to the one contract of qnlab.grid.check_density."""
import math

import numpy as np
import pytest

from qnlab.config import sample_steps
from qnlab.energy import ckp_check
from qnlab.errors import NotAProbabilityDensity
from qnlab.grid import MASS_TOL, ComplexField, RealField, TorusGrid
from qnlab.initial_data import WellPreparedSpec, sample_iid
from qnlab.nbody import ParticleConfig, commutator_functional, renormalized_energy, w1_circle
from qnlab.poisson_boltzmann import solve_pb, solve_pb_empirical
from qnlab.schrodinger import WaveFunction, solve_potential, step_strang

GRID = TorusGrid(1, 64)
FLAT = RealField(GRID, np.ones(GRID.n))
PSI = ComplexField(GRID, np.ones(GRID.n, dtype=complex))

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
