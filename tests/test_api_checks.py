"""Scale parameters that cross the public API: NaN, zero and negative values
are rejected up front with the entry point's own message."""
import math

import numpy as np
import pytest

from qnlab.config import sample_steps
from qnlab.grid import ComplexField, RealField, TorusGrid
from qnlab.initial_data import WellPreparedSpec
from qnlab.nbody import ParticleConfig
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
