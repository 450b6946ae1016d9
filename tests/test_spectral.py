"""Tests for the spectral-operator layer: cached symbols, the Nyquist
convention and the half-spectrum bookkeeping of real fields."""
import numpy as np
import pytest
from conftest import full_k_squared, full_wavenumbers

from qnlab import spectral
from qnlab.grid import RealField, TorusGrid, h_minus1_norm, spectral_derivative

GRIDS = [TorusGrid(1, 2048), TorusGrid(1, 8), TorusGrid(2, 256), TorusGrid(2, 8)]


def white_noise(grid, seed, zero_mean=False):
    """Real data with energy in every mode, the Nyquist mode included."""
    vals = np.random.default_rng(seed).standard_normal(grid.shape)
    return vals - vals.mean() if zero_mean else vals


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_full_symbols_match_reference(grid):
    sym = spectral.symbols(grid, real=False)
    for axis in range(grid.dim):
        k = full_wavenumbers(grid, axis)
        nyquist = np.abs(k) == np.pi * grid.n
        np.testing.assert_array_equal(sym.ik[axis], np.where(nyquist, 0.0, 1j * k))
    np.testing.assert_array_equal(np.broadcast_to(sym.minus_k2, grid.shape), -full_k_squared(grid))
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        keep &= np.abs(full_wavenumbers(grid, axis)) <= 2 * np.pi * grid.n / 3
    np.testing.assert_array_equal(np.broadcast_to(sym.dealias, grid.shape), keep)


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_half_symbols_are_the_nonnegative_last_axis_modes(grid):
    full = spectral.symbols(grid, real=False)
    half = spectral.symbols(grid, real=True)
    m = grid.n // 2 + 1
    for axis in range(grid.dim):
        assert half.ik[axis].ndim == grid.dim
        # per-axis symbols stay broadcastable instead of full-size
        assert half.ik[axis].size == (m if axis == grid.dim - 1 else grid.n)
    # last-axis mode n/2 is +n/2 in the half spectrum and -n/2 in the full one;
    # every symbol here is even in it or zero there
    for name in ("minus_k2", "inv_k2", "dealias"):
        want = np.broadcast_to(getattr(full, name), grid.shape)[..., :m]
        np.testing.assert_array_equal(np.broadcast_to(getattr(half, name), want.shape), want)
    for axis in range(grid.dim):
        want = np.broadcast_to(full.ik[axis], grid.shape)[..., :m]
        np.testing.assert_array_equal(np.broadcast_to(half.ik[axis], want.shape), want)


def test_symbols_cached_per_grid_and_read_only():
    sym = spectral.symbols(TorusGrid(2, 64), real=True)
    assert spectral.symbols(TorusGrid(2, 64), real=True) is sym
    assert spectral.symbols(TorusGrid(2, 64), real=False) is not sym
    for arr in (*sym.ik, sym.minus_k2, sym.inv_k2, sym.dealias, sym.pair_weight):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("grid", [TorusGrid(1, 2048), TorusGrid(2, 256)], ids=str)
def test_nyquist_convention_agrees_on_real_fields(grid):
    # keeping the Nyquist mode and taking the real part gives the same
    # derivative as zeroing it: the mode's contribution is purely imaginary
    vals = white_noise(grid, seed=grid.dim)
    for axis in range(grid.dim):
        kept = np.fft.ifftn(np.fft.fftn(vals) * 1j * full_wavenumbers(grid, axis)).real
        zeroed = spectral_derivative(RealField(grid, vals), axis).values
        assert np.max(np.abs(zeroed - kept)) <= 3e-14 * np.max(np.abs(kept))


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_h_minus1_norm_counts_conjugate_pairs(grid):
    vals = white_noise(grid, seed=7, zero_mean=True)
    coeff = np.fft.fftn(vals) / grid.size
    k2 = full_k_squared(grid)
    terms = np.abs(coeff) ** 2 / np.where(k2 == 0.0, 1.0, k2)
    terms[(0,) * grid.dim] = 0.0
    want = float(np.sqrt(terms.sum()))
    assert h_minus1_norm(RealField(grid, vals)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_parseval_sums_the_full_spectrum(grid):
    # grid mean of f^2 = sum over the full spectrum of |c_k|^2, on either layout
    vals = white_noise(grid, seed=9)
    want = float(np.mean(vals**2))
    for real in (True, False):
        sym = spectral.symbols(grid, real=real)
        power = np.abs(sym.forward(vals) / grid.size) ** 2
        assert sym.parseval(power) == pytest.approx(want, rel=1e-13)
