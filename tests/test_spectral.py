"""Tests for the spectral-operator layer: cached symbols, the Nyquist
convention, the half-spectrum bookkeeping of real fields and resampling."""
import itertools

import numpy as np
import pytest
from conftest import full_k_squared, full_wavenumbers, trig_poly

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
        k = full_wavenumbers(grid, axis)
        np.testing.assert_array_equal(2 * np.pi * sym.modes[axis], k)
        keep &= np.abs(k) <= 2 * np.pi * grid.n / 3
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
        want = np.abs(np.broadcast_to(full.modes[axis], grid.shape)[..., :m])
        np.testing.assert_array_equal(np.abs(np.broadcast_to(half.modes[axis], want.shape)), want)


def test_symbols_cached_per_grid_and_read_only():
    sym = spectral.symbols(TorusGrid(2, 64), real=True)
    assert spectral.symbols(TorusGrid(2, 64), real=True) is sym
    assert spectral.symbols(TorusGrid(2, 64), real=False) is not sym
    for arr in (*sym.modes, *sym.ik, sym.minus_k2, sym.inv_k2, sym.dealias, sym.pair_weight):
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


def zero_padded(values, shape):
    """Full-spectrum zero-padding of real `values` onto `shape`: each
    coefficient goes to its fftfreq mode on the finer grid, a coarse Nyquist
    coefficient split evenly between the modes +n/2 and -n/2 of its axis."""
    n = values.shape[0]
    coeff = np.fft.fftn(values) / values.size
    freq = np.fft.fftfreq(n, 1.0 / n).astype(int)
    out = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(values.shape):
        k = [freq[i] for i in idx]
        aliases = list(itertools.product(*[(m, -m) if abs(m) == n // 2 else (m,) for m in k]))
        for mode in aliases:
            out[mode] += coeff[idx] / len(aliases)
    padded = np.fft.ifftn(out) * out.size
    assert np.max(np.abs(padded.imag)) <= 1e-14 * np.max(np.abs(padded.real))
    return padded.real


RESAMPLINGS = [(TorusGrid(1, 32), TorusGrid(1, 2048))]


@pytest.mark.parametrize("coarse,fine", RESAMPLINGS, ids=lambda g: f"{g.dim}d-n{g.n}")
def test_resample_is_full_spectrum_zero_padding(coarse, fine):
    vals = white_noise(coarse, seed=11)
    got = spectral.resample(vals, fine.shape)
    want = zero_padded(vals, fine.shape)
    assert got.shape == fine.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the interpolant takes the data at the coarse nodes
    nodes = got[(slice(None, None, fine.n // coarse.n),) * coarse.dim]
    assert np.max(np.abs(nodes - vals)) <= 1e-14 * np.max(np.abs(vals))


@pytest.mark.parametrize("coarse,fine", RESAMPLINGS, ids=lambda g: f"{g.dim}d-n{g.n}")
def test_resample_round_trip_of_a_band_limited_field(coarse, fine):
    # modes |k_axis| <= 4 lie below the coarse Nyquist mode, so the coarse
    # nodes determine the field
    vals = trig_poly(fine, np.random.default_rng(3)).values
    nodes = vals[(slice(None, None, fine.n // coarse.n),) * coarse.dim]
    back = spectral.resample(nodes, fine.shape)
    assert np.max(np.abs(back - vals)) <= 1e-14 * np.max(np.abs(vals))


def test_resample_onto_its_own_grid_returns_the_values():
    vals = white_noise(TorusGrid(1, 8), seed=1)
    assert spectral.resample(vals, (8,)) is vals
    for shape in [(4,), (8, 8), (16, 16)]:
        with pytest.raises(ValueError):
            spectral.resample(vals, shape)


def complex_zero_padded(values, n_fine):
    """Zero-padding of complex 1-D `values` onto n_fine nodes, mode by mode:
    each coefficient goes to its fftfreq mode, the coarse Nyquist coefficient
    split evenly between the modes +n/2 and -n/2."""
    n = values.size
    out = np.zeros(n_fine, dtype=complex)
    for c, k in zip(np.fft.fft(values) / n, np.fft.fftfreq(n, 1.0 / n).astype(int)):
        modes = (k, -k) if abs(k) == n // 2 else (k,)
        for m in modes:
            out[m] += c / len(modes)
    return np.fft.ifft(out) * n_fine


def complex_noise(n, seed):
    """Complex data with energy in every mode, the Nyquist mode included."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_complex_resample_is_full_spectrum_zero_padding():
    vals = complex_noise(32, seed=12)
    got = spectral.resample(vals, (2048,))
    want = complex_zero_padded(vals, 2048)
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the interpolant takes the data at the coarse nodes
    assert np.max(np.abs(got[::64] - vals)) <= 1e-14 * np.max(np.abs(vals))


def test_complex_resample_round_trip_of_a_band_limited_field():
    # modes |k| <= 5 lie below the coarse Nyquist mode 16, so the 32 coarse
    # nodes determine the field, whose spectrum is not conjugate-symmetric
    fine = TorusGrid(1, 2048)
    rng = np.random.default_rng(4)
    x = fine.axis_points()
    vals = (trig_poly(fine, rng).values + 1j * trig_poly(fine, rng).values
            + 0.3 * np.exp(10j * np.pi * x))
    back = spectral.resample(vals[::64], fine.shape)
    assert np.max(np.abs(back - vals)) <= 1e-14 * np.max(np.abs(vals))


def test_real_resample_is_the_half_spectrum_padding_bit_for_bit():
    # the rfft half spectrum scaled by n_fine/n, its Nyquist coefficient
    # halved, zero-padded and inverted; real data never take the complex path
    vals = white_noise(TorusGrid(1, 32), seed=13)
    hat = np.fft.rfft(vals) * (2048 / 32)
    hat[-1] *= 0.5
    padded = np.zeros(1025, dtype=complex)
    padded[:hat.size] = hat
    got = spectral.resample(vals, (2048,))
    assert got.dtype == np.float64
    assert np.array_equal(got, np.fft.irfft(padded, 2048))
    # the complex path agrees on real data up to roundoff
    assert np.max(np.abs(spectral.resample(vals + 0j, (2048,)) - got)) <= 1e-14
