"""Tests for the spectral-operator layer: cached symbols, the Nyquist
convention, the half-spectrum bookkeeping of real fields and resampling."""
import numpy as np
import pytest
from conftest import full_k_squared, full_wavenumbers, trig_poly, zero_padded

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


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("real", [True, False])
def test_shell_is_the_top_half_of_the_dealiased_band(grid, real):
    sym = spectral.symbols(grid, real=real)
    assert sym.edge == grid.n / 3.0
    # the grid rule's lower edge, n/6 bit for bit
    assert sym.edge / 2.0 == grid.n / 6.0
    top = np.zeros(grid.shape)
    for axis in range(grid.dim):
        top = np.maximum(top, np.rint(np.abs(full_wavenumbers(grid, axis)) / (2 * np.pi)))
    want = (top > grid.n / 6.0) & (top <= grid.n / 3.0)
    if real:
        want = want[..., :grid.n // 2 + 1]
    # a boolean mask per cached grid, not another float array
    assert sym.shell.dtype == bool
    np.testing.assert_array_equal(np.broadcast_to(sym.shell, want.shape), want)
    assert not sym.shell.flags.writeable


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


# white noise loads every coarse mode, so in 2-D both Nyquist lines (the
# row of the full axis and the column of the half-spectrum axis) are split
RESAMPLINGS = [(TorusGrid(1, 32), TorusGrid(1, 2048)), (TorusGrid(2, 32), TorusGrid(2, 128))]


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


def test_2d_resample_onto_its_own_grid_returns_the_values():
    vals = white_noise(TorusGrid(2, 16), seed=2)
    assert spectral.resample(vals, (16, 16)) is vals
    for shape in [(8, 8), (32, 16), (16, 32), (32,), (32, 32, 32)]:
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


@pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)], ids=str)
def test_zero_pad_leaves_the_spectrum_it_reads(grid):
    # on its own grid zero_pad is the identity; onto a finer one it halves a
    # copy's Nyquist lines, not the caller's coefficients, which
    # euler_constants pads twice
    hat = spectral.rfft(white_noise(grid, seed=3), grid.shape)
    assert spectral.zero_pad(hat, grid.shape) is hat
    before = hat.copy()
    spectral.zero_pad(hat, (2 * grid.n,) * grid.dim)
    assert np.array_equal(hat, before)


# coarse and fine grids per axis of the pruned inverse; white noise loads both
# Nyquist lines, which zero_pad splits
PADDINGS = [(8, 8), (8, 32), (16, 64), (32, 256), (64, 128)]


@pytest.mark.parametrize("n_e, n", PADDINGS, ids=str)
def test_2d_irfft_padded_is_the_zero_padded_irfft_bit_for_bit(n_e, n):
    # the first-axis inverse on the columns the coarse spectrum fills only,
    # with and without each derivative symbol of the fine half spectrum
    fine = TorusGrid(2, n)
    ik = spectral.symbols(fine, real=True).ik
    for seed in range(3):
        hat = spectral.rfft(white_noise(TorusGrid(2, n_e), seed=seed), (n_e, n_e))
        before = hat.copy()
        padded = spectral.zero_pad(hat, fine.shape)
        assert np.array_equal(spectral.irfft_padded(hat, fine.shape),
                              np.fft.irfft2(padded, s=fine.shape))
        for symbol in ik:
            got = spectral.irfft_padded(hat, fine.shape, symbol)
            want = np.fft.irfft2(symbol * padded, s=fine.shape)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(hat, before)


def test_1d_irfft_padded_is_the_zero_padded_irfft():
    fine = TorusGrid(1, 2048)
    [ik] = spectral.symbols(fine, real=True).ik
    hat = spectral.rfft(white_noise(TorusGrid(1, 32), seed=5), (32,))
    padded = spectral.zero_pad(hat, fine.shape)
    assert np.array_equal(spectral.irfft_padded(hat, fine.shape),
                          np.fft.irfft(padded, fine.n))
    assert np.array_equal(spectral.irfft_padded(hat, fine.shape, ik),
                          np.fft.irfft(ik * padded, fine.n))


# stacks of 2 fields and of enough fields to pass STACK_BYTES, which splits a
# 2-D stack into two or more calls (from 128^2 up a field is a call of its
# own either way) and leaves a 1-D stack whole (a 16384-node complex field is
# past the budget on its own)
STACKED_GRIDS = [TorusGrid(1, 256), TorusGrid(1, 2048), TorusGrid(1, 16384), TorusGrid(2, 32),
                 TorusGrid(2, 64), TorusGrid(2, 128), TorusGrid(2, 256)]


def stack_sizes(grid):
    # a real field is the smallest input; the larger stack passes the budget
    # with every transform
    return sorted({2, spectral.STACK_BYTES // (8 * grid.size) + 2})


# numpy's own transform of one field on a 1-D or 2-D grid `shape`
NUMPY_ALONE = {
    1: {"rfft": lambda f, shape: np.fft.rfft(f),
        "irfft": lambda h, shape: np.fft.irfft(h, shape[0]),
        "fft": lambda f, shape: np.fft.fft(f), "ifft": lambda h, shape: np.fft.ifft(h)},
    2: {"rfft": lambda f, shape: np.fft.rfft2(f), "irfft": np.fft.irfft2,
        "fft": lambda f, shape: np.fft.fft2(f), "ifft": lambda h, shape: np.fft.ifft2(h)},
}


def _layouts(values):
    """`values`, a strided view and a transposed view (every axis reversed)
    of arrays holding the same numbers."""
    strided = np.empty((*values.shape[:-1], 2 * values.shape[-1]), values.dtype)[..., ::2]
    transposed = np.empty(values.shape[::-1], values.dtype).T
    strided[...] = transposed[...] = values
    return values, strided, transposed


@pytest.mark.parametrize("grid", STACKED_GRIDS, ids=str)
def test_stacked_transforms_are_the_single_ones_bit_for_bit(grid):
    # a 1-D field or stack of any size is one numpy call, a 2-D one goes in
    # chunks of whole fields: each field, alone or in a stack, contiguous,
    # strided or transposed, comes out as numpy's public transform makes it
    # of that field alone, into `out` or not
    rng = np.random.default_rng(grid.n)
    shape = grid.shape
    half = (*shape[:-1], shape[-1] // 2 + 1)
    for lead in [(), *((count,) for count in stack_sizes(grid))]:
        real = rng.standard_normal((*lead, *shape))
        cplx = real + 1j * rng.standard_normal(real.shape)
        spec = rng.standard_normal((*lead, *half)) + 1j * rng.standard_normal((*lead, *half))
        out = np.empty(real.shape)
        assert spectral.irfft(spec, shape, out) is out
        cases = [(name, getattr(spectral, name)(view, shape), view)
                 for name, values in (("rfft", real), ("irfft", spec), ("fft", cplx),
                                      ("ifft", cplx))
                 for view in _layouts(values)]
        for name, got, values in [*cases, ("irfft", out, spec)]:
            assert got.shape[:len(lead)] == lead
            for index in np.ndindex(lead):
                want = NUMPY_ALONE[grid.dim][name](values[index], shape)
                assert got[index].shape == want.shape and got[index].dtype == want.dtype
                assert got[index].tobytes() == want.tobytes(), (name, lead, values.strides)


# the gufuncs that numpy's transforms end in, which spectral calls by name
POCKETFFT_GUFUNCS = {"rfft_n_even": "(n),()->(m)", "rfft_n_odd": "(n),()->(m)",
                     "irfft": "(m),()->(n)", "fft": "(n),()->(m)", "ifft": "(m),()->(n)"}


@pytest.mark.parametrize("grid", STACKED_GRIDS, ids=str)
def test_a_1d_transform_is_one_call_and_a_2d_stack_goes_in_chunks(grid, monkeypatch):
    # a 1-D transform is one gufunc call at any stack size (an (8, 16384)
    # complex stack is 2 MB); a 2-D one is two passes per chunk of as many
    # whole fields as fit in STACK_BYTES of input, at least one
    calls = []
    pocketfft = np.fft._pocketfft_umath
    for name in POCKETFFT_GUFUNCS:
        def counted(*args, _ufunc=getattr(pocketfft, name), **kwargs):
            calls.append(_ufunc.__name__)
            return _ufunc(*args, **kwargs)
        monkeypatch.setattr(pocketfft, name, counted)
    shape = grid.shape
    half = (*shape[:-1], shape[-1] // 2 + 1)
    for fields in sorted({1, 8, *stack_sizes(grid)}):
        real = np.zeros((fields, *shape))
        for name, values in (("rfft", real), ("irfft", np.zeros((fields, *half), complex)),
                             ("fft", real + 0j), ("ifft", real + 0j)):
            calls.clear()
            getattr(spectral, name)(values, shape)
            per = max(1, spectral.STACK_BYTES // values[0].nbytes)
            want = 1 if grid.dim == 1 else 2 * -(-fields // per)
            assert len(calls) == want, (name, fields)


def test_numpy_has_the_gufuncs_spectral_calls():
    # a numpy that renames one of them, or changes its signature, fails here by name
    pocketfft = np.fft._pocketfft_umath
    for name, signature in POCKETFFT_GUFUNCS.items():
        ufunc = getattr(pocketfft, name)
        assert isinstance(ufunc, np.ufunc) and ufunc.__name__ == name
        assert (ufunc.signature, ufunc.nin, ufunc.nout) == (signature, 2, 1), name


def test_transforms_go_past_numpys_wrappers(monkeypatch):
    # every transform, 1-D and 2-D, and the pruned irfft_padded run with
    # np.fft's public transforms gone
    for name in ("rfft", "irfft", "fft", "ifft", "rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.delattr(np.fft, name)
    for grid in (TorusGrid(1, 64), TorusGrid(2, 16)):
        values = white_noise(grid, seed=3)
        hat = spectral.rfft(values, grid.shape)
        assert np.allclose(spectral.irfft(hat, grid.shape), values)
        assert np.allclose(spectral.ifft(spectral.fft(values + 0j, grid.shape), grid.shape), values)
    assert spectral.irfft_padded(hat, (32, 32)).shape == (32, 32)


def test_a_strided_out_is_refused():
    # the chunks of a stack past STACK_BYTES write through a reshape of `out`,
    # which of a strided array would be a copy that the caller never sees
    grid = TorusGrid(2, 64)
    hat = spectral.rfft(np.zeros((8, *grid.shape)), grid.shape)
    assert hat.nbytes > spectral.STACK_BYTES
    out = np.empty((8, grid.n, 2 * grid.n))[..., ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        spectral.irfft(hat, grid.shape, out)


@pytest.mark.parametrize("grid", [TorusGrid(1, 256), TorusGrid(2, 16)], ids=str)
def test_an_out_of_another_shape_is_refused(grid):
    # numpy's gufuncs would fit the transform to whatever `out` they are given
    hat = spectral.rfft(np.zeros(grid.shape), grid.shape)
    for shape in [(*grid.shape[:-1], grid.n + 2), (2, *grid.shape)]:
        with pytest.raises(ValueError, match="shape"):
            spectral.irfft(hat, grid.shape, np.empty(shape))


def test_leading_axes_of_a_stack_are_all_fields():
    # a (2, 3) stack of 1-D fields has the ndim of a 2-D field and a 3-D array's
    grid = TorusGrid(1, 2048)
    vals = np.random.default_rng(4).standard_normal((2, 3, grid.n))
    hat = spectral.rfft(vals, grid.shape)
    assert hat.shape == (2, 3, grid.n // 2 + 1)
    assert np.array_equal(hat[1, 2], spectral.rfft(vals[1, 2], grid.shape))
    assert np.array_equal(spectral.irfft(hat, grid.shape)[1, 2],
                          spectral.irfft(hat[1, 2], grid.shape))


@pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)], ids=str)
def test_zero_pad_of_a_stack_pads_each_field(grid):
    vals = np.random.default_rng(6).standard_normal((3, *grid.shape))
    hat = spectral.rfft(vals, grid.shape)
    fine = (4 * grid.n,) * grid.dim
    padded = spectral.zero_pad(hat, fine)
    for got, h in zip(padded, hat, strict=True):
        assert np.array_equal(got, spectral.zero_pad(h, fine))
