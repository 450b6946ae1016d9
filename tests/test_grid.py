import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trig_poly
from qnlab import spectral
from qnlab.errors import NonZeroMean
from qnlab.grid import (
    ComplexField,
    RealField,
    TorusGrid,
    gradient,
    h_minus1_norm,
    integrate,
    inverse_laplacian_zero_mean,
    l2_norm,
    laplacian,
    spectral_derivative,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, 48)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(1, 4)  # too small
    g = TorusGrid(2, 16)
    assert g.shape == (16, 16)


def test_field_rejects_bad_values(grid256):
    with pytest.raises(ValueError):
        RealField(grid256, np.zeros(7))
    bad = np.zeros(grid256.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        RealField(grid256, bad)


def test_derivative_single_mode(grid256):
    x = grid256.coords()[0]
    f = RealField(grid256, np.sin(2 * np.pi * x))
    df = spectral_derivative(f, 0)
    assert np.allclose(df.values, 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12)


def test_derivative_of_constant(grid256):
    f = RealField(grid256, np.ones(grid256.shape))
    assert np.allclose(spectral_derivative(f, 0).values, 0.0, atol=1e-14)


def test_derivative_axis_out_of_range(grid256):
    f = RealField(grid256, np.zeros(grid256.shape))
    with pytest.raises(ValueError):
        spectral_derivative(f, 1)


def test_derivative_matches_finite_differences():
    # Centered finite differences on refined grids converge at O(h^2) to the
    # spectral derivative. Error bound h^2 * ||f'''||_inf / 6 with
    # f = sin(2 pi x) + cos(4 pi x).
    def f(x):
        return np.sin(2 * np.pi * x) + np.cos(4 * np.pi * x)

    g = TorusGrid(1, 64)
    df = spectral_derivative(RealField(g, f(g.axis_points())), 0)
    fppp_sup = (2 * np.pi) ** 3 + (4 * np.pi) ** 3
    errs = {}
    for n_fine in (512, 1024):
        h = 1.0 / n_fine
        xf = np.arange(n_fine) / n_fine
        fd = (f(np.roll(xf, 0) + h) - f(xf - h)) / (2 * h)
        on_coarse = fd[:: n_fine // 64]
        errs[n_fine] = np.max(np.abs(on_coarse - df.values))
        assert errs[n_fine] <= 1.05 * fppp_sup / 6 * h**2
    assert 3.7 <= errs[512] / errs[1024] <= 4.3


def test_derivative_zeroes_nyquist_mode():
    g = TorusGrid(1, 32)
    x = g.axis_points()
    f = RealField(g, np.cos(np.pi * g.n * x))  # pure Nyquist mode
    df = spectral_derivative(f, 0)
    assert np.allclose(df.values, 0.0, atol=1e-13)
    assert df.values.dtype.kind == "f"


@pytest.mark.parametrize("dim, n", [(1, 256), (1, 2048), (2, 32), (2, 256)])
def test_gradient_is_the_derivative_per_axis_bit_for_bit(dim, n, transforms):
    # one forward transform and one inverse, stacked in 2-D (a 1-D stack of
    # one field only cost time), the values of spectral_derivative along
    # every axis
    g = TorusGrid(dim, n)
    vals = np.random.default_rng(n).standard_normal(g.shape)
    for f in (RealField(g, vals), ComplexField(g, vals + 1j * vals[::-1])):
        transforms.paused = True
        want = [spectral_derivative(f, axis) for axis in range(dim)]
        transforms.paused = False
        counts = dict(transforms.counts)
        got = gradient(f)
        calls = {k: transforms.counts[k] - counts[k] for k in counts}
        assert calls == ({"fft": 0, "ifft": 0, "rfft": 1, "irfft": 1} if isinstance(f, RealField)
                         else {"fft": 1, "ifft": 1, "rfft": 0, "irfft": 0})
        for a, b in zip(got, want, strict=True):
            assert type(a) is type(b)
            assert np.array_equal(a.values, b.values)


def test_derivative_2d_axes():
    g = TorusGrid(2, 32)
    X, Y = g.coords()
    f = RealField(g, np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y))
    fx = spectral_derivative(f, 0)
    fy = spectral_derivative(f, 1)
    assert np.allclose(fx.values, 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(4 * np.pi * Y), atol=1e-11)
    assert np.allclose(fy.values, -4 * np.pi * np.sin(2 * np.pi * X) * np.sin(4 * np.pi * Y), atol=1e-11)


def test_inverse_laplacian_single_mode(grid256):
    x = grid256.coords()[0]
    f = RealField(grid256, np.cos(2 * np.pi * x))
    g = inverse_laplacian_zero_mean(f)
    assert np.allclose(g.values, np.cos(2 * np.pi * x) / (4 * np.pi**2), atol=1e-13)


def test_inverse_laplacian_zero_field(grid256):
    f = RealField(grid256, np.zeros(grid256.shape))
    assert np.allclose(inverse_laplacian_zero_mean(f).values, 0.0)


def test_inverse_laplacian_2d_product_mode():
    g = TorusGrid(2, 32)
    X, Y = g.coords()
    f = RealField(g, np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    sol = inverse_laplacian_zero_mean(f)
    assert np.allclose(sol.values, f.values / (8 * np.pi**2), atol=1e-13)


def test_inverse_laplacian_rejects_nonzero_mean(grid256):
    f = RealField(grid256, 1.0 + np.cos(2 * np.pi * grid256.coords()[0]))
    with pytest.raises(NonZeroMean):
        inverse_laplacian_zero_mean(f)


def test_laplacian_inverts_inverse_laplacian(grid256):
    rng = np.random.default_rng(7)
    f = trig_poly(grid256, rng, zero_mean=True)
    g = inverse_laplacian_zero_mean(f)
    back = laplacian(g)
    assert np.max(np.abs(back.values + f.values)) < 1e-10


def test_integrate_constants_and_modes(grid256):
    ones = RealField(grid256, np.ones(grid256.shape))
    assert integrate(ones) == pytest.approx(1.0, abs=1e-15)
    f = RealField(grid256, np.sin(2 * np.pi * grid256.coords()[0]))
    assert abs(integrate(f)) < 1e-14


def test_integrate_exponential_against_quadrature(grid256):
    x = grid256.coords()[0]
    f = RealField(grid256, np.exp(np.cos(2 * np.pi * x)))
    oracle, err = scipy.integrate.quad(
        lambda t: np.exp(np.cos(2 * np.pi * t)), 0.0, 1.0, epsabs=1e-14, limit=200
    )
    assert err < 5e-12
    assert abs(integrate(f) - oracle) < 1e-12
    # same number in closed form: modified Bessel I0(1)
    assert abs(integrate(f) - scipy.special.i0(1.0)) < 1e-12


def test_integrate_linear_positive(grid256):
    rng = np.random.default_rng(3)
    f = trig_poly(grid256, rng)
    g = trig_poly(grid256, rng)
    lhs = integrate(RealField(grid256, 2.0 * f.values - 0.5 * g.values))
    assert lhs == pytest.approx(2.0 * integrate(f) - 0.5 * integrate(g), abs=1e-13)
    pos = RealField(grid256, np.abs(f.values) + 0.1)
    assert integrate(pos) > 0


def test_h_minus1_norm_single_mode(grid256):
    x = grid256.coords()[0]
    f = RealField(grid256, np.cos(2 * np.pi * x))
    assert h_minus1_norm(f) == pytest.approx(1.0 / (2 * np.pi * np.sqrt(2)), abs=1e-14)
    zero = RealField(grid256, np.zeros(grid256.shape))
    assert h_minus1_norm(zero) == 0.0


def test_h_minus1_norm_rejects_nonzero_mean(grid256):
    f = RealField(grid256, np.ones(grid256.shape))
    with pytest.raises(NonZeroMean):
        h_minus1_norm(f)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h_minus1_norm_equals_gradient_of_potential(grid256, seed):
    rng = np.random.default_rng(seed)
    f = trig_poly(grid256, rng, zero_mean=True)
    pot = inverse_laplacian_zero_mean(f)
    via_gradient = l2_norm(gradient(pot)[0])
    assert h_minus1_norm(f) == pytest.approx(via_gradient, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval(seed):
    g = TorusGrid(1, 64)
    rng = np.random.default_rng(seed)
    f = trig_poly(g, rng)
    phys = l2_norm(f) ** 2
    sym = spectral.symbols(g, real=True)
    spec = sym.parseval(np.abs(sym.forward(f.values)) ** 2) / g.size**2
    assert abs(phys - spec) <= 1e-12 * max(phys, 1e-30)


def test_complex_field_roundtrip(grid256):
    x = grid256.coords()[0]
    psi = ComplexField(grid256, np.exp(2j * np.pi * x))
    dpsi = spectral_derivative(psi, 0)
    assert np.allclose(dpsi.values, 2j * np.pi * psi.values, atol=1e-12)
