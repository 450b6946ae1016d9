"""Periodic-grid fields and Fourier calculus on the unit torus, d in {1, 2}.

All solvers in the package run on a uniform n^d grid over [0,1)^d with
periodic wrap-around; integrals are grid means (the torus has volume one),
derivatives and inverse Laplacians are exact Fourier-multiplier operations
for band-limited fields.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import NonZeroMean, NotAProbabilityDensity

# Roundoff-scale guard for operations that require an analytically
# mean-zero input: |mean(f)| <= MEAN_TOL_FACTOR * ||f||_2.
MEAN_TOL_FACTOR = 1e-10
# how far from 1 the grid mass of a probability density may be
MASS_TOL = 1e-8


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: `n` points per axis on the unit torus."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates, one full-shape array per axis."""
        x = self.axis_points()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))


@dataclass
class RealField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        _check_values(self.grid, self.values)


@dataclass
class ComplexField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        _check_values(self.grid, self.values)


Field = RealField | ComplexField


def _check_values(grid: TorusGrid, values: np.ndarray) -> None:
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")


def integrate(f: Field) -> float | complex:
    """Integral over the unit torus = mean of node values (trapezoid rule)."""
    m = f.values.mean()
    return complex(m) if np.iscomplexobj(f.values) else float(m)


def check_density(f: RealField) -> None:
    """The package's probability-density contract: nonnegative at every node
    and integrating to 1 within MASS_TOL; raises NotAProbabilityDensity."""
    if float(np.min(f.values)) < 0.0:
        raise NotAProbabilityDensity("density has negative values")
    total = integrate(f)
    if abs(total - 1.0) > MASS_TOL:
        raise NotAProbabilityDensity(f"density integrates to {total!r}, not 1")


def l2_norm(f: Field) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


def _apply(f: Field, pick) -> Field:
    """Apply the multiplier pick(symbols) of f's spectrum layout to f."""
    real = isinstance(f, RealField)
    sym = spectral.symbols(f.grid, real=real)
    return (RealField if real else ComplexField)(f.grid, sym.apply(f.values, pick(sym)))


def spectral_derivative(f: Field, axis: int) -> Field:
    """Exact first derivative of the trigonometric interpolant along `axis`.

    The Nyquist mode is zeroed (odd-order derivative convention), which keeps
    derivatives of real fields real.
    """
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return _apply(f, lambda sym: sym.ik[axis])


def gradient(f: Field) -> tuple[Field, ...]:
    return tuple(spectral_derivative(f, axis) for axis in range(f.grid.dim))


def laplacian(f: Field) -> Field:
    return _apply(f, lambda sym: sym.minus_k2)


def _require_mean_zero(f: RealField, what: str) -> None:
    if abs(f.values.mean()) > MEAN_TOL_FACTOR * l2_norm(f):
        raise NonZeroMean(f"{what} needs a mean-zero field, got mean {f.values.mean():.3e}")


def inverse_laplacian_zero_mean(f: RealField) -> RealField:
    """Solve -Lap(g) = f spectrally with mean(g) = 0.

    Requires f to be mean-free up to roundoff; raises NonZeroMean otherwise.
    """
    _require_mean_zero(f, "inverse Laplacian")
    return _apply(f, lambda sym: sym.inv_k2)


def h_minus1_norm(f: RealField) -> float:
    """Homogeneous H^-1 norm (sum over k != 0 of |c_k|^2 / |2 pi k|^2)^(1/2)."""
    _require_mean_zero(f, "H^-1 norm")
    sym = spectral.symbols(f.grid, real=True)
    power = np.abs(sym.forward(f.values)) ** 2 * sym.inv_k2
    return float(np.sqrt(sym.parseval(power))) / f.grid.size

