import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from qnlab import spectral
from qnlab.config import ExperimentConfig, build_config
from qnlab.grid import RealField, TorusGrid


@pytest.fixture
def grid256() -> TorusGrid:
    return TorusGrid(1, 256)


def data_config(rho0_amp: float, u0_amp: float, **fields) -> ExperimentConfig:
    """The default configuration with the initial data (rho0_amp, u0_amp),
    and any other `fields`, replaced."""
    return dataclasses.replace(build_config({}, "pb_solve"), rho0_amp=rho0_amp,
                               u0_amp=u0_amp, **fields)


class TransformCounter:
    """Counts the calls of each qnlab.spectral transform and the fields they
    transform, except while `paused`: `counts` (calls) and `fields` by name,
    `by_shape` (fields) by (name, grid shape), the trailing axes every
    transform is given. A stack of fields is one call and a field per row.
    An irfft_padded call counts as one irfft to its shape, whatever it calls."""

    def __init__(self, monkeypatch) -> None:
        self.counts = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0)
        self.fields = dict.fromkeys(self.counts, 0)
        self.by_shape = Counter()
        self.paused = False
        for name in self.counts:
            monkeypatch.setattr(spectral, name, self._counted(name, getattr(spectral, name)))
        monkeypatch.setattr(spectral, "irfft_padded",
                            self._counted("irfft", spectral.irfft_padded))

    def _counted(self, name, fn):
        def counted(*args):
            if self.paused:
                return fn(*args)
            values, shape = args[0], tuple(args[1])
            fields = int(np.prod(values.shape[:values.ndim - len(shape)]))
            self.counts[name] += 1
            self.fields[name] += fields
            self.by_shape[name, shape] += fields
            # the transforms a counted one makes are not counted again
            self.paused = True
            try:
                return fn(*args)
            finally:
                self.paused = False
        return counted


@pytest.fixture
def transforms(monkeypatch) -> TransformCounter:
    return TransformCounter(monkeypatch)


def full_wavenumbers(grid: TorusGrid, axis: int) -> np.ndarray:
    """Reference angular wavenumbers 2*pi*k along `axis` in full FFT order,
    Nyquist mode kept, broadcastable to the grid shape."""
    shape = [1] * grid.dim
    shape[axis] = grid.n
    return (2 * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n)).reshape(shape)


def full_k_squared(grid: TorusGrid) -> np.ndarray:
    """Reference |2*pi*k|^2 on the full grid shape."""
    return sum(full_wavenumbers(grid, axis) ** 2 for axis in range(grid.dim)) + np.zeros(grid.shape)


def trig_poly(grid: TorusGrid, rng: np.random.Generator, modes: int = 5,
              amp: float = 1.0, zero_mean: bool = False) -> RealField:
    """Random real band-limited field, optionally mean-free."""
    x = grid.coords()
    vals = np.zeros(grid.shape)
    for _ in range(modes):
        k = [int(rng.integers(1, 5)) for _ in range(grid.dim)]
        phase = rng.uniform(0, 2 * np.pi)
        c = amp * rng.standard_normal() / modes
        arg = sum(2 * np.pi * ki * xi for ki, xi in zip(k, x)) + phase
        vals += c * np.cos(arg)
    if not zero_mean:
        vals += amp
    else:
        vals -= vals.mean()
    return RealField(grid, vals)


def smooth_density(grid: TorusGrid, rng: np.random.Generator, amp: float = 0.6,
                   modes: int = 4) -> RealField:
    """Random smooth strictly positive probability density."""
    f = trig_poly(grid, rng, modes=modes, amp=amp, zero_mean=True)
    vals = np.exp(f.values)
    vals /= vals.mean()
    return RealField(grid, vals)


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
