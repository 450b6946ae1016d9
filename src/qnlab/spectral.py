"""Every transform and Fourier multiplier of the torus grid.

Real fields use numpy's real-to-complex transforms, half the work of complex
ones, with symbols on the rfft half spectrum; complex fields (wave functions)
use the full transform. Symbols are cached per grid.
Derivative symbols zero the Nyquist mode, which on real fields agrees to
roundoff with keeping it and taking the real part. Sums over the spectrum
(Parseval through `Symbols.parseval`, point evaluations in qnlab.nbody) take
the half-spectrum conjugate-pair weight from `Symbols.pair_weight`.
`resample` zero-pads a real or complex 1-D field onto a finer grid.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np


def rfft(values: np.ndarray) -> np.ndarray:
    return np.fft.rfft(values) if values.ndim == 1 else np.fft.rfft2(values)


def irfft(hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.fft.irfft(hat, shape[0]) if len(shape) == 1 else np.fft.irfft2(hat, s=shape)


fft = np.fft.fftn
ifft = np.fft.ifftn


def resample(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The trigonometric interpolant of real 1-D grid `values` (even size) at
    the nodes of the finer 1-D grid `shape`: the rfft half spectrum,
    zero-padded. The coarse Nyquist mode is split evenly between +n/2 and
    -n/2, so the result is real and takes `values` at the coarse nodes.
    Complex `values` are resampled by their real and imaginary parts, which
    is the same zero-padding of the full spectrum. `values` itself is
    returned when `shape` is its own."""
    shape = tuple(shape)
    if shape == values.shape:
        return values
    if values.ndim != 1 or len(shape) != 1 or shape[0] <= values.size:
        raise ValueError(f"cannot resample {values.shape} onto {shape}: not a finer 1-D grid")
    if np.iscomplexobj(values):
        return resample(values.real, shape) + 1j * resample(values.imag, shape)
    hat = rfft(values) * (shape[0] / values.size)
    # on the finer grid the coarse Nyquist mode stands for itself and its conjugate
    hat[-1] *= 0.5
    out = np.zeros(shape[0] // 2 + 1, dtype=complex)
    out[:hat.size] = hat
    return irfft(out, shape)


class Symbols:
    """Read-only Fourier multipliers of one grid on one spectrum layout: the
    rfft half spectrum (last axis modes 0..n/2) if `real`, else full FFT order.

    ik[axis] = i 2 pi k_axis with the Nyquist mode zeroed, broadcastable as
    (n, 1) and (1, m) in 2-D; minus_k2 = -|2 pi k|^2; inv_k2 = 1/|2 pi k|^2,
    0 at k = 0; modes[axis] = the integer mode numbers k_axis, broadcastable
    like ik; dealias = 1 where every |k_axis| <= n/3 (2/3 rule), else 0;
    pair_weight = 1 on the self-conjugate last-axis modes 0 and n/2 of the half
    spectrum and 2 on its other modes, which stand for a conjugate pair (1
    everywhere on the full spectrum).
    """

    def __init__(self, grid, *, real: bool) -> None:
        dim, n = grid.dim, grid.n
        self.real = real
        self.shape = grid.shape
        modes = []  # integer mode numbers per axis, broadcastable
        for axis in range(dim):
            freq = np.fft.rfftfreq if real and axis == dim - 1 else np.fft.fftfreq
            modes.append(freq(n, 1.0 / n).reshape([-1 if a == axis else 1 for a in range(dim)]))
        self.modes = tuple(modes)
        k = [2.0 * np.pi * m for m in modes]
        self.ik = tuple(np.where(np.abs(m) == n / 2, 0.0, 1j * ka) for m, ka in zip(modes, k))
        k2 = sum(ka**2 for ka in k)
        self.minus_k2 = -k2
        self.inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 != 0.0)
        self.dealias = reduce(np.logical_and, [np.abs(m) <= n / 3.0 for m in modes]).astype(float)
        last = np.abs(modes[-1])
        self.pair_weight = np.where(real & (last != 0) & (last != n / 2), 2.0, 1.0)
        for arr in (*self.modes, *self.ik, self.minus_k2, self.inv_k2, self.dealias,
                    self.pair_weight):
            arr.flags.writeable = False

    def forward(self, values: np.ndarray) -> np.ndarray:
        return rfft(values) if self.real else fft(values)

    def inverse(self, hat: np.ndarray) -> np.ndarray:
        return irfft(hat, self.shape) if self.real else ifft(hat)

    def parseval(self, power: np.ndarray) -> float:
        """Sum over the full spectrum of `power`, a function of |c_k| given on
        this layout, such as |f_hat|^2 times a real even symbol."""
        return float((power * self.pair_weight).sum())

    def apply(self, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """The multiplier `symbol` applied to grid values: one transform pair."""
        return self.inverse(self.forward(values) * symbol)


# symbols(grid, real=...) is built once per grid and layout (`real` is
# keyword-only, so every call shares one cache key); a process holds a
# handful of grids
symbols = lru_cache(maxsize=16)(Symbols)
