"""Every transform and Fourier multiplier of the torus grid.

Real fields use numpy's real-to-complex transforms, half the work of complex
ones, with symbols on the rfft half spectrum; complex fields (wave functions)
use the full transform. Symbols are cached per grid.
Derivative symbols zero the Nyquist mode, which on real fields agrees to
roundoff with keeping it and taking the real part. Sums over the spectrum
(Parseval through `Symbols.parseval`, point evaluations in qnlab.nbody) take
the half-spectrum conjugate-pair weight from `Symbols.pair_weight`.
`resample` zero-pads a 1-D or 2-D field onto a finer grid, `zero_pad` its rfft,
and `irfft_padded` inverts a zero-padded half spectrum, a multiplier applied.
In 2-D that inverse transforms along the first axis only the columns the
coarse spectrum fills (a pruned FFT): the rest are zero, and the result is
irfft2's bit for bit.
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


def _coarse_shape(hat: np.ndarray) -> tuple[int, ...]:
    return (*hat.shape[:-1], 2 * hat.shape[-1] - 2)


def zero_pad(hat: np.ndarray, shape: tuple[int, ...], cols: int | None = None) -> np.ndarray:
    """The rfft half spectrum `hat` of real 1-D or 2-D grid values (even size
    per axis) on the finer grid `shape`, scaled so that its irfft there is
    their trigonometric interpolant; `hat` itself on its own grid. Each coarse
    Nyquist line is split evenly between the modes +n/2 and -n/2 of its axis
    (the last-axis column by halving it, as the half spectrum holds only
    +n/2), so the interpolant is real and takes the values at the coarse nodes.
    `cols` keeps only the first cols last-axis modes of a finer grid's result."""
    coarse = _coarse_shape(hat)
    if tuple(shape) == coarse:
        return hat
    hat = hat * (np.prod(shape) / np.prod(coarse))
    # on the finer grid a coarse Nyquist mode stands for itself and its conjugate
    hat[..., -1] *= 0.5
    out = np.zeros((*shape[:-1], cols or shape[-1] // 2 + 1), dtype=complex)
    if hat.ndim == 1:
        out[:hat.size] = hat
    else:
        half, filled = coarse[0] // 2, hat.shape[1]
        out[:half, :filled] = hat[:half]
        out[shape[0] - half + 1:, :filled] = hat[half + 1:]
        out[half, :filled] = out[shape[0] - half, :filled] = 0.5 * hat[half]
    return out


def irfft_padded(hat: np.ndarray, shape: tuple[int, ...], symbol=None) -> np.ndarray:
    """irfft(symbol * zero_pad(hat, shape), shape) bit for bit, `symbol` a
    multiplier on the half spectrum of `shape` (none if None): the values on
    the grid `shape` of that multiplier applied to the trigonometric
    interpolant of the coarse half spectrum `hat`. In 2-D on a finer grid the
    first-axis inverse runs only on the columns `hat` fills, as numpy's irfft2
    runs it on every column before its last-axis irfft."""
    shape = tuple(shape)
    if hat.ndim == 1 or shape == _coarse_shape(hat):
        padded = zero_pad(hat, shape)
        return irfft(padded if symbol is None else symbol * padded, shape)
    cols = hat.shape[1]
    part = zero_pad(hat, shape, cols)
    if symbol is not None:
        part = symbol[..., :cols] * part
    out = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    out[:, :cols] = np.fft.ifft(part, axis=0)
    return np.fft.irfft(out, shape[1], axis=1)


def resample(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """irfft(zero_pad(rfft(values))): the trigonometric interpolant of real
    1-D or 2-D grid `values` at the nodes of the finer grid `shape`; complex
    `values` by their real and imaginary parts, the same zero-padding of the
    full spectrum. `values` itself when `shape` is its own."""
    shape = tuple(shape)
    if shape == values.shape:
        return values
    if values.ndim not in (1, 2) or len(shape) != values.ndim or \
            any(m <= n for m, n in zip(shape, values.shape)):
        raise ValueError(f"cannot resample {values.shape} onto {shape}: not a finer grid")
    if np.iscomplexobj(values):
        return resample(values.real, shape) + 1j * resample(values.imag, shape)
    return irfft_padded(rfft(values), shape)


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
