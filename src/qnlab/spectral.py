"""Every transform and Fourier multiplier of the torus grid.

Real fields use numpy's real-to-complex transforms, half the work of complex
ones, with symbols on the rfft half spectrum; complex fields (wave functions)
use the full transform. Symbols are cached per grid. A transform acts on the
trailing axes that the grid's `shape` names; any leading axes index fields,
every field transformed bit for bit as on its own. It calls numpy's pocketfft
gufuncs, one per axis, not np.fft's Python wrapper around them: a 1-D
transform is one call at any stack size, and only a 2-D stack is split, into
calls of at most STACK_BYTES of input each. Derivative symbols zero the
Nyquist mode, which on real fields agrees to roundoff with keeping it and
taking the real part. Sums over the spectrum (Parseval through
`Symbols.parseval`) take the half-spectrum conjugate-pair weight from
`Symbols.pair_weight`. `resample` zero-pads a 1-D
or 2-D field onto a finer grid, `zero_pad` its rfft (or a stack of them), and
`irfft_padded` inverts a zero-padded half spectrum, a multiplier applied. In
2-D that inverse transforms along the first axis only the columns the coarse
spectrum fills (a pruned FFT): the rest are zero, and the result is irfft2's
bit for bit.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

# Most input bytes one 2-D transform call takes: a 2-D stack of fields goes
# in chunks of as many whole fields as fit, and a larger field alone (a 1-D
# stack is never split). Batching pays while a transform costs call overhead,
# not arithmetic; past a few hundred kB per call it costs (8 fields per call
# on 64^2 and 128^2 below).
# irfft2 of 8 fields, us (best of 7, a fresh process per entry, 2 vCPUs,
# numpy 2.4), by fields per call:
#           1     2     3     4     8     half-spectrum field
#   32^2   107    67    58    48    38      8.7 kB
#   64^2   181   142   130   119   190     33.8 kB
#   128^2  485   450   444   443   866      133 kB
#   256^2 1825  2027  2121  2123  2939      528 kB
# 128 kB takes a 2-D Euler stage's 8 inverse fields on 32^2 in one call,
# chunks of 3 on 64^2, and one field per call from 128^2 up.
STACK_BYTES = 128 * 1024


def _along(values: np.ndarray, ufunc, axis: int, points: int, inverse: bool, dtype=complex,
           out: np.ndarray | None = None) -> np.ndarray:
    """The gufunc `ufunc` of np.fft._pocketfft_umath along `axis` of `values`, `points`
    values out along it, scaled by 1/points if `inverse`: the call each np.fft transform
    ends in, less its wrapper. Into `out` if given, else a new `dtype` array."""
    if out is None:
        shape = list(values.shape)
        shape[axis] = points
        out = np.empty(shape, dtype)
    return ufunc(values, 1 / points if inverse else 1, axes=[(axis,), (), (axis,)], out=out)


def _plane(values: np.ndarray, shape: tuple[int, ...], dtype, first: tuple, second: tuple,
           out: np.ndarray | None = None) -> np.ndarray:
    """A 2-D transform in numpy's n-d order over the trailing axes of `values`: the _along
    pass `first`, then `second`, each result field of `shape`, into `out` if given, else a
    new `dtype` array. Leading axes are fields; both passes run per chunk of as many whole
    fields as fit in STACK_BYTES of input (at least one), each chunk written through a
    reshaped view of `out`, which must therefore be C-contiguous."""
    field = values.shape[-2] * values.shape[-1]
    per = max(1, STACK_BYTES // (values.itemsize * field))
    if values.size <= per * field:  # one chunk: each pass is one call on `values` as given
        return _along(_along(values, *first), *second, out=out)
    fields = values.reshape(-1, *values.shape[-2:])
    if out is None:
        out = np.empty((*values.shape[:-2], *shape), dtype)
    flat = out.reshape(-1, *shape)
    for start in range(0, len(fields), per):
        _along(_along(fields[start:start + per], *first), *second, out=flat[start:start + per])
    return out


def rfft(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rfft half spectra of real grid values on the grid `shape`."""
    pfu = np.fft._pocketfft_umath
    half = (*shape[:-1], shape[-1] // 2 + 1)
    last = (pfu.rfft_n_even if shape[-1] % 2 == 0 else pfu.rfft_n_odd, -1, half[-1], False)
    if len(shape) == 1:
        return _along(values, *last)
    return _plane(values, half, complex, last, (pfu.fft, -2, shape[0], False))


def irfft(hat: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Real grid values on the grid `shape` of rfft half spectra, written to
    `out` if given."""
    pfu = np.fft._pocketfft_umath
    last = (pfu.irfft, -1, shape[-1], True, float)
    if out is not None and (not out.flags.c_contiguous or out.shape != (*hat.shape[:-1], last[2])):
        raise ValueError("a transform's `out` must be C-contiguous and of the result's shape")
    if len(shape) == 1:
        return _along(hat, *last, out)
    return _plane(hat, shape, float, (pfu.ifft, -2, shape[0], True), last, out)


def fft(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Full spectra of complex grid values on the grid `shape`."""
    last = (np.fft._pocketfft_umath.fft, -1, shape[-1], False)
    if len(shape) == 1:
        return _along(values, *last)
    return _plane(values, shape, complex, last, (last[0], -2, shape[0], False))


def ifft(hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Complex grid values on the grid `shape` of full spectra."""
    last = (np.fft._pocketfft_umath.ifft, -1, shape[-1], True)
    if len(shape) == 1:
        return _along(hat, *last)
    return _plane(hat, shape, complex, last, (last[0], -2, shape[0], True))


def zero_pad(hat: np.ndarray, shape: tuple[int, ...], cols: int | None = None) -> np.ndarray:
    """The rfft half spectra `hat` of real 1-D or 2-D grid values (even size
    per axis; leading axes are fields) on the finer grid `shape`, scaled so
    that their irfft there is their trigonometric interpolant; `hat` itself on
    its own grid. Each coarse Nyquist line is split evenly between the modes
    +n/2 and -n/2 of its axis (the last-axis column by halving it, as the half
    spectrum holds only +n/2), so the interpolant is real and takes the values
    at the coarse nodes. `cols` keeps only the first cols last-axis modes of a
    finer grid's result."""
    coarse = (*hat.shape[-len(shape):-1], 2 * hat.shape[-1] - 2)
    if tuple(shape) == coarse:
        return hat
    hat = hat * (np.prod(shape) / np.prod(coarse))
    # on the finer grid a coarse Nyquist mode stands for itself and its conjugate
    hat[..., -1] *= 0.5
    fields = hat.shape[:hat.ndim - len(shape)]
    out = np.zeros((*fields, *shape[:-1], cols or shape[-1] // 2 + 1), dtype=complex)
    filled = hat.shape[-1]
    if len(shape) == 1:
        out[..., :filled] = hat
    else:
        half = coarse[0] // 2
        out[..., :half, :filled] = hat[..., :half, :]
        out[..., shape[0] - half + 1:, :filled] = hat[..., half + 1:, :]
        out[..., half, :filled] = out[..., shape[0] - half, :filled] = 0.5 * hat[..., half, :]
    return out


def irfft_padded(hat: np.ndarray, shape: tuple[int, ...], symbol=None) -> np.ndarray:
    """irfft(symbol * zero_pad(hat, shape), shape) bit for bit for the half
    spectrum `hat` of one field, `symbol` a multiplier on the half spectrum
    of `shape` (none if None): the values on the grid `shape` of that
    multiplier applied to the trigonometric interpolant of `hat`. In 2-D the
    first-axis inverse runs only on the columns `hat` fills (all of them on
    its own grid), as numpy's irfft2 runs it on every column before its
    last-axis irfft."""
    shape = tuple(shape)
    if len(shape) == 1:
        padded = zero_pad(hat, shape)
        return irfft(padded if symbol is None else symbol * padded, shape)
    cols = hat.shape[1]
    part = zero_pad(hat, shape, cols)
    if symbol is not None:
        part = symbol[..., :cols] * part
    pfu = np.fft._pocketfft_umath
    full = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    _along(part, pfu.ifft, -2, shape[0], True, complex, full[:, :cols])
    return _along(full, pfu.irfft, -1, shape[1], True, float)


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
    return irfft_padded(rfft(values, values.shape), shape)


class Symbols:
    """Read-only Fourier multipliers of one grid on one spectrum layout: the
    rfft half spectrum (last axis modes 0..n/2) if `real`, else full FFT order.

    ik[axis] = i 2 pi k_axis with the Nyquist mode zeroed, broadcastable as
    (n, 1) and (1, m) in 2-D; minus_k2 = -|2 pi k|^2; inv_k2 = 1/|2 pi k|^2,
    0 at k = 0; modes[axis] = the integer mode numbers k_axis, broadcastable
    like ik; dealias = 1 where every |k_axis| <= edge = n/3 (2/3 rule), else 0;
    shell = True on that band's top half, edge/2 < max over axes of |k_axis|;
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
        self.edge = n / 3.0
        inside = reduce(np.logical_and, [np.abs(m) <= self.edge for m in modes])
        self.dealias = inside.astype(float)
        self.shell = inside & reduce(np.logical_or, [np.abs(m) > self.edge / 2.0 for m in modes])
        last = np.abs(modes[-1])
        self.pair_weight = np.where(real & (last != 0) & (last != n / 2), 2.0, 1.0)
        for arr in (*self.modes, *self.ik, self.minus_k2, self.inv_k2, self.dealias,
                    self.shell, self.pair_weight):
            arr.flags.writeable = False

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Spectra of grid values on this layout; leading axes are fields."""
        return rfft(values, self.shape) if self.real else fft(values, self.shape)

    def inverse(self, hat: np.ndarray) -> np.ndarray:
        """Grid values of spectra on this layout; leading axes are fields."""
        return irfft(hat, self.shape) if self.real else ifft(hat, self.shape)

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
