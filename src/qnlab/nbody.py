"""1-D N-particle electrostatics on the unit circle: configurations, the Green
kernel, renormalized energy against a background density, the commutator
functional, Wasserstein-1 distances, and Monte-Carlo statistics.

Particle sums are exact and cost O(N log N): on the unit circle the Green
kernel is K(y) = (f^2 - f)/2 with f = frac(y), so over sorted positions, with
d_j = x_(j) - (j + 1/2)/N, the energy against the flat background is

    (1/N^2) sum_{i,j} K(x_i - x_j) + 1/12 = 1/(12 N^2) + (1/N) sum_j (d_j - mean d)^2,

a sum of squares in which nothing cancels. The commutator pair term is the
matching covariance of u against d. The potential of mu_X - 1 and its
derivative at any points are prefix sums over the sorted positions
(`empirical_potential`). Grid fields at the positions (K * mu in the energy;
u, K' * mu and K' * (u mu) in the commutator) are modal sums of their rfft
coefficients, evaluated in bounded blocks of points (`_modal_sums`).

Circle W1 is exact to roundoff: the gap between two CDFs is piecewise
quadratic between atoms and grid nodes, so the measure of {gap < c} and the
integral of |gap - c| have closed forms piece by piece; the Lebesgue median c
is bisected to roundoff on the first (Rabin, Delon & Gousseau, Transportation
distances on the circle, JMIV 2011).

Against the uniform measure one sort of N numbers is enough. On the k-th gap
the CDF gap F_X - t falls with slope -1 from k/N - x_(k) to k/N - x_(k+1);
the end terms cancel, so it pushes Lebesgue measure forward to the average of
the uniform laws on [tau_j - 1/N, tau_j], tau_j = j/N - x_(j) for j = 1..N.
Its median c solves sum_j clip(c - tau_j + 1/N, 0, 1/N) = 1/2, piecewise
linear between the sorted tau and tau - 1/N, and
W1 = sum_j r(tau_j - c) - r(tau_j - 1/N - c) with r(y) = y |y| / 2
(`_w1_to_uniform`, the Monte-Carlo ensembles' W1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid import RealField, TorusGrid, check_density

# points per block in modal sums; a block holds O(block * sqrt(n)) phases
POINT_BLOCK = 2048
# atoms per block of Monte-Carlo configurations reduced together; small blocks
# keep the temporaries in cache and peak memory flat
MC_BLOCK_ATOMS = 1 << 12


# ---------------------------------------------------------------------------
# 1-D Green kernel of -d^2/dx^2 on the unit circle (zero-mean gauge + 1/12)
# ---------------------------------------------------------------------------

def wrap_half(x: np.ndarray | float) -> np.ndarray:
    """Wrap to the fundamental domain [-1/2, 1/2)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


def green_kernel(x: np.ndarray | float) -> np.ndarray:
    """K(x) = (x^2 - |x|)/2 on the wrapped representative; K(0) = 0, int K = -1/12."""
    y = wrap_half(x)
    return 0.5 * (y * y - np.abs(y))


def green_kernel_prime(x: np.ndarray | float) -> np.ndarray:
    """K'(x) = x - sign(x)/2 wrapped; odd sawtooth, K'(0) = 0 by convention."""
    y = wrap_half(x)
    return y - 0.5 * np.sign(y)


def green_symbol(grid: TorusGrid) -> np.ndarray:
    """Half-spectrum multiplier of K: 1/|2 pi k|^2 away from k = 0, -1/12 at k = 0."""
    sym = spectral.symbols(grid, real=True).inv_k2.copy()
    sym[(0,) * grid.dim] = -1.0 / 12.0
    return sym


def green_prime_symbol(grid: TorusGrid) -> np.ndarray:
    """Half-spectrum multiplier of K' = i/(2 pi k), zero where ik is (k = 0, Nyquist)."""
    if grid.dim != 1:
        raise ValueError("K' symbol is one-dimensional")
    ik = spectral.symbols(grid, real=True).ik[0]
    return np.divide(-1.0, ik, out=np.zeros_like(ik), where=ik != 0.0)


@dataclass
class ParticleConfig:
    """N point charges on the unit circle; positions stored wrapped to [0, 1)."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a nonempty 1-D array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos = pos % 1.0
        # a tiny negative position wraps to exactly 1.0; keep [0, 1) half-open
        self.positions = np.where(pos < 1.0, pos, 0.0)

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass
class RenormalizedEnergy:
    value: float
    n: int
    counterterm: float

    @property
    def augmented(self) -> float:
        """Energy plus the (1 + ||mu||_inf)/N^2 counterterm."""
        return self.value + self.counterterm


def _modal_sums(grid: TorusGrid, hats: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values at every point of the real fields whose rfft coefficients are
    the columns of `hats` (rows in half-spectrum order, modes 0 .. n/2):
    Re sum_k w_k (hat_k / n) exp(2 pi i k x), with w_k = Symbols.pair_weight.

    Each mode splits as k = a*B + b from 0 with B ~ sqrt(n/2), so a block of
    points needs only O(sqrt(n)) complex exponentials per point and one
    matrix product; values agree with the direct N x n phase sum to roundoff.
    """
    points = np.asarray(points, dtype=float)
    modes, m = hats.shape
    weight = spectral.symbols(grid, real=True).pair_weight / grid.size
    fine_n = 1 << (modes.bit_length() // 2)
    coarse_n = -(-modes // fine_n)
    padded = np.zeros((coarse_n * fine_n, m), dtype=complex)
    padded[:modes] = hats * weight[:, None]
    # table[b, a*m + col] = weighted coefficient of mode a*B + b in column col
    table = padded.reshape(coarse_n, fine_n, m).transpose(1, 0, 2).reshape(fine_n, -1)
    fine = 2j * np.pi * np.arange(fine_n)
    coarse = 2j * np.pi * fine_n * np.arange(coarse_n)
    out = np.empty((points.size, m))
    for start in range(0, points.size, POINT_BLOCK):
        x = points[start:start + POINT_BLOCK, None]
        inner = (np.exp(x * fine) @ table).reshape(x.shape[0], coarse_n, m)
        out[start:start + POINT_BLOCK] = np.einsum("pa,pam->pm", np.exp(x * coarse), inner).real
    return out


def _centered_offsets(x_sorted: np.ndarray) -> np.ndarray:
    """d_j - mean d with d_j = x_(j) - (j + 1/2)/N, for positions sorted
    along the last axis."""
    n = x_sorted.shape[-1]
    d = x_sorted - (np.arange(n) + 0.5) / n
    return d - d.mean(axis=-1, keepdims=True)


def _flat_energy(x_sorted: np.ndarray) -> np.ndarray:
    """(1/N^2) sum_{i,j} K(x_i - x_j) + 1/12, the energy against mu = 1, per
    configuration sorted along the last axis."""
    d = _centered_offsets(x_sorted)
    n = d.shape[-1]
    return 1.0 / (12.0 * n * n) + np.sum(d * d, axis=-1) / n


def empirical_potential(x: ParticleConfig, points: np.ndarray) -> tuple:
    """(phi, phi') at points y in [0, 1): phi = (1/N) sum_i K(y - x_i) + 1/12,
    the potential K * (mu_X - 1), and phi' = (1/N) sum_i K'(y - x_i) with
    K'(0) = 0. Exact, from prefix sums over sorted positions in
    O((N + M) log N) for M points.

    With s_i = y - x_i, frac(s_i) = s_i + [x_i > y], so
    sum_i (f_i^2 - f_i) = sum s^2 + 2 sum_{x_i > y} s_i - sum s, and since
    K'(f) = f - 1/2 except K'(0) = 0, sum_i K'(y - x_i) =
    sum s + #{x_i > y} - N/2 + #{x_i = y}/2.
    """
    xs = np.sort(x.positions)
    n_atoms = xs.size
    y = points
    below = np.searchsorted(xs, y, side="right")
    at = below - np.searchsorted(xs, y, side="left")
    p1 = np.concatenate([[0.0], np.cumsum(xs)])
    p2 = np.concatenate([[0.0], np.cumsum(xs * xs)])
    s1 = n_atoms * y - p1[-1]
    s2 = n_atoms * y * y - 2.0 * y * p1[-1] + p2[-1]
    above = n_atoms - below
    s1_above = above * y - (p1[-1] - p1[below])
    phi = (s2 + 2.0 * s1_above - s1) / (2.0 * n_atoms) + 1.0 / 12.0
    return phi, (s1 + above - 0.5 * n_atoms + 0.5 * at) / n_atoms


def _energy(x: ParticleConfig, mu: RealField, mu_hat: np.ndarray,
            conv_at_points: np.ndarray) -> RenormalizedEnergy:
    """Energy from the rfft of mu and the values of K * mu at the positions."""
    n = x.n
    pair = float(_flat_energy(np.sort(x.positions))) - 1.0 / 12.0
    cross = -2.0 * float(np.mean(conv_at_points))
    power = green_symbol(mu.grid) * np.abs(mu_hat) ** 2
    self_term = spectral.symbols(mu.grid, real=True).parseval(power) / mu.grid.size**2
    counterterm = (1.0 + float(np.max(mu.values))) / n**2
    return RenormalizedEnergy(value=pair + cross + self_term, n=n, counterterm=counterterm)


def renormalized_energy(x: ParticleConfig, mu: RealField) -> RenormalizedEnergy:
    """Green-kernel quadratic form of mu_X - mu with the diagonal kept (K(0)=0)."""
    check_density(mu)
    mu_hat = spectral.rfft(mu.values, mu.grid.shape)
    conv = _modal_sums(mu.grid, (mu_hat * green_symbol(mu.grid))[:, None], x.positions)[:, 0]
    return _energy(x, mu, mu_hat, conv)


def commutator_functional(x: ParticleConfig, mu: RealField, u: RealField) -> dict:
    """Off-diagonal double integral of (u(x)-u(y)) K'(x-y) against (mu_X - mu)^2.

    The pair term is (1/N^2) sum_{i != j} (u_i - u_j) K'(x_i - x_j)
    = (2/N) sum_j (u_(j) - mean u)(d_j - mean d) over sorted positions.
    """
    check_density(mu)
    n = x.n
    grid = mu.grid
    kp = green_prime_symbol(grid)
    mu_hat = spectral.rfft(mu.values, grid.shape)
    mu_kp = mu_hat * kp
    hats = np.stack([
        spectral.rfft(u.values, grid.shape),
        mu_kp,
        spectral.rfft(u.values * mu.values, grid.shape) * kp,
        mu_hat * green_symbol(grid),
    ], axis=1)
    u_at, conv_mu, conv_umu, conv_k = _modal_sums(grid, hats, x.positions).T

    order = np.argsort(x.positions, kind="stable")
    u_sorted = u_at[order]
    pair = 2.0 * float(np.dot(u_sorted - u_sorted.mean(),
                              _centered_offsets(x.positions[order]))) / n
    cross = -2.0 * float(np.mean(u_at * conv_mu - conv_umu))
    conv_grid = spectral.irfft(mu_kp, grid.shape)
    mumu = 2.0 * float(np.mean(u.values * mu.values * conv_grid))

    value = pair + cross + mumu
    energy = _energy(x, mu, mu_hat, conv_k)
    denom = max(energy.augmented, 1e-300)
    return {
        "value": value,
        "pair_term": pair,
        "cross_term": cross,
        "background_term": mumu,
        "energy": energy,
        "ratio": value / denom,
    }


# ---------------------------------------------------------------------------
# circle Wasserstein-1
#
# The gap G = F_mu - F_nu between two CDFs is stored as pieces: on the k-th
# piece, G(t_k + s) = a_k + b_k s + q_k s^2 for 0 <= s < length_k. Then
# W1 = min_c int |G - c| = int |G - c*| with c* a median of the values of G
# under Lebesgue measure.
# ---------------------------------------------------------------------------

def density_cdf(rho: RealField) -> tuple:
    """rho at the n + 1 closed nodes j/n, j = 0..n (the last repeats the
    first), and there the CDF of its periodic piecewise-linear interpolant:
    trapezoid sums from 0, the last entry the grid mass."""
    check_density(rho)
    ext = np.append(rho.values, rho.values[0])
    return ext, np.concatenate([[0.0], np.cumsum((ext[:-1] + ext[1:]) / (2.0 * rho.grid.n))])


def _cdf_pieces(m, t: np.ndarray) -> tuple:
    """F(t), F'(t) and F''/2 of a measure on pieces starting at t that cross
    no atom or grid node (right-continuous; F of a density is the exact CDF of
    its periodic piecewise-linear interpolant)."""
    if isinstance(m, ParticleConfig):
        return np.searchsorted(np.sort(m.positions), t, side="right") / m.n, 0.0, 0.0
    ext, node_cdf = density_cdf(m)
    n = m.grid.n
    j = np.searchsorted(m.grid.axis_points(), t, side="right") - 1
    xi = t - j / n
    slope = (ext[j + 1] - ext[j]) * n
    return node_cdf[j] + (ext[j] + 0.5 * slope * xi) * xi, ext[j] + slope * xi, 0.5 * slope


def _breakpoints(m) -> np.ndarray:
    return m.positions if isinstance(m, ParticleConfig) else m.grid.axis_points()


def _gap_pieces(mu, nu) -> tuple:
    edges = np.sort(np.concatenate([[0.0, 1.0], _breakpoints(mu), _breakpoints(nu)]))
    length = np.diff(edges)
    t = edges[:-1][length > 0.0]
    f_mu, d_mu, q_mu = _cdf_pieces(mu, t)
    f_nu, d_nu, q_nu = _cdf_pieces(nu, t)
    b = np.broadcast_to(d_mu - d_nu, t.shape)
    q = np.broadcast_to(q_mu - q_nu, t.shape)
    return length[length > 0.0], f_mu - f_nu, b, q


def _monotone(length, a, b, q) -> tuple:
    """Split every piece at an interior vertex of its quadratic."""
    vertex = np.divide(-b, 2.0 * q, out=np.zeros_like(length), where=q != 0.0)
    cut = (vertex > 0.0) & (vertex < length)
    v = vertex[cut]
    return (np.concatenate([np.where(cut, vertex, length), length[cut] - v]),
            np.concatenate([a, a[cut] + (b[cut] + q[cut] * v) * v]),
            np.concatenate([b, np.zeros(v.size)]),
            np.concatenate([q, q[cut]]))


def _crossing(c, length, a, b, q, end) -> np.ndarray:
    """Per monotone piece, the s in [0, length] where G - c changes sign
    (0 or length when it keeps one sign)."""
    rising = end >= a
    disc = np.sqrt(np.maximum(b * b + 4.0 * q * (c - a), 0.0))
    den = b + np.where(rising, disc, -disc)
    root = np.divide(2.0 * (c - a), den, out=np.zeros_like(length), where=den != 0.0)
    root = np.clip(root, 0.0, length)
    low, high = np.minimum(a, end), np.maximum(a, end)
    # below its range G - c >= 0 on the whole piece; above it, <= 0
    return np.where(c <= low, np.where(rising, 0.0, length),
                    np.where(c >= high, np.where(rising, length, 0.0), root))


def _abs_integral(c, length, a, b, q, end) -> float:
    """int |G - c| over monotone pieces, in closed form."""
    def antiderivative(s):  # int_0^s (G - c)
        return ((a - c) + (0.5 * b + q * s / 3.0) * s) * s

    head = antiderivative(_crossing(c, length, a, b, q, end))
    return float(np.sum(np.abs(head) + np.abs(antiderivative(length) - head)))


def _median_bisect(length, a, b, q, end) -> float:
    """Lebesgue median of a piecewise-quadratic G (linear and constant pieces
    included), bisected to roundoff with the exact measure of {G < c}. Pieces
    whose range leaves the bracket are dropped as it shrinks."""
    half = 0.5 * float(length.sum())
    low, high = np.minimum(a, end), np.maximum(a, end)
    lo, hi = float(low.min()), float(high.max())
    # a c off by delta moves the integral by at most delta, so stop at roundoff
    tol = np.finfo(float).eps * max(hi - lo, abs(lo), abs(hi))
    below = 0.0  # length of the dropped pieces that lie under the bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = _crossing(mid, length, a, b, q, end)
        if below + np.sum(np.where(end >= a, s, length - s)) < half:
            lo = mid
        else:
            hi = mid
        under, over = high <= lo, low >= hi
        below += float(length[under].sum())
        keep = ~(under | over)
        length, a, b, q, end, low, high = (v[keep] for v in (length, a, b, q, end, low, high))
    return hi


def w1_circle(mu, nu) -> float:
    """W1 on the unit circle, min over c of int |F_mu - F_nu - c|.

    mu and nu are ParticleConfig atoms or RealField densities on 1-D grids
    (taken as their periodic piecewise-linear interpolants). The result is
    exact up to roundoff in every combination: the CDF gap is piecewise
    quadratic on the merged atoms and grid nodes, its median c is bisected to
    roundoff, and |gap - c| is integrated in closed form on each piece.
    """
    length, a, b, q = _monotone(*_gap_pieces(mu, nu))
    end = a + (b + q * length) * length
    return _abs_integral(_median_bisect(length, a, b, q, end), length, a, b, q, end)


# ---------------------------------------------------------------------------
# Monte-Carlo ensembles of uniform configurations
# ---------------------------------------------------------------------------

def _w1_to_uniform(x_sorted: np.ndarray) -> np.ndarray:
    """Exact circle W1 to the uniform measure of each configuration sorted
    along the last axis, by the identity in the module docstring: the median
    c is found between the merged sorted knots tau - 1/N and tau, where the
    measure of {F_X - t < c} is piecewise linear, and W1 is summed over the
    tau_j in closed form."""
    n = x_sorted.shape[-1]
    tau = np.sort(np.arange(1, n + 1) / n - x_sorted, axis=-1)
    knots = np.concatenate([tau - 1.0 / n, tau], axis=-1)
    # two sorted runs laid end to end: the stable sort merges them
    order = np.argsort(knots, axis=-1, kind="stable")
    z = np.take_along_axis(knots, order, -1)
    # windows open above the k-th knot: 2 (opened so far) - (k + 1); and the
    # measure of {F_X - t < c} at the knots
    slope = 2 * np.cumsum(order < n, axis=-1) - np.arange(1, 2 * n + 1)
    h = np.zeros_like(z)
    h[..., 1:] = np.cumsum(slope[..., :-1] * np.diff(z, axis=-1), axis=-1)
    # h[0] = 0, so the first knot at or past 1/2 has a ramp before it
    prev = np.argmax(h >= 0.5, axis=-1)[..., None] - 1
    z_prev, h_prev, rise = (np.take_along_axis(v, prev, -1) for v in (z, h, slope))
    c = z_prev + (0.5 - h_prev) / rise

    def ramp(y):  # antiderivative of |y|
        return 0.5 * y * np.abs(y)

    return np.sum(ramp(tau - c) - ramp(tau - 1.0 / n - c), axis=-1)


def mc_uniform_stats(n_particles: int, n_configs: int, rng: np.random.Generator) -> dict:
    """Sample i.i.d. uniform configurations; return renormalized-energy moments
    against the flat background with their exact mean E = 1/(12 N), and the
    mean (squared) W1 to uniform.

    Configurations are drawn and reduced in blocks of at most MC_BLOCK_ATOMS
    atoms, one rng.random call per block (the same stream as one call per
    configuration), so memory does not grow with n_configs. Each costs
    O(N log N): one sort of the atoms for the energy, one sort of the offsets
    tau_j = j/N - x_(j) for W1 (_w1_to_uniform).
    """
    n = n_particles
    rows = max(1, MC_BLOCK_ATOMS // n)
    energies = np.empty(n_configs)
    w1s = np.empty(n_configs)
    for start in range(0, n_configs, rows):
        stop = min(start + rows, n_configs)
        x = np.sort(rng.random((stop - start, n)), axis=1)
        energies[start:stop] = _flat_energy(x)
        w1s[start:stop] = _w1_to_uniform(x)
    return {
        "n_particles": n_particles,
        "n_configs": n_configs,
        "mean_energy": float(energies.mean()),
        "se_energy": float(energies.std(ddof=1) / np.sqrt(n_configs)),
        "expected_mean": 1.0 / (12.0 * n),
        "mean_w1": float(w1s.mean()),
        "mean_w1_squared": float((w1s**2).mean()),
    }
