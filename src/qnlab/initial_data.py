"""Well-prepared wave-function data, i.i.d. sampling from 1-D densities, and
mollified empirical measures."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAProbabilityDensity, NotPositive
from .grid import ComplexField, RealField, TorusGrid, check_density, laplacian
from .nbody import ParticleConfig, w1_circle, wrap_half
from .poisson_boltzmann import solve_pb_empirical
from .schrodinger import WaveFunction

# annular bump profile: supported where 3/16 < |z| < 1/4; the exponent is
# scaled by the half-width squared so the peak value is e^{-1}, not underflow
_R_IN = 3.0 / 16.0
_R_OUT = 1.0 / 4.0
_BUMP_SCALE = ((_R_OUT - _R_IN) / 2.0) ** 2
# atom-node pairs evaluated per block of mollified_empirical
_PAIR_BLOCK = 1 << 16


@dataclass
class WellPreparedSpec:
    rho0: RealField
    u_potential: RealField  # U0, the velocity potential (u0 = grad U0)
    eps: float
    hbar: float

    def __post_init__(self) -> None:
        if not (self.eps > 0 and self.hbar > 0):
            raise ValueError("eps and hbar must be positive")
        if float(np.min(self.rho0.values)) <= 0.0:
            raise NotAProbabilityDensity("rho0 must be strictly positive")
        check_density(self.rho0)


def quantum_density(spec: WellPreparedSpec) -> RealField:
    """rho_eps = e^{V0} - eps*Lap(V0) with V0 = log rho0; the modulating
    amplitude squared of the prepared state."""
    v0 = RealField(spec.rho0.grid, np.log(spec.rho0.values))
    vals = spec.rho0.values - spec.eps * laplacian(v0).values
    if float(np.min(vals)) <= 0.0:
        raise NotPositive(
            f"e^V0 - eps*Lap(V0) has min {float(np.min(vals)):.3e}; eps too large for rho0"
        )
    return RealField(spec.rho0.grid, vals)


def well_prepared(spec: WellPreparedSpec) -> WaveFunction:
    """psi_in = sqrt(e^{V0} - eps*Lap(V0)) e^{i U0/hbar}; unit mass because
    the spectral Laplacian is mean-free."""
    rho_eps = quantum_density(spec)
    psi = np.sqrt(rho_eps.values) * np.exp(1j * spec.u_potential.values / spec.hbar)
    return WaveFunction(ComplexField(spec.rho0.grid, psi), spec.hbar, spec.eps)


def sample_iid(rho: RealField, n: int, seed: int) -> ParticleConfig:
    """n i.i.d. draws from the periodic linear interpolant of rho by exact
    inverse-CDF (piecewise-quadratic) inversion."""
    if rho.grid.dim != 1:
        raise ValueError("sampling is one-dimensional")
    check_density(rho)
    m = rho.grid.n
    ext = np.append(rho.values, rho.values[0])
    node_cdf = np.concatenate([[0.0], np.cumsum((ext[:-1] + ext[1:]) / (2.0 * m))])
    node_cdf /= node_cdf[-1]  # absorb the <= MASS_TOL mass defect exactly
    rng = np.random.default_rng(seed)
    targets = rng.random(n)
    seg = np.clip(np.searchsorted(node_cdf, targets, side="right") - 1, 0, m - 1)
    r0 = ext[seg]
    slope = (ext[seg + 1] - ext[seg]) * m
    excess = targets - node_cdf[seg]
    disc = np.sqrt(np.maximum(r0**2 + 2.0 * slope * excess, 0.0))
    # stable root of r0 xi + slope xi^2/2 = excess on [0, 1/m]
    denom = r0 + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.where(denom > 0, 2.0 * excess / denom, 0.0)
    xi = np.clip(xi, 0.0, 1.0 / m)
    return ParticleConfig(seg / m + xi)


def _bump(z: np.ndarray) -> np.ndarray:
    r = np.abs(z)
    out = np.zeros_like(r)
    inside = (r > _R_IN) & (r < _R_OUT)
    ri = r[inside]
    out[inside] = np.exp(-_BUMP_SCALE / ((ri - _R_IN) * (_R_OUT - ri)))
    return out


def mollified_empirical(x: ParticleConfig, eta: float, grid: TorusGrid) -> RealField:
    """Grid samples of (1/N) sum_i chi_eta(. - x_i), chi the annular bump,
    normalized to integrate to 1 on the grid."""
    if not 0 < eta <= 0.25:
        raise ValueError("eta must lie in (0, 1/4]")
    if grid.dim != 1:
        raise ValueError("mollified measures are one-dimensional")
    # atom x reaches only nodes within eta/4, all at `offsets` from floor(n x);
    # atoms are added in turn, in the order of a dense mean over atoms
    n = grid.n
    reach = int(np.ceil(n * eta / 4.0))
    offsets = np.arange(-reach, reach + 2)
    sums = np.zeros(n)
    block = max(1, _PAIR_BLOCK // offsets.size)
    for start in range(0, x.n, block):
        pos = x.positions[start:start + block, None]
        nodes = (np.floor(pos * n).astype(np.int64) + offsets) % n
        np.add.at(sums, nodes, _bump(wrap_half(nodes / n - pos) / eta))
    vals = sums / x.n / eta
    mass = vals.mean()
    if mass <= 0.0:
        raise ValueError(
            f"grid too coarse to resolve eta = {eta!r} (support width {eta / 16:.2e})"
        )
    return RealField(grid, vals / mass)


def entropy_w1_check(x: ParticleConfig, rho0: RealField, rho_eps: RealField,
                     eps: float) -> dict:
    """Per-configuration check that the thermalized entropy against rho0 is
    controlled by W1 of the configuration to rho_eps:
    int m log(m/rho0) <= (5/(4 eps^{3/2})) W1(mu_X, rho_eps)."""
    grid = rho0.grid
    split = solve_pb_empirical(x, eps, grid)
    m = split.background.values
    lhs = float(np.mean(m * (np.log(np.maximum(m, 1e-300)) - np.log(rho0.values))))
    w1 = w1_circle(x, rho_eps)
    rhs = 5.0 / (4.0 * eps**1.5) * w1
    return {
        "lhs": lhs,
        "rhs": rhs,
        "w1": w1,
        "margin": rhs - lhs,
        "passed": bool(lhs <= rhs),
    }
