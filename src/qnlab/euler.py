"""Pseudospectral isothermal Euler in logarithmic variables on the torus:
d/dt log(rho) = -div u - u.grad log(rho),  d/dt u = -u.grad u - grad log(rho).
Classical RK4 in time on the rfft half-spectrum coefficients of (log rho, u),
one array of dim + 1 stacked fields; the 2/3 rule dealiases the whole
right-hand side, so no mode outside its band evolves. A stage goes to grid
values only for the products, in two real transform calls: one inverse of
u and every d_j f (8 fields in 2-D, 3 in 1-D) and one forward of the dim + 1
advection terms. Grid states are built at the samples only."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .config import sample_steps
from .errors import BlowupGuardTripped, StepTooLarge
from .grid import RealField, TorusGrid, integrate

GRAD_U_GUARD = 50.0
# RK4's stability interval on the imaginary axis, |h lambda| <= 2 sqrt(2)
RK4_STABILITY = 2.0 * np.sqrt(2.0)


def normalize_log_density(f: RealField) -> RealField:
    """Shift log rho by a constant so that exp of it integrates to 1."""
    mass = float(integrate(RealField(f.grid, np.exp(f.values))))
    return RealField(f.grid, f.values - np.log(mass))


@dataclass
class EulerState:
    log_rho: RealField
    u: list  # d components of RealField
    time: float = 0.0

    def __post_init__(self) -> None:
        self.u = list(self.u)
        if len(self.u) != self.log_rho.grid.dim:
            raise ValueError("velocity component count must match the grid dimension")

    @property
    def grid(self) -> TorusGrid:
        return self.log_rho.grid

    def rho(self) -> RealField:
        return RealField(self.grid, np.exp(self.log_rho.values))


def max_rate(grid: TorusGrid, sup_u: float) -> float:
    """Bound on |lambda| over the linearized right-hand side at a state with
    max_i |u_i| = sup_u: 2 pi edge sqrt(dim) (sup_u sqrt(dim) + 1), the largest |2 pi k|
    that _rhs evolves (spectral.Symbols.edge) times the largest |u| plus the unit sound speed."""
    root_dim = float(np.sqrt(grid.dim))
    top = 2.0 * np.pi * spectral.symbols(grid, real=True).edge
    return top * root_dim * (sup_u * root_dim + 1.0)


def _buffers(sym: spectral.Symbols) -> tuple[np.ndarray, np.ndarray]:
    """The spectra and grid values of u and every d_j f that _rhs on sym's
    grid transforms, dim + (dim + 1) dim fields each. A caller allocates them
    once for all its right-hand sides: memory that every stage reuses is not
    handed back to the system and faulted in again (a 64^2 RK4 step took
    1.9 ms with arrays allocated per stage, 1.2 ms with these, and 1.5 ms
    field by field)."""
    shape = sym.shape
    dim = len(shape)
    count = dim + (dim + 1) * dim
    return (np.empty((count, *shape[:-1], shape[-1] // 2 + 1), dtype=complex),
            np.empty((count, *shape)))


def _rhs(sym: spectral.Symbols, hat: np.ndarray, buffers: tuple,
         grad_u_sups: list | None = None,
         u_sups: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side coefficients d/dt (log rho, u_1, ..) from `hat`, those
    of (log rho, u_1, ..) stacked on the first axis, and the coefficients of
    the advection terms u.grad f, f = log rho, u_1, .., before dealiasing,
    stacked the same way. One inverse transform call takes u and every d_j f
    to the grid, in `buffers` from _buffers, and one forward call brings the
    advection terms back. Appends max |d_j u_i| over every velocity
    derivative to grad_u_sups and max |u_i| over every component to u_sups
    when they are given."""
    dim = len(hat) - 1
    spec, values = buffers
    spec[:dim] = hat[1:]
    for a in range(dim + 1):
        for j in range(dim):
            np.multiply(sym.ik[j], hat[a], out=spec[dim + a * dim + j])
    spectral.irfft(spec, sym.shape, values)
    u = values[:dim]
    d = values[dim:].reshape(dim + 1, dim, *values.shape[1:])  # d[a, j] = d_j f_a
    if u_sups is not None:
        u_sups.append(max(float(u.max()), -float(u.min())))
    if grad_u_sups is not None:
        grad_u_sups.append(max(float(d[1:].max()), -float(d[1:].min())))
    # a sum from 0.0, so a -0.0 product adds up to +0.0 as in d_hat's sums
    advect = 0.0 + u[0] * d[:, 0]
    for j in range(1, dim):
        advect += u[j] * d[:, j]
    advect_hat = sym.forward(advect)
    d_hat = np.empty_like(hat)
    d_hat[0] = sum(-sym.ik[j] * hat[1 + j] for j in range(dim))
    for i in range(dim):
        np.multiply(-sym.ik[i], hat[0], out=d_hat[1 + i])
    d_hat -= advect_hat
    d_hat *= sym.dealias
    return d_hat, advect_hat


def spectrum(state: EulerState) -> np.ndarray:
    """The rfft half spectra of (log rho, u_1, ..) of `state`, stacked on the
    first axis: one transform call."""
    fields = np.stack([f.values for f in (state.log_rho, *state.u)])
    return spectral.rfft(fields, state.grid.shape)


def euler_rhs(state: EulerState):
    """Right-hand side as fields, for inspection and testing."""
    sym = spectral.symbols(state.grid, real=True)
    d_hat = _rhs(sym, spectrum(state), _buffers(sym))[0]
    d_log, *d_u = (RealField(state.grid, v) for v in sym.inverse(d_hat))
    return d_log, d_u


def _grad_u_sup(grad_u_sups: list) -> float:
    """||grad u||_inf (NaN if any is) from the sups of the d_j u_i that a right-hand
    side recorded; run_euler calls it once per RK4 step, on the first stage."""
    return float(np.max(grad_u_sups))


def _check_step(grid: TorusGrid, dt: float, u_sup: float, hats, t: float, step: int) -> None:
    """StepTooLarge, carrying t, rate = dt * max_rate(grid, u_sup) and step,
    when the rate exceeds RK4_STABILITY and the rfft coefficients `hats` of
    log rho and u, an iterable read only then, are not those of a constant
    state."""
    rate = dt * max_rate(grid, u_sup)
    # a constant state is a fixed point at any step; only a varying one
    # has modes for an unstable step to amplify
    if rate > RK4_STABILITY and any(np.any(c.flat[1:]) for c in hats):
        raise StepTooLarge(f"RK4 step dt * lambda = {rate:.3f} > {RK4_STABILITY:.3f} "
                           f"at t = {t:.4f}; shrink dt", time=t, value=rate, step=step)


def check_first_step(s0: EulerState, dt: float) -> None:
    """run_euler's stability check before its first step of dt from s0, on
    s0's grid: StepTooLarge with s0.time, the rate and step 0."""
    shape = s0.grid.shape
    u_hat = spectral.rfft(np.stack([c.values for c in s0.u]), shape)
    # max |u_i| of the same grid values as run_euler's first stage
    u = spectral.irfft(u_hat, shape)
    u_sup = max(float(u.max()), -float(u.min()))

    def hats():
        yield from u_hat
        # reached only when the rate exceeds RK4_STABILITY and u is constant
        yield spectral.rfft(s0.log_rho.values, shape)

    _check_step(s0.grid, dt, u_sup, hats(), s0.time, 0)


def run_euler(s0: EulerState, T: float, dt: float, sample_every: int = 1) -> list[EulerState]:
    """Classical RK4 from s0 to ~T, returning the states at
    config.sample_steps. Before each step it raises BlowupGuardTripped when
    ||grad u||_inf exceeds the smooth-window guard or is not a number, then
    StepTooLarge when dt * max_rate exceeds RK4_STABILITY at a state that is
    not constant; both carry the time, the value measured and the number of
    steps completed. exp(s0.log_rho) must integrate to 1; the scheme does not
    conserve that mass, so the sampled states are not held to it."""
    mass = float(integrate(s0.rho()))
    # slack covers data like a*cos(2 pi x) whose raw mass is 1 + a^2/4
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"exp(log_rho) integrates to {mass!r}, not 1")
    steps = sample_steps(T, dt, sample_every)
    grid = s0.grid
    sym = spectral.symbols(grid, real=True)
    hat = spectrum(s0)
    buffers = _buffers(sym)
    states = [s0]
    sampled = set(steps)
    for step in range(steps[-1]):
        grad_u_sups: list = []
        u_sups: list = []
        # [0] frees the advection coefficients now, not after the next stage
        k = _rhs(sym, hat, buffers, grad_u_sups, u_sups)[0]
        t = s0.time + step * dt
        grad_u = _grad_u_sup(grad_u_sups)
        if not grad_u <= GRAD_U_GUARD:
            raise BlowupGuardTripped(f"||grad u||_inf > {GRAD_U_GUARD} at t = {t:.4f}",
                                     time=t, value=grad_u, step=step)
        _check_step(grid, dt, max(u_sups), hat, t, step)
        # running k1 + 2 k2 + 2 k3 + k4, added left to right
        total = k
        for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
            k = _rhs(sym, hat + frac * dt * k, buffers)[0]
            total = total + weight * k
        hat = hat + dt / 6.0 * total
        if step + 1 in sampled:
            log_rho, *u = (RealField(grid, v) for v in sym.inverse(hat))
            states.append(EulerState(log_rho, u, s0.time + (step + 1) * dt))
    return states


def euler_constants(traj: list[EulerState], grid: TorusGrid | None = None) -> dict:
    """Grönwall-constant ingredients of the trigonometric interpolant, on
    `grid` (n per axis; by default the trajectory's own, n_e), of a
    trajectory: sup ||grad u||_inf over the n nodes, the W^{1,inf}-in-time
    H^1-in-space size of log rho (d/dt from the equation) and
    sup ||grad(u . grad log rho)||_2. The L^2-type norms come by Parseval from
    one right-hand side per state on m = min(2 n_e, n) nodes per axis, where
    the products of the band |k| <= n_e/3 that a run on n_e evolves are exact."""
    if not traj:
        raise ValueError("trajectory is empty")
    coarse = traj[0].grid
    grid = grid or coarse
    if grid.dim != coarse.dim or grid.n < coarse.n:
        raise ValueError(f"{grid} is not as fine as the trajectory's {coarse}")
    m_grid = TorusGrid(grid.dim, min(2 * coarse.n, grid.n))
    sym, fine = (spectral.symbols(g, real=True) for g in (m_grid, grid))
    # |2 pi k|^2 with each axis's Nyquist mode zeroed, the symbol of grad.grad
    grad_k2 = sum(np.abs(ik) ** 2 for ik in sym.ik)

    def norm(hat: np.ndarray, symbol) -> float:
        return float(np.sqrt(sym.parseval(np.abs(hat) ** 2 * symbol))) / m_grid.size

    sup_grad_u = 0.0
    sup_log_h1 = 0.0
    sup_dt_log_h1 = 0.0
    sup_grad_advection = 0.0
    buffers = _buffers(sym)
    for s in traj:
        hat = spectrum(s)
        padded = spectral.zero_pad(hat, m_grid.shape)
        d_hat, advect_hat = _rhs(sym, padded, buffers)
        grad_u = [max(float(d.max()), -float(d.min()))
                  for d in (spectral.irfft_padded(c, grid.shape, ik)
                            for c in hat[1:] for ik in fine.ik)]
        sup_grad_u = max(sup_grad_u, _grad_u_sup(grad_u))
        sup_log_h1 = max(sup_log_h1, norm(padded[0], 1.0 + grad_k2))
        sup_dt_log_h1 = max(sup_dt_log_h1, norm(d_hat[0], 1.0 + grad_k2))
        sup_grad_advection = max(sup_grad_advection, norm(advect_hat[0], grad_k2))
    return {
        "sup_grad_u": sup_grad_u,
        "log_rho_h1": sup_log_h1,
        "dt_log_rho_h1": sup_dt_log_h1,
        "log_rho_w1inf_h1": max(sup_log_h1, sup_dt_log_h1),
        "sup_grad_advection": sup_grad_advection,
    }
