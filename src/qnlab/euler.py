"""Pseudospectral isothermal Euler in logarithmic variables on the torus:
d/dt log(rho) = -div u - u.grad log(rho),  d/dt u = -u.grad u - grad log(rho).
Classical RK4 in time on the rfft half-spectrum coefficients of (log rho, u),
2/3-rule dealiasing on the quadratic terms, which are summed before they are
dealiased. A stage goes to grid values only for the products: 11 real
transforms per 2-D stage, 5 in 1-D. Grid states are built at the samples only."""
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
    max_i |u_i| = sup_u: 2 pi (n/3) sqrt(dim) (sup_u sqrt(dim) + 1), the
    largest kept |2 pi k| times the largest |u| plus the unit sound speed."""
    root_dim = float(np.sqrt(grid.dim))
    return 2.0 * np.pi * (grid.n / 3.0) * root_dim * (sup_u * root_dim + 1.0)


def _rhs(sym: spectral.Symbols, log_hat: np.ndarray, u_hat: list,
         grad_u_sups: list | None = None, u_sups: list | None = None):
    """Right-hand side coefficients (d log rho/dt, [du_i/dt]) from those of
    log rho and u, and the coefficients of u.grad log rho before dealiasing;
    appends max |d_j u_i| of every velocity derivative to grad_u_sups and
    max |u_i| of every component to u_sups when they are given."""
    dim = len(u_hat)
    u = [sym.inverse(c) for c in u_hat]
    if u_sups is not None:
        u_sups.extend(max(float(c.max()), -float(c.min())) for c in u)
    d_u = []
    for i in range(dim):
        advect = 0.0
        for j in range(dim):
            d = sym.inverse(sym.ik[j] * u_hat[i])
            if grad_u_sups is not None:
                grad_u_sups.append(max(float(d.max()), -float(d.min())))
            advect = advect + u[j] * d
        d_u.append(-sym.ik[i] * log_hat - sym.dealias * sym.forward(advect))
    # last, so that advect_hat is not held through the velocity loop
    advect_hat = sym.forward(sum(u[j] * sym.inverse(sym.ik[j] * log_hat) for j in range(dim)))
    d_log = sum(-sym.ik[j] * u_hat[j] for j in range(dim)) - sym.dealias * advect_hat
    return d_log, d_u, advect_hat


def _coefficients(sym: spectral.Symbols, state: EulerState):
    return sym.forward(state.log_rho.values), [sym.forward(c.values) for c in state.u]


def euler_rhs(state: EulerState):
    """Right-hand side as fields, for inspection and testing."""
    sym = spectral.symbols(state.grid, real=True)
    d_log, d_u, _ = _rhs(sym, *_coefficients(sym, state))
    return (RealField(state.grid, sym.inverse(d_log)),
            [RealField(state.grid, sym.inverse(c)) for c in d_u])


def _grad_u_sup(grad_u_sups: list) -> float:
    """||grad u||_inf (NaN if any is) from the sups of the d_j u_i that a right-hand
    side recorded; run_euler calls it once per RK4 step, on the first stage."""
    return float(np.max(grad_u_sups))


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
    log_hat, u_hat = _coefficients(sym, s0)
    states = [s0]
    sampled = set(steps)
    for step in range(steps[-1]):
        grad_u_sups: list = []
        u_sups: list = []
        # [:2] frees the advection coefficients now, not after the next stage
        k_log, k_u = _rhs(sym, log_hat, u_hat, grad_u_sups, u_sups)[:2]
        t = s0.time + step * dt
        grad_u = _grad_u_sup(grad_u_sups)
        if not grad_u <= GRAD_U_GUARD:
            raise BlowupGuardTripped(f"||grad u||_inf > {GRAD_U_GUARD} at t = {t:.4f}",
                                     time=t, value=grad_u, step=step)
        rate = dt * max_rate(grid, max(u_sups))
        # a constant state is a fixed point at any step; only a varying one
        # has modes for an unstable step to amplify
        if rate > RK4_STABILITY and any(np.any(c.flat[1:]) for c in (log_hat, *u_hat)):
            raise StepTooLarge(f"RK4 step dt * lambda = {rate:.3f} > {RK4_STABILITY:.3f} "
                               f"at t = {t:.4f}; shrink dt", time=t, value=rate,
                               step=step)
        # running k1 + 2 k2 + 2 k3 + k4, added left to right
        sum_log, sum_u = k_log, k_u
        for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
            k_log, k_u = _rhs(sym, log_hat + frac * dt * k_log,
                              [u_hat[j] + frac * dt * k_u[j] for j in range(grid.dim)])[:2]
            sum_log = sum_log + weight * k_log
            sum_u = [a + weight * b for a, b in zip(sum_u, k_u)]
        log_hat = log_hat + dt / 6.0 * sum_log
        u_hat = [u_hat[j] + dt / 6.0 * sum_u[j] for j in range(grid.dim)]
        if step + 1 in sampled:
            states.append(EulerState(
                RealField(grid, sym.inverse(log_hat)),
                [RealField(grid, sym.inverse(c)) for c in u_hat],
                s0.time + (step + 1) * dt,
            ))
    return states


def euler_constants(traj: list[EulerState]) -> dict:
    """Grönwall-constant ingredients over a trajectory: sup ||grad u||_inf,
    the W^{1,inf}-in-time H^1-in-space size of log rho (time derivative taken
    from the equation), and sup ||grad(u . grad log rho)||_2. One right-hand
    side per state; the L^2-type norms are read off its coefficients by
    Parseval."""
    if not traj:
        raise ValueError("trajectory is empty")
    grid = traj[0].grid
    sym = spectral.symbols(grid, real=True)
    # |2 pi k|^2 with each axis's Nyquist mode zeroed, the symbol of grad.grad
    grad_k2 = sum(np.abs(ik) ** 2 for ik in sym.ik)

    def norm(hat: np.ndarray, symbol) -> float:
        return float(np.sqrt(sym.parseval(np.abs(hat) ** 2 * symbol))) / grid.size

    sup_grad_u = 0.0
    sup_log_h1 = 0.0
    sup_dt_log_h1 = 0.0
    sup_grad_advection = 0.0
    for s in traj:
        log_hat, u_hat = _coefficients(sym, s)
        grad_u_sups: list = []
        d_log, _, advect_hat = _rhs(sym, log_hat, u_hat, grad_u_sups)
        sup_grad_u = max(sup_grad_u, _grad_u_sup(grad_u_sups))
        sup_log_h1 = max(sup_log_h1, norm(log_hat, 1.0 + grad_k2))
        sup_dt_log_h1 = max(sup_dt_log_h1, norm(d_log, 1.0 + grad_k2))
        sup_grad_advection = max(sup_grad_advection, norm(advect_hat, grad_k2))
    return {
        "sup_grad_u": sup_grad_u,
        "log_rho_h1": sup_log_h1,
        "dt_log_rho_h1": sup_dt_log_h1,
        "log_rho_w1inf_h1": max(sup_log_h1, sup_dt_log_h1),
        "sup_grad_advection": sup_grad_advection,
    }
