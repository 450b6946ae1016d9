"""Pseudospectral isothermal Euler in logarithmic variables on the torus:
d/dt log(rho) = -div u - u.grad log(rho),  d/dt u = -u.grad u - grad log(rho).
Classical RK4 in time, 2/3-rule dealiasing on the quadratic terms, which are
summed before they are dealiased: 15 real transforms per 2-D stage, 8 in 1-D."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .config import sample_steps
from .errors import BlowupGuardTripped
from .grid import RealField, TorusGrid, gradient, integrate

GRAD_U_GUARD = 50.0


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
        if isinstance(self.u, RealField):
            self.u = [self.u]
        self.u = list(self.u)
        if len(self.u) != self.log_rho.grid.dim:
            raise ValueError("velocity component count must match the grid dimension")
        mass = float(integrate(RealField(self.log_rho.grid, np.exp(self.log_rho.values))))
        # slack covers data like a*cos(2 pi x) whose raw mass is 1 + a^2/4
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"exp(log_rho) integrates to {mass!r}, not 1")

    @property
    def grid(self) -> TorusGrid:
        return self.log_rho.grid

    def rho(self) -> RealField:
        return RealField(self.grid, np.exp(self.log_rho.values))


def _rhs(sym: spectral.Symbols, log_rho: np.ndarray, u: list, grad_u_sups: list | None = None):
    """Right-hand side arrays (d log rho/dt, [du_i/dt]); appends max |d_j u_i|
    of every velocity derivative to grad_u_sups when it is given."""
    dim = len(u)
    log_hat = sym.forward(log_rho)
    u_hat = [sym.forward(c) for c in u]
    advect = sum(u[j] * sym.inverse(sym.ik[j] * log_hat) for j in range(dim))
    minus_div_hat = sum(-sym.ik[j] * u_hat[j] for j in range(dim))
    d_log = sym.inverse(minus_div_hat - sym.dealias * sym.forward(advect))
    d_u = []
    for i in range(dim):
        advect = 0.0
        for j in range(dim):
            d = sym.inverse(sym.ik[j] * u_hat[i])
            if grad_u_sups is not None:
                grad_u_sups.append(max(float(d.max()), -float(d.min())))
            advect = advect + u[j] * d
        d_u.append(sym.inverse(-sym.ik[i] * log_hat - sym.dealias * sym.forward(advect)))
    return d_log, d_u


def euler_rhs(state: EulerState):
    """Right-hand side as fields, for inspection and testing."""
    d_log, d_u = _rhs(spectral.symbols(state.grid, real=True), state.log_rho.values,
                      [c.values for c in state.u])
    return (RealField(state.grid, d_log), [RealField(state.grid, c) for c in d_u])


def _grad_u_sup(grad_u_sups: list) -> float:
    """||grad u||_inf (NaN if any is) from the sups of the d_j u_i that a right-hand
    side recorded; run_euler calls it once per RK4 step, on the first stage."""
    return float(np.max(grad_u_sups))


def run_euler(s0: EulerState, T: float, dt: float, sample_every: int = 1) -> list[EulerState]:
    """Classical RK4 from s0 to ~T, returning the states at
    config.sample_steps; raises BlowupGuardTripped when ||grad u||_inf
    exceeds the smooth-window guard or is not a number."""
    steps = sample_steps(T, dt, sample_every)
    grid = s0.grid
    sym = spectral.symbols(grid, real=True)
    log_rho = np.array(s0.log_rho.values, dtype=float)
    u = [np.array(c.values, dtype=float) for c in s0.u]
    states = [s0]
    sampled = set(steps)
    for step in range(steps[-1]):
        grad_u_sups: list = []
        k_log, k_u = _rhs(sym, log_rho, u, grad_u_sups)
        if not _grad_u_sup(grad_u_sups) <= GRAD_U_GUARD:
            raise BlowupGuardTripped(
                f"||grad u||_inf > {GRAD_U_GUARD} at t = {s0.time + step * dt:.4f}"
            )
        # running k1 + 2 k2 + 2 k3 + k4, added left to right
        sum_log, sum_u = k_log, k_u
        for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
            k_log, k_u = _rhs(sym, log_rho + frac * dt * k_log,
                              [u[j] + frac * dt * k_u[j] for j in range(grid.dim)])
            sum_log = sum_log + weight * k_log
            sum_u = [a + weight * b for a, b in zip(sum_u, k_u)]
        log_rho = log_rho + dt / 6.0 * sum_log
        u = [u[j] + dt / 6.0 * sum_u[j] for j in range(grid.dim)]
        if step + 1 in sampled:
            states.append(EulerState(
                RealField(grid, log_rho),
                [RealField(grid, c) for c in u],
                s0.time + (step + 1) * dt,
            ))
    return states


def euler_constants(traj: list[EulerState]) -> dict:
    """Grönwall-constant ingredients over a trajectory: sup ||grad u||_inf,
    the W^{1,inf}-in-time H^1-in-space size of log rho (time derivative taken
    from the equation), and sup ||grad(u . grad log rho)||_2."""
    if not traj:
        raise ValueError("trajectory is empty")
    sym = spectral.symbols(traj[0].grid, real=True)

    def h1(f: RealField) -> float:
        sq = sum((np.mean(d.values**2) for d in gradient(f)), np.mean(f.values**2))
        return float(np.sqrt(sq))

    sup_grad_u = 0.0
    sup_log_h1 = 0.0
    sup_dt_log_h1 = 0.0
    sup_grad_advection = 0.0
    for s in traj:
        grad_u_sups: list = []
        d_log, _ = _rhs(sym, s.log_rho.values, [c.values for c in s.u], grad_u_sups)
        sup_grad_u = max(sup_grad_u, _grad_u_sup(grad_u_sups))
        sup_log_h1 = max(sup_log_h1, h1(s.log_rho))
        sup_dt_log_h1 = max(sup_dt_log_h1, h1(RealField(s.grid, d_log)))
        advect = sum(u_j.values * d.values for u_j, d in zip(s.u, gradient(s.log_rho)))
        grad_sq = sum(float(np.mean(d.values**2)) for d in gradient(RealField(s.grid, advect)))
        sup_grad_advection = max(sup_grad_advection, float(np.sqrt(grad_sq)))
    return {
        "sup_grad_u": sup_grad_u,
        "log_rho_h1": sup_log_h1,
        "dt_log_rho_h1": sup_dt_log_h1,
        "log_rho_w1inf_h1": max(sup_log_h1, sup_dt_log_h1),
        "sup_grad_advection": sup_grad_advection,
    }
