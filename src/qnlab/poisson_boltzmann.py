"""Nonlinear Poisson-Boltzmann solves -eps*Lap(V) = h - exp(V) on the torus.

The potential is produced as the split V = tilde + hat, where tilde carries
the source (linear Poisson solve, or for particle data in 1-D the exact
Green-kernel sums of qnlab.nbody) and hat solves the remaining exponential
problem -eps*Lap(hat) = 1 - exp(tilde + hat) by damped Newton with a
preconditioned conjugate-gradient linear solve on plain arrays. The module
owns the closure: potential_values also solves the linear -eps*Lap(V) = h - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import spectral
from .config import MODES
from .errors import NewtonDiverged, PotentialSolveFailed
from .grid import (
    MASS_TOL,
    RealField,
    TorusGrid,
    check_density,
    gradient as field_gradient,
    integrate,
    l2_norm,
    spectral_derivative,
)
from .nbody import ParticleConfig, empirical_potential, w1_circle


NEWTON_CAP = 100
# Newton stops at L2 residual NEWTON_RTOL * (1 + ||data||_2)
NEWTON_RTOL = 1e-10
# each CG solve may stop once its linear residual is within CG_THETA of
# Newton's tolerance (see _newton_hat); the 1e-12 observables of the sweep
# tests break at 0.1
CG_THETA = 0.01
BACKTRACK_CAP = 30
CG_MAXITER = 400
LIP_SLACK = 0.05
# relative slack of the W1-stability relations, for roundoff in the norms
W1_SLACK = 1e-8
# keep exp() finite when a bad Newton trial wanders far out of the physical range
_EXP_CLIP = 700.0


@dataclass
class PotentialSplit:
    """Solution pair (tilde, hat) of the split potential, V = tilde + hat,
    under the closure `mode`; V, grad V and the closure's background density
    are built on first use and kept with the split."""

    tilde: RealField
    hat: RealField
    eps: float
    info: dict
    mode: str = "poisson_boltzmann"

    @cached_property
    def potential(self) -> RealField:
        return RealField(self.tilde.grid, self.tilde.values + self.hat.values)

    @cached_property
    def gradient(self) -> tuple[np.ndarray, ...]:
        """d_j V per axis."""
        return tuple(d.values for d in field_gradient(self.potential))

    @cached_property
    def background(self) -> RealField:
        """The closure's neutralizing density m: exp(V) under Poisson-Boltzmann,
        1 under the linear closure -eps*Lap(V) = h - 1."""
        grid = self.tilde.grid
        if self.mode == "poisson_boltzmann":
            return RealField(grid, np.exp(self.potential.values))
        return RealField(grid, np.ones(grid.shape))


# ---------------------------------------------------------------------------
# damped Newton for the hat equation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _preconditioner(grid: TorusGrid, eps: float) -> np.ndarray:
    """The symbol 1/(1 - eps*Lap) of _pcg's preconditioner on the rfft half
    spectrum, built once per grid and eps (a run solves hundreds of times
    with one of each)."""
    precond = 1.0 / (1.0 - eps * spectral.symbols(grid, real=True).minus_k2)
    precond.flags.writeable = False
    return precond


def _pcg(
    rhs: np.ndarray,
    weight: np.ndarray,
    eps: float,
    grid: TorusGrid,
    rtol: float,
) -> tuple[np.ndarray, int, bool]:
    """Preconditioned CG for (-eps*Lap + diag(weight)) x = rhs from x = 0.

    The operator is M^-1 + diag(weight - 1) with the preconditioner
    M = (1 - eps*Lap)^-1, so with z = M r and s = M^-1 p carried by the same
    recurrence as p (s <- r + beta*s), A p = s + (weight - 1) p costs no
    transform: one rfft/irfft pair per iteration, for z. Stops when
    ||r||_2 < rtol * ||rhs||_2, or unconverged after CG_MAXITER iterations;
    returns (x, iterations, converged). rtol is _newton_hat's forcing (see
    its docstring).
    """
    sym = spectral.symbols(grid, real=True)
    precond = _preconditioner(grid, eps)
    shift = weight - 1.0
    r = rhs  # never written: each iteration makes a new r
    rr = float(np.vdot(r, r))
    stop = rtol * math.sqrt(rr)
    x = p = s = None  # x = 0 until the first iteration makes it alpha * p
    iterations = 0
    while stop > 0.0 and math.sqrt(rr) >= stop:
        if iterations == CG_MAXITER:  # at least 1, so x is set
            return x, iterations, False
        z = sym.apply(r, precond)
        rz = float(np.vdot(r, z))
        if p is None:
            p, s = z, r
        else:
            beta = rz / rz_prev
            p = z + beta * p
            s = r + beta * s
        q = s + shift * p
        alpha = rz / float(np.vdot(p, q))
        x = alpha * p if x is None else x + alpha * p
        r = r - alpha * q
        rr = float(np.vdot(r, r))
        rz_prev = rz
        iterations += 1
    return (np.zeros_like(rhs) if x is None else x), iterations, True


def _newton_hat(
    tilde_vals: np.ndarray,
    eps: float,
    grid: TorusGrid,
    tol: float,
    hat0: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Solve F(hat) = -eps*Lap(hat) - 1 + exp(tilde + hat) = 0 to an L2 (RMS)
    residual <= tol by damped inexact Newton, from hat0, or from zeros when
    no guess is given. Every Poisson-Boltzmann solve follows this one rule:

    - every iterate, the start and each trial, is first moved by the
      constant -log mean exp(tilde + v), which -eps*Lap does not see, so the
      k = 0 equation mean exp(tilde + hat) = 1 holds to roundoff: the
      background mass inherits neither the start's defect nor the k = 0
      part of a step's linear residual;
    - the start is returned as it is only within CG_THETA * tol;
    - a start between CG_THETA * tol and tol owes one Newton step,
      backtracked as any other, and is kept, with nothing raised, if no
      trial lowers the residual;
    - every stepped iterate is accepted within tol.

    Each Newton step delta solves (-eps*Lap + diag(exp(tilde + hat))) delta
    = -F(hat) by _pcg from 0 to the relative tolerance

        forcing = max(min(||F||, 1e-2), CG_THETA * tol / ||F||),

    so the linear residual r_lin = -F(hat) - A delta has ||r_lin|| <=
    forcing * ||F||. The first term is the usual forcing proportional to the
    residual, which keeps the quadratic tail without over-solving early
    iterations; the second stops CG once ||r_lin|| <= CG_THETA * tol,
    instead of driving it to roundoff (Dembo, Eisenstat and Steihaug, SIAM J.
    Numer. Anal. 19, 1982; Eisenstat and Walker, SIAM J. Sci. Comput. 17,
    1996). Because -eps*Lap is linear, the new residual is exactly

        F(hat + delta) = -r_lin + exp(tilde + hat) (exp(delta) - 1 - delta),

    so every step ends within CG_THETA * tol plus the quadratic term. That
    is why the start is returned unstepped only within CG_THETA * tol:
    accepting it anywhere under tol would let the answer depend on how good
    the start was. Backtracking, NEWTON_CAP and the non-finite guard do not
    depend on the forcing.
    """
    sym = spectral.symbols(grid, real=True)

    def residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v moved by -log mean exp(tilde + v), F of it and exp(tilde + v)
        at it, the weight of the Newton step from there."""
        weight = np.exp(np.minimum(tilde_vals + v, _EXP_CLIP))
        mass = float(np.add.reduce(weight, axis=None)) / weight.size
        if mass > 0.0:  # a zero or nan mass leaves v as it is
            v = v - math.log(mass)
            weight = weight / mass
        return v, -eps * sym.apply(v, sym.minus_k2) - 1.0 + weight, weight

    def rms(r: np.ndarray) -> float:
        return math.sqrt(float(np.add.reduce(r * r, axis=None)) / r.size)

    hat, res, weight = residual(np.zeros(grid.shape) if hat0 is None else hat0)
    res_norm = rms(res)
    if not np.isfinite(res_norm):
        raise NewtonDiverged(f"non-finite residual {res_norm} at the initial guess", value=res_norm)
    history = [res_norm]
    iterations = 0
    cg_iterations = 0
    cg_failures = 0

    while res_norm > tol or (iterations == 0 and res_norm > CG_THETA * tol):
        if iterations >= NEWTON_CAP:
            raise NewtonDiverged(
                f"Newton cap {NEWTON_CAP} reached with residual {res_norm:.3e} (tol {tol:.3e})",
                value=res_norm)
        forcing = max(min(res_norm, 1e-2), CG_THETA * tol / res_norm)
        step, cg_its, converged = _pcg(-res, weight, eps, grid, forcing)
        cg_iterations += cg_its
        if not converged:
            cg_failures += 1
            # logging loads at the first message, not with every start-up
            import logging
            logging.getLogger(__name__).debug("cg hit maxiter at Newton iteration %d", iterations)

        alpha = 1.0
        for _ in range(BACKTRACK_CAP + 1):
            trial, trial_res, trial_weight = residual(hat + alpha * step)
            trial_norm = rms(trial_res)
            if trial_norm < res_norm:
                break
            alpha *= 0.5
        else:
            if res_norm <= tol:
                break  # the start's owed step found no descent; the start meets tol
            raise NewtonDiverged(
                f"backtracking exhausted at iteration {iterations}, residual {res_norm:.3e}",
                value=res_norm)
        hat, res, res_norm, weight = trial, trial_res, trial_norm, trial_weight
        history.append(res_norm)
        iterations += 1

    info = {
        "iterations": iterations,
        "residuals": history,
        "tolerance": tol,
        "cg_iterations": cg_iterations,
        "cg_failures": cg_failures,
    }
    return hat, info


def tilde_values(rho: np.ndarray, eps: float, grid: TorusGrid) -> np.ndarray:
    """The linear part, unchecked: -eps*Lap(tilde) = rho - mean(rho), mean(tilde) = 0.
    Both closure modes of a smooth density go through here. The symbol inv_k2 is
    0 at k = 0, so applying it to rho/eps also projects out the (at most
    MASS_TOL) mass defect."""
    sym = spectral.symbols(grid, real=True)
    return sym.apply(rho / eps, sym.inv_k2)


def check_solve(grid: TorusGrid, eps: float, hat0=None) -> np.ndarray | None:
    """eps must be positive, and a guess hat0 real of the grid's shape; returns hat0."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if hat0 is None:
        return None
    hat0 = np.asarray(hat0)
    if hat0.shape != grid.shape or np.iscomplexobj(hat0):
        raise ValueError(f"hat0 must be real of the grid's shape {grid.shape}, "
                         f"got {hat0.dtype} of shape {hat0.shape}")
    return hat0.astype(float, copy=False)


def pb_values(data: np.ndarray, eps: float, grid: TorusGrid, hat0=None, tilde=None) -> tuple:
    """solve_pb on data values, unchecked: (tilde, hat, info), hat to L2 residual
    NEWTON_RTOL * (1 + ||data||_2); an empirical solve gives tilde, data 1 - exp(tilde)."""
    tilde = tilde_values(data, eps, grid) if tilde is None else tilde
    tol = NEWTON_RTOL * (1.0 + math.sqrt(float(np.add.reduce(data * data, axis=None)) / data.size))
    return (tilde, *_newton_hat(tilde, eps, grid, tol, hat0))


def potential_values(rho: np.ndarray, eps: float, grid: TorusGrid, mode: str, hat0=None, *,
                     time: float | None = None, step: int | None = None) -> tuple:
    """(tilde, hat, info) of density values under the closure `mode`, unchecked: pb_values,
    or tilde_values and a zero hat under the linear -eps*Lap(V) = rho - 1; a failed Newton
    solve raises PotentialSolveFailed with `time`, `step` and its last residual."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "linear_poisson":
        return tilde_values(rho, eps, grid), np.zeros(grid.shape), {}
    try:
        return pb_values(rho, eps, grid, hat0)
    except NewtonDiverged as exc:
        raise PotentialSolveFailed(str(exc), time=time, value=exc.value, step=step) from exc


def solve_pb(h: RealField, eps: float, *, hat0: np.ndarray | None = None) -> PotentialSplit:
    """Solve -eps*Lap(V) = h - exp(V) for a smooth probability density h."""
    check_density(h)
    tilde, hat, info = pb_values(h.values, eps, h.grid, check_solve(h.grid, eps, hat0))
    return PotentialSplit(RealField(h.grid, tilde), RealField(h.grid, hat), eps, info)


def _empirical_solve(
    x: ParticleConfig, eps: float, grid: TorusGrid, hat0: np.ndarray | None = None
) -> tuple[PotentialSplit, np.ndarray]:
    """solve_pb_empirical's split and tilde' = phi'/eps at the nodes, from one
    evaluation of the particle sums."""
    if grid.dim != 1:
        raise ValueError("empirical solves are one-dimensional")
    hat0 = check_solve(grid, eps, hat0)
    phi, phi_prime = empirical_potential(x, grid.axis_points())
    tilde = RealField(grid, phi / eps)
    data = 1.0 - np.exp(np.minimum(tilde.values, _EXP_CLIP))
    _, hat, info = pb_values(data, eps, grid, hat0, tilde.values)
    return PotentialSplit(tilde, RealField(grid, hat), eps, info), phi_prime / eps


def solve_pb_empirical(
    x: ParticleConfig, eps: float, grid: TorusGrid, *, hat0: np.ndarray | None = None
) -> PotentialSplit:
    """Solve -eps*Lap(V) = mu_X - exp(V) in 1-D for an atomic measure mu_X.

    tilde = phi/eps, phi the exact potential of mu_X - 1 at the nodes
    (nbody.empirical_potential: true Dirac masses, no gridded delta); hat is
    the usual Newton solve with tilde held fixed.
    """
    return _empirical_solve(x, eps, grid, hat0)[0]


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def _entry(lhs: float, rhs: float) -> dict:
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "passed": bool(lhs <= rhs)}


def lipschitz_hat_prime(split: PotentialSplit) -> float:
    """Lipschitz constant of hat' in 1-D.

    The hat equation gives hat'' = (exp(V) - 1)/eps pointwise, so the sup of
    that expression is the exact Lipschitz constant of hat'.
    """
    if split.tilde.grid.dim != 1:
        raise ValueError("Lipschitz diagnostic is one-dimensional")
    v = split.potential.values
    return float(np.max(np.abs(np.exp(v) - 1.0))) / split.eps


def lipschitz_hat_prime_bound(eps: float) -> float:
    """A-priori bound on Lip(hat') in 1-D, valid for every probability source.

    1. eps*V' = -(G - mean G) with G = F_h - F_{exp(V)}, the difference of
       two CDFs, whose oscillation is at most 1; so |eps*V'| <= 1.
    2. V is then (1/eps)-Lipschitz, and int exp(V) = 1 gives
       max exp(V) <= B(eps) = 1/(2 eps (1 - exp(-1/(2 eps)))).
    3. With hat'' = (exp(V) - 1)/eps and exp(V) > 0,
       Lip(hat') <= max(1, B(eps) - 1)/eps.
    At eps = 1 the bound is exactly 1.
    """
    b = 1.0 / (2.0 * eps * -np.expm1(-0.5 / eps))
    return max(1.0, b - 1.0) / eps


def validate_elliptic_bounds(split: PotentialSplit, source) -> dict:
    """Report margins of the a-priori elliptic bounds for a finished solve.

    source is the data of the solve: a RealField density (smooth case) or a
    ParticleConfig (empirical case). Both sides use the split's own eps.
    Report-only; nothing is raised.
    """
    eps = split.eps
    report: dict = {}
    v = split.potential
    if isinstance(source, ParticleConfig):
        report["sup_potential"] = _entry(float(np.max(np.abs(v.values))), 1.0 / eps)
    else:
        report["l2_boltzmann"] = _entry(l2_norm(split.background), l2_norm(source))
    if split.tilde.grid.dim == 1:
        report["lipschitz_hat_prime"] = _entry(
            lipschitz_hat_prime(split), lipschitz_hat_prime_bound(eps) * (1.0 + LIP_SLACK))
    mass = float(integrate(split.background))
    report["boltzmann_mass"] = {"value": mass, "passed": bool(abs(mass - 1.0) <= MASS_TOL)}
    return report


def w1_stability_check(h1, h2, eps: float, grid: TorusGrid | None = None) -> dict:
    """Compare both sides of the measure-stability relations in 1-D.

    tilde_term = ||tilde1' - tilde2'||_2, hat_term = 4 sqrt(eps) ||hat1' - hat2'||_2
    and w1 = W1(h1, h2). Inputs can be RealField densities or ParticleConfig
    atoms (grid required for the latter). Report-only.

    `passed` holds when both relations below hold with W1_SLACK relative slack:

    - W1/eps <= tilde_term <= sqrt(W1)/eps. With G = F_h1 - F_h2,
      tilde1' - tilde2' = -(G - mean G)/eps; its L2 norm is at least its L1
      norm, which is at least W1 = min_c ||G - c||_1. For the upper half,
      test the mean against the W1-optimal c*: ||G - mean G||_2 <= ||G - c*||_2,
      and ||G - c*||_inf <= 1 gives ||G - c*||_2^2 <= ||G - c*||_1 = W1.
    - ||hat1' - hat2'||_2 <= ||tilde1' - tilde2'||_2: test the difference of
      the two hat equations against hat1 - hat2 and use that exp is
      monotone. In the report's terms, hat_term <= 4 sqrt(eps) tilde_term.

    lhs = tilde_term + hat_term and rhs = W1/eps are the two sides of the
    estimate lhs <= rhs, which the first relation shows fails for any two
    distinct inputs; they are reported, not tested.
    """
    def solve(h):
        if isinstance(h, ParticleConfig):
            if grid is None:
                raise ValueError("grid required for empirical inputs")
            return _empirical_solve(h, eps, grid)
        split = solve_pb(h, eps)
        return split, spectral_derivative(split.tilde, 0).values

    split1, tp1 = solve(h1)
    split2, tp2 = solve(h2)
    g = split1.tilde.grid
    tilde_term = l2_norm(RealField(g, tp1 - tp2))
    hp1 = spectral_derivative(split1.hat, 0).values
    hp2 = spectral_derivative(split2.hat, 0).values
    hat_term = 4.0 * np.sqrt(eps) * l2_norm(RealField(g, hp1 - hp2))
    w1 = w1_circle(h1, h2)
    slack = 1.0 + W1_SLACK
    passed = (w1 / eps <= tilde_term * slack
              and tilde_term <= np.sqrt(w1) / eps * slack
              and hat_term <= 4.0 * np.sqrt(eps) * tilde_term * slack)
    return {"lhs": tilde_term + hat_term, "rhs": w1 / eps, "tilde_term": tilde_term,
            "hat_term": hat_term, "w1": w1, "passed": bool(passed)}
