"""Nonlinear Poisson-Boltzmann solves -eps*Lap(V) = h - exp(V) on the torus.

The potential is produced as the split V = tilde + hat, where tilde carries
the source (linear Poisson solve, or for particle data in 1-D the exact
Green-kernel sums of qnlab.nbody) and hat solves the remaining exponential
problem -eps*Lap(hat) = 1 - exp(tilde + hat) by damped Newton with a
preconditioned conjugate-gradient linear solve on plain arrays.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import spectral
from .errors import NewtonDiverged
from .grid import (
    MASS_TOL,
    RealField,
    TorusGrid,
    check_density,
    integrate,
    l2_norm,
    spectral_derivative,
)
from .nbody import ParticleConfig, empirical_potential, w1_circle

log = logging.getLogger(__name__)

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
    info: dict = field(default_factory=dict)
    mode: str = "poisson_boltzmann"

    @cached_property
    def potential(self) -> RealField:
        return RealField(self.tilde.grid, self.tilde.values + self.hat.values)

    @cached_property
    def gradient(self) -> tuple[np.ndarray, ...]:
        """d_j V per axis."""
        return tuple(spectral_derivative(self.potential, j).values
                     for j in range(self.tilde.grid.dim))

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
    returns (x, iterations, converged). For rhs = -F(hat), _newton_hat passes
    rtol = max(clip(||F||, 1e-8, 1e-2), CG_THETA * tol / ||F||), so CG stops
    within CG_THETA of Newton's tolerance, not at roundoff; since
    F(hat + x) = -r + exp(tilde + hat) (exp(x) - 1 - x) exactly, a smaller
    r buys Newton nothing once the quadratic term is under tol.
    """
    sym = spectral.symbols(grid, real=True)
    precond = _preconditioner(grid, eps)
    shift = weight - 1.0
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * math.sqrt(float(np.vdot(rhs, rhs)))
    p = s = None
    rz_prev = 1.0
    iterations = 0
    while stop > 0.0 and math.sqrt(float(np.vdot(r, r))) >= stop:
        if iterations == CG_MAXITER:
            return x, iterations, False
        z = sym.apply(r, precond)
        rz = float(np.vdot(r, z))
        if p is None:
            p, s = z, r.copy()
        else:
            beta = rz / rz_prev
            p = z + beta * p
            s = r + beta * s
        q = s + shift * p
        alpha = rz / float(np.vdot(p, q))
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
        iterations += 1
    return x, iterations, True


def _newton_hat(
    tilde_vals: np.ndarray,
    eps: float,
    grid: TorusGrid,
    tol: float,
    hat0: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Solve F(hat) = -eps*Lap(hat) - 1 + exp(tilde + hat) = 0 to an L2 (RMS)
    residual <= tol by damped inexact Newton.

    Each Newton step delta solves (-eps*Lap + diag(exp(tilde + hat))) delta
    = -F(hat) by _pcg from 0 to the relative tolerance

        forcing = max(clip(||F||, 1e-8, 1e-2), CG_THETA * tol / ||F||),

    so the linear residual r_lin = -F(hat) - A delta has ||r_lin|| <=
    forcing * ||F||. The first term is the usual forcing proportional to the
    residual, which keeps the quadratic tail without over-solving early
    iterations; the lower bound stops CG once ||r_lin|| <= CG_THETA * tol,
    instead of driving it to roundoff (Dembo, Eisenstat and Steihaug, SIAM J.
    Numer. Anal. 19, 1982; Eisenstat and Walker, SIAM J. Sci. Comput. 17,
    1996). Because -eps*Lap is linear, the new residual is exactly

        F(hat + delta) = -r_lin + exp(tilde + hat) (exp(delta) - 1 - delta),

    so ||F(hat + delta)|| <= CG_THETA * tol + O(||delta||^2): from a warm start
    one full step still lands under tol. The stopping test, backtracking,
    NEWTON_CAP and the non-finite guard do not depend on the forcing.
    """
    sym = spectral.symbols(grid, real=True)

    def residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F(v) and exp(tilde + v), the weight of the Newton step from v."""
        weight = np.exp(np.minimum(tilde_vals + v, _EXP_CLIP))
        return -eps * sym.apply(v, sym.minus_k2) - 1.0 + weight, weight

    def rms(r: np.ndarray) -> float:
        return math.sqrt(float(np.add.reduce(r * r, axis=None)) / r.size)

    hat = np.zeros(grid.shape) if hat0 is None else np.array(hat0, dtype=float)
    res, weight = residual(hat)
    res_norm = rms(res)
    if not np.isfinite(res_norm):
        raise NewtonDiverged(f"non-finite residual {res_norm} at the initial guess", res_norm)
    history = [res_norm]
    iterations = 0
    cg_iterations = 0
    cg_failures = 0

    while res_norm > tol:
        if iterations >= NEWTON_CAP:
            raise NewtonDiverged(
                f"Newton cap {NEWTON_CAP} reached with residual {res_norm:.3e} (tol {tol:.3e})",
                res_norm)
        forcing = max(min(max(res_norm, 1e-8), 1e-2), CG_THETA * tol / res_norm)
        step, cg_its, converged = _pcg(-res, weight, eps, grid, forcing)
        cg_iterations += cg_its
        if not converged:
            cg_failures += 1
            log.debug("cg hit maxiter at Newton iteration %d", iterations)

        alpha = 1.0
        for _ in range(BACKTRACK_CAP + 1):
            trial = hat + alpha * step
            trial_res, trial_weight = residual(trial)
            trial_norm = rms(trial_res)
            if trial_norm < res_norm:
                break
            alpha *= 0.5
        else:
            raise NewtonDiverged(
                f"backtracking exhausted at iteration {iterations}, residual {res_norm:.3e}",
                res_norm)
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


def solve_tilde(h: RealField, eps: float) -> RealField:
    """The linear part: -eps*Lap(tilde) = h - mean(h), mean(tilde) = 0. Both
    closure modes of a smooth density go through here. The symbol inv_k2 is 0
    at k = 0, so applying it to h/eps also projects out the (at most MASS_TOL)
    mass defect."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    sym = spectral.symbols(h.grid, real=True)
    return RealField(h.grid, sym.apply(h.values / eps, sym.inv_k2))


def _split_with_hat(tilde: RealField, data_norm: float, eps: float, hat0) -> PotentialSplit:
    """tilde and its Newton hat, to L2 residual NEWTON_RTOL * (1 + ||data||_2)."""
    tol = NEWTON_RTOL * (1.0 + data_norm)
    hat_vals, info = _newton_hat(tilde.values, eps, tilde.grid, tol, hat0)
    return PotentialSplit(tilde, RealField(tilde.grid, hat_vals), eps, info)


def solve_pb(h: RealField, eps: float, *, hat0: np.ndarray | None = None) -> PotentialSplit:
    """Solve -eps*Lap(V) = h - exp(V) for a smooth probability density h."""
    check_density(h)
    return _split_with_hat(solve_tilde(h, eps), l2_norm(h), eps, hat0)


def _empirical_solve(
    x: ParticleConfig, eps: float, grid: TorusGrid, hat0: np.ndarray | None = None
) -> tuple[PotentialSplit, np.ndarray]:
    """solve_pb_empirical's split and tilde' = phi'/eps at the nodes, from one
    evaluation of the particle sums."""
    if grid.dim != 1:
        raise ValueError("empirical solves are one-dimensional")
    if not eps > 0:
        raise ValueError("eps must be positive")
    phi, phi_prime = empirical_potential(x, grid.axis_points())
    tilde = RealField(grid, phi / eps)
    data = RealField(grid, 1.0 - np.exp(np.minimum(tilde.values, _EXP_CLIP)))
    return _split_with_hat(tilde, l2_norm(data), eps, hat0), phi_prime / eps


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
