"""Split-step spectral integrator for the Schrodinger equation with a
self-consistent potential: i hbar dpsi/dt = -(hbar^2/2) Lap(psi) + V psi,
where V solves -eps*Lap(V) = |psi|^2 - e^V (or the linearized
-eps*Lap(V) = |psi|^2 - 1)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .config import MODES, sample_steps
from .errors import NewtonDiverged, PotentialSolveFailed, StepTooLarge
from .grid import (ComplexField, RealField, TorusGrid, check_density, gradient as field_gradient,
                   integrate)
from .poisson_boltzmann import PotentialSplit, check_solve, pb_values, tilde_values

# cap on the kinetic phase hbar |2 pi k|^2 dt / 2 through which one step turns
# the grid's top mode, |2 pi k|^2 maximized over the grid. The kinetic
# multiplier is exact at any dt, so the cap bounds no error: it refuses a dt
# that turns the top mode through 50 full turns or more per step. The
# splitting's time error at a dt under the cap is not bounded by it
KINETIC_PHASE_CAP = 100.0 * np.pi


@dataclass
class WaveFunction:
    psi: ComplexField
    hbar: float
    eps: float
    time: float = 0.0

    def __post_init__(self) -> None:
        if not (self.hbar > 0 and self.eps > 0):
            raise ValueError("hbar and eps must be positive")
        mass = float(integrate(RealField(self.psi.grid, np.abs(self.psi.values) ** 2)))
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"wave function has mass {mass!r}, not 1")

    @cached_property
    def gradient(self) -> tuple[np.ndarray, ...]:
        """d_j psi per axis, computed on first use and kept with the state."""
        return tuple(d.values for d in field_gradient(self.psi))


def density(w: WaveFunction) -> RealField:
    return RealField(w.psi.grid, np.abs(w.psi.values) ** 2)


def current(w: WaveFunction) -> list[RealField]:
    """J_j = hbar Im(conj(psi) d_j psi)."""
    return [RealField(w.psi.grid, w.hbar * np.imag(np.conj(w.psi.values) * dpsi))
            for dpsi in w.gradient]


def potential_values(rho: np.ndarray, eps: float, grid: TorusGrid, mode: str, hat0=None, *,
                     time: float | None = None, step: int | None = None) -> tuple:
    """solve_potential on density values, unchecked: (tilde, hat, info); a failed
    Newton solve raises PotentialSolveFailed with `time`, `step` and its last residual."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "linear_poisson":
        return tilde_values(rho, eps, grid), np.zeros(grid.shape), {}
    try:
        return pb_values(rho, eps, grid, hat0)
    except NewtonDiverged as exc:
        raise PotentialSolveFailed(str(exc), time=time, value=exc.residual, step=step) from exc


def solve_potential(rho: RealField, eps: float, mode: str = "poisson_boltzmann", hat0=None, *,
                    time: float | None = None, step: int | None = None) -> PotentialSplit:
    """potential_values of a density, its input checked as solve_pb checks it."""
    check_density(rho)
    tilde, hat, info = potential_values(rho.values, eps, rho.grid, mode,
                                        check_solve(rho.grid, eps, hat0), time=time, step=step)
    return PotentialSplit(RealField(rho.grid, tilde), RealField(rho.grid, hat), eps, info, mode)


def check_kinetic_phase(w: WaveFunction, dt: float) -> None:
    """StepTooLarge, carrying w's time, the phase and step 0, when a step of
    dt on w's grid exceeds KINETIC_PHASE_CAP."""
    grid = w.psi.grid
    phase = w.hbar * grid.dim * (np.pi * grid.n) ** 2 * dt / 2.0
    if phase >= KINETIC_PHASE_CAP:
        raise StepTooLarge(
            f"kinetic phase {phase:.1f} exceeds cap {KINETIC_PHASE_CAP:.1f}; shrink dt",
            time=w.time, value=phase, step=0,
        )


def _half_kinetic(w: WaveFunction, dt: float) -> np.ndarray:
    """Fourier multiplier exp(-i hbar |2 pi k|^2 dt / 4) of half a kinetic step."""
    return np.exp(0.25j * w.hbar * spectral.symbols(w.psi.grid, real=False).minus_k2 * dt)


def _step_core(chi_hat: np.ndarray, w: WaveFunction, step: int, dt: float, mode: str,
               hat0: np.ndarray | None, kinetic: np.ndarray) -> tuple:
    """Step number step + 1 of dt from w, from time t = w.time + step * dt,
    on the grid, hbar and eps of w, in coefficient space: chi_hat holds the
    coefficients before the kinetic factor still to come, `kinetic` is that
    factor with the step's opening half factor folded in. Returns the
    coefficients before the step's closing half factor, and the midpoint
    solve's hat and info; StepTooLarge, carrying t, the phase and `step`,
    unless the potential phase max|V| dt / hbar is below pi
    (PotentialSolveFailed, with t and `step`, when the midpoint solve fails).
    On plain arrays: |psi|^2 is not checked, as w was and a step keeps its mass."""
    psi = spectral.ifft(kinetic * chi_hat, w.psi.grid.shape)
    t = w.time + step * dt
    tilde, hat, info = potential_values(np.abs(psi) ** 2, w.eps, w.psi.grid, mode, hat0,
                                        time=t, step=step)
    v = tilde + hat
    v_phase = float(max(v.max(), -v.min())) * dt / w.hbar  # not finite if any V is not
    if not v_phase < np.pi:
        message = (f"potential phase {v_phase:.3f} >= pi; shrink dt" if np.isfinite(v_phase) else
                   f"non-finite potential: phase {v_phase} at step {step}, t = {t:.4g}")
        raise StepTooLarge(message, time=t, value=v_phase, step=step)
    return spectral.fft(psi * np.exp(1j * (-(v * dt) * (1 / w.hbar))), w.psi.grid.shape), hat, info


def step_strang(w: WaveFunction, dt: float, mode: str = "poisson_boltzmann") -> WaveFunction:
    """One Strang step: half kinetic, potential phase from the midpoint
    density, half kinetic. Exactly mass-conserving."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    check_kinetic_phase(w, dt)
    half_kinetic = _half_kinetic(w, dt)
    shape = w.psi.grid.shape
    chi_hat = _step_core(spectral.fft(w.psi.values, shape), w, 0, dt, mode, None, half_kinetic)[0]
    psi = spectral.ifft(half_kinetic * chi_hat, shape)
    return WaveFunction(ComplexField(w.psi.grid, psi), w.hbar, w.eps, w.time + dt)


def _extrapolate(solves: list[tuple[float, np.ndarray]], t: float) -> np.ndarray:
    """The hat at time t from the Lagrange polynomial through `solves`, (time,
    hat) pairs at distinct times, the newest last: constant through one pair,
    linear through two, quadratic through three. Times may be in any unit and
    unevenly spaced; on run's half-integer step times the weights are exact.
    The weights sum to 1, so the newest hat plus weighted differences is the
    same polynomial, with roundoff on the small differences, not on the hats."""
    hat_new = solves[-1][1]
    hat = hat_new
    for j, (t_j, hat_j) in enumerate(solves[:-1]):
        weight = 1.0
        for k, (t_k, _) in enumerate(solves):
            if k != j:
                weight *= (t - t_k) / (t_j - t_k)
        hat = hat + weight * (hat_j - hat_new)
    return hat


def run(w0: WaveFunction, T: float, dt: float, sample_every: int = 50,
        mode: str = "poisson_boltzmann") -> list[tuple[WaveFunction, PotentialSplit]]:
    """Integrate to time ~T, returning (state, potential) at
    config.sample_steps; sample i is stamped w0.time + i * dt, as in run_euler.

    The loop carries the coefficients before each step's closing half kinetic
    factor, so the closing half of one step and the opening half of the next
    are one full kinetic factor, and psi goes back to grid values only at the
    step midpoint and at the samples. At each sample the potential is
    re-solved from the current |psi|^2 so the stored split is self-consistent
    with the stored state. Every solve is warm-started by _extrapolate from
    the last three step solves at their actual times, the step midpoints
    (the t = 0 solve fills in while fewer than three exist): the next
    midpoint is dt ahead of the last, a sample dt/2. Where a solve starts
    and stops is poisson_boltzmann._newton_hat's rule; the closer the guess,
    the fewer CG iterations it needs. Energies are left to the caller
    (qnlab.energy).
    """
    steps = sample_steps(T, dt, sample_every)
    split0 = solve_potential(density(w0), w0.eps, mode, time=w0.time, step=0)
    samples = [(w0, split0)]
    if steps[-1] > 0:
        check_kinetic_phase(w0, dt)
    shape = w0.psi.grid.shape
    chi_hat = spectral.fft(w0.psi.values, shape)
    # (time in steps of dt from w0.time, hat) of the last three step solves
    solves = [(0.0, split0.hat.values)]
    half_kinetic = _half_kinetic(w0, dt)
    full_kinetic = half_kinetic * half_kinetic
    kinetic = half_kinetic  # the first step has no closing half before it
    sampled = set(steps)
    for i in range(1, steps[-1] + 1):
        chi_hat, hat, _ = _step_core(chi_hat, w0, i - 1, dt, mode,
                                     _extrapolate(solves, i - 0.5), kinetic)
        kinetic = full_kinetic
        solves = [*solves[-2:], (i - 0.5, hat)]
        if i in sampled:
            psi = spectral.ifft(half_kinetic * chi_hat, shape)
            w = WaveFunction(ComplexField(w0.psi.grid, psi), w0.hbar, w0.eps, w0.time + i * dt)
            snap = solve_potential(density(w), w.eps, mode, _extrapolate(solves, float(i)),
                                   time=w.time, step=i)
            samples.append((w, snap))
    return samples
