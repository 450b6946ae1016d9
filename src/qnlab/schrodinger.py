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
from .grid import ComplexField, RealField, integrate, spectral_derivative
from .poisson_boltzmann import PotentialSplit, solve_pb, solve_tilde

# sampling guard on the kinetic phase hbar |2 pi k|^2 dt / 2, |2 pi k|^2
# maximized over the grid; the multiplier itself is exact, this keeps dt in
# the order-2 error regime
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
        return tuple(spectral_derivative(self.psi, j).values for j in range(self.psi.grid.dim))


def density(w: WaveFunction) -> RealField:
    return RealField(w.psi.grid, np.abs(w.psi.values) ** 2)


def current(w: WaveFunction) -> list[RealField]:
    """J_j = hbar Im(conj(psi) d_j psi)."""
    return [RealField(w.psi.grid, w.hbar * np.imag(np.conj(w.psi.values) * dpsi))
            for dpsi in w.gradient]


def solve_potential(rho: RealField, eps: float, mode: str = "poisson_boltzmann",
                    hat0: np.ndarray | None = None) -> PotentialSplit:
    """Self-consistent potential of a density in either closure mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "poisson_boltzmann":
        try:
            return solve_pb(rho, eps, hat0=hat0)
        except NewtonDiverged as exc:
            raise PotentialSolveFailed(str(exc)) from exc
    return PotentialSplit(solve_tilde(rho, eps), RealField(rho.grid, np.zeros(rho.grid.shape)),
                          eps, mode=mode)


def check_kinetic_phase(w: WaveFunction, dt: float) -> None:
    """StepTooLarge when a step of dt on w's grid exceeds KINETIC_PHASE_CAP."""
    grid = w.psi.grid
    phase = w.hbar * grid.dim * (np.pi * grid.n) ** 2 * dt / 2.0
    if phase >= KINETIC_PHASE_CAP:
        raise StepTooLarge(
            f"kinetic phase {phase:.1f} exceeds cap {KINETIC_PHASE_CAP:.1f}; shrink dt"
        )


def _half_kinetic(w: WaveFunction, dt: float) -> np.ndarray:
    """Fourier multiplier exp(-i hbar |2 pi k|^2 dt / 4) of half a kinetic step."""
    return np.exp(0.25j * w.hbar * spectral.symbols(w.psi.grid, real=False).minus_k2 * dt)


def _step_core(chi_hat: np.ndarray, w: WaveFunction, dt: float, mode: str,
               hat0: np.ndarray | None, kinetic: np.ndarray) -> tuple[np.ndarray, PotentialSplit]:
    """One Strang step on the grid, hbar and eps of w, in coefficient space:
    chi_hat holds the coefficients before the kinetic factor still to come,
    `kinetic` is that factor with the step's opening half factor folded in.
    Returns the coefficients before the step's closing half factor."""
    psi = spectral.ifft(kinetic * chi_hat)
    rho = RealField(w.psi.grid, np.abs(psi) ** 2)
    split = solve_potential(rho, w.eps, mode, hat0)
    v = split.potential.values
    v_phase = float(np.max(np.abs(v))) * dt / w.hbar
    if v_phase >= np.pi:
        raise StepTooLarge(f"potential phase {v_phase:.3f} >= pi; shrink dt")
    return spectral.fft(psi * np.exp(-1j * v * dt / w.hbar)), split


def step_strang(w: WaveFunction, dt: float, mode: str = "poisson_boltzmann") -> WaveFunction:
    """One Strang step: half kinetic, potential phase from the midpoint
    density, half kinetic. Exactly mass-conserving."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    check_kinetic_phase(w, dt)
    half_kinetic = _half_kinetic(w, dt)
    chi_hat, _ = _step_core(spectral.fft(w.psi.values), w, dt, mode, None, half_kinetic)
    psi = spectral.ifft(half_kinetic * chi_hat)
    return WaveFunction(ComplexField(w.psi.grid, psi), w.hbar, w.eps, w.time + dt)


def run(w0: WaveFunction, T: float, dt: float, sample_every: int = 50,
        mode: str = "poisson_boltzmann") -> list[tuple[WaveFunction, PotentialSplit]]:
    """Integrate to time ~T, returning (state, potential) at
    config.sample_steps; a sample's time is its state's `time`.

    The loop carries the coefficients before each step's closing half kinetic
    factor, so the closing half of one step and the opening half of the next
    are one full kinetic factor, and psi goes back to grid values only at the
    step midpoint and at the samples. At each sample the potential is
    re-solved from the current |psi|^2 so the stored split is self-consistent
    with the stored state. Every solve is warm-started by linear
    extrapolation of the hats of the last two step solves, which sit at the
    step midpoints, dt apart. Energies are left to the caller (qnlab.energy).
    """
    steps = sample_steps(T, dt, sample_every)
    split0 = solve_potential(density(w0), w0.eps, mode)
    samples = [(w0, split0)]
    if steps[-1] > 0:
        check_kinetic_phase(w0, dt)
    chi_hat, t = spectral.fft(w0.psi.values), w0.time
    # hat_n, hat_(n-1): the last two step solves. The next midpoint is dt
    # ahead (2 hat_n - hat_(n-1); the first step gets hat_0), the sample
    # time dt/2 (1.5 hat_n - 0.5 hat_(n-1))
    hat_n = hat_prev = split0.hat.values
    half_kinetic = _half_kinetic(w0, dt)
    full_kinetic = half_kinetic * half_kinetic
    kinetic = half_kinetic  # the first step has no closing half before it
    sampled = set(steps)
    for i in range(1, steps[-1] + 1):
        chi_hat, split_used = _step_core(chi_hat, w0, dt, mode, 2.0 * hat_n - hat_prev, kinetic)
        kinetic = full_kinetic
        t += dt
        hat_n, hat_prev = split_used.hat.values, hat_n
        if i in sampled:
            psi = spectral.ifft(half_kinetic * chi_hat)
            w = WaveFunction(ComplexField(w0.psi.grid, psi), w0.hbar, w0.eps, t)
            snap = solve_potential(density(w), w.eps, mode, 1.5 * hat_n - 0.5 * hat_prev)
            samples.append((w, snap))
    return samples
