"""Energies of a quantum state: the energy its closure conserves, the
modulated energy against a fluid state (kinetic part against a reference
velocity, field energy, relative entropy of the closure's background density
against the fluid density), the Csiszar-Kullback-Pinsker bound, and weak
distances between quantum and fluid observables."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveReference
from .grid import RealField, check_density, h_minus1_norm
from .schrodinger import current, density

# below this the m log m term is numerically 0 (the 0 log 0 = 0 convention)
_VACUUM = 1e-300


@dataclass
class EnergyReport:
    kinetic_modulated: float
    field_energy: float
    relative_entropy: float
    total_modulated: float
    conserved_total: float


def _velocity_components(u, dim: int):
    if isinstance(u, RealField):
        u = [u]
    if len(u) != dim:
        raise ValueError(f"velocity needs {dim} components, got {len(u)}")
    return u


def kinetic_modulated(w, u) -> float:
    """(1/2) int sum_j |(i hbar d_j + u_j) psi|^2."""
    psi = w.psi.values
    comps = _velocity_components(u, w.psi.grid.dim)
    total = 0.0
    for dpsi, u_j in zip(w.gradient, comps):
        shifted = 1j * w.hbar * dpsi + u_j.values * psi
        total += 0.5 * float(np.mean(np.abs(shifted) ** 2))
    return total


def relative_entropy(m: RealField, rho: RealField) -> float:
    """int (m log(m/rho) - m + rho) with the vacuum convention 0 log 0 = 0."""
    if float(np.min(rho.values)) <= 0.0:
        raise NonpositiveReference("reference density must be positive")
    mv = np.asarray(m.values, dtype=float)
    if float(np.min(mv)) < -1e-12:
        raise ValueError("density m must be nonnegative")
    mv = np.maximum(mv, 0.0)
    log_ratio = np.where(mv < _VACUUM, 0.0, np.log(np.maximum(mv, _VACUUM)) - np.log(rho.values))
    return float(np.mean(mv * log_ratio - mv + rho.values))


def ckp_check(m: RealField, rho: RealField) -> dict:
    """L1 distance against the entropy bound sqrt(2 * relative entropy)."""
    check_density(m)
    check_density(rho)
    l1 = float(np.mean(np.abs(rho.values - m.values)))
    ent = relative_entropy(m, rho)
    bound = float(np.sqrt(2.0 * max(ent, 0.0)))
    return {
        "l1_distance": l1,
        "entropy": ent,
        "entropy_bound": bound,
        "margin": bound - l1,
        "passed": bool(l1 <= bound + 1e-12),
    }


def field_energy(split) -> float:
    """(eps/2) int |grad V|^2 for the full potential of a split."""
    total = 0.0
    for dv in split.gradient:
        total += float(np.mean(dv**2))
    return 0.5 * split.eps * total


def conserved_energy(w, split) -> float:
    """(hbar^2/2)||grad psi||^2 + (eps/2)||grad V||^2 + int V m, the energy the
    closure of split conserves, m its background density (int V m = 0 if m = 1)."""
    kinetic = 0.0
    for dpsi in w.gradient:
        kinetic += 0.5 * w.hbar**2 * float(np.mean(np.abs(dpsi) ** 2))
    potential = float(np.mean(split.potential.values * split.background.values))
    return kinetic + field_energy(split) + potential


def modulated_total(w, split, euler) -> EnergyReport:
    """Assemble the modulated energy of a quantum state against a fluid state.

    Caller guarantees split is self-consistent with |psi|^2 and the fluid
    state is at the same time (within half a step).
    """
    kin = kinetic_modulated(w, euler.u)
    fld = field_energy(split)
    rel = relative_entropy(split.background, RealField(w.psi.grid, np.exp(euler.log_rho.values)))
    return EnergyReport(
        kinetic_modulated=kin,
        field_energy=fld,
        relative_entropy=rel,
        total_modulated=kin + fld + rel,
        conserved_total=conserved_energy(w, split),
    )


def weak_distances(w, euler, split, kin: float, test_fields=()) -> dict:
    """Weak-topology gaps: mean-corrected H^-1 between densities, L1 between
    the thermalized density of split and the fluid density, and current
    errors |int (J - rho u) b| with their 2 ||b||_inf sqrt(kin) bounds, kin
    the kinetic modulated energy of w against euler that modulated_total
    reports."""
    grid = w.psi.grid
    rho_q = density(w)
    rho_fluid = np.exp(euler.log_rho.values)
    diff = rho_q.values - rho_fluid
    diff = diff - diff.mean()
    h_m1 = h_minus1_norm(RealField(grid, diff))
    l1 = float(np.mean(np.abs(split.background.values - rho_fluid)))

    j = current(w)
    currents = []
    for b in test_fields:
        comps = _velocity_components(b, grid.dim)
        val = sum(
            float(np.mean((j[k].values - rho_q.values * euler.u[k].values) * comps[k].values))
            for k in range(grid.dim)
        )
        b_sup = float(np.max(np.sqrt(sum(c.values**2 for c in comps))))
        bound = 2.0 * b_sup * float(np.sqrt(max(kin, 0.0)))
        currents.append({
            "value": val,
            "bound": bound,
            "passed": bool(abs(val) <= bound + 1e-14),
        })
    return {
        "h_minus1_density": h_m1,
        "l1_background": l1,
        "currents": currents,
    }
