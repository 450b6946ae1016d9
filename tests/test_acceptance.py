"""Twelve-point acceptance gate, one pass/fail line per criterion.

Each test prints an `AC-n: PASS/FAIL` line with the measured numbers and then
asserts it; a FAIL line carries the evidence.  Every pinned parameter lies
where the construction exists: the AC-1/AC-2 ladder sits below the positivity
threshold eps*(a) of the prepared amplitude, and AC-5 checks the elliptic
bounds that hold for every probability source (derived in the docstrings of
`lipschitz_hat_prime_bound` and `w1_stability_check`).
"""
import csv
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_density
from qnlab.cli import main as cli_main
from qnlab.config import build_config
from qnlab.energy import ckp_check
from qnlab.euler import EulerState, run_euler
from qnlab.experiments import _sweep_point, _sweep_reference
from qnlab.grid import ComplexField, RealField, TorusGrid, integrate
from qnlab.initial_data import (WellPreparedSpec, entropy_w1_check,
                                quantum_density, sample_iid)
from qnlab.nbody import (ParticleConfig, green_kernel, mc_uniform_stats,
                         renormalized_energy, w1_circle, wrap_half)
from qnlab.poisson_boltzmann import (solve_pb, solve_pb_empirical,
                                     validate_elliptic_bounds,
                                     w1_stability_check)
from qnlab.schrodinger import WaveFunction, density, run

# For rho0 = exp(a cos 2 pi x)/I0(a) the prepared amplitude e^{V0} - eps*Lap(V0)
# has minimum e^{-a}/I0(a) - 4 pi^2 eps a, positive only below
# eps*(a) = e^{-a}/(4 pi^2 a I0(a)), about 0.0289 at a = 0.5; the ladder halves
# eps = hbar downward from the reference point 0.025, so every point lies below it.
AC1_EPS = (0.025, 0.0125, 0.00625)
AC1_CFG = dataclasses.replace(
    build_config({}, "quasineutral_sweep"), grid_dim=1, grid_n=2048, big_t=0.2, dt=1e-4,
    sample_every=200, mode="poisson_boltzmann", rho0_amp=0.5, u0_amp=0.1)


def emit(name: str, failures: list, detail: str = "") -> None:
    line = f"{name}: {'PASS' if not failures else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    for item in failures:
        line += f"\n    {item}"
    print(line)
    assert not failures, line


@pytest.fixture(scope="session")
def sweep3():
    """The reference sweep: eps = hbar over AC1_EPS with AC1_CFG data."""
    t0 = time.perf_counter()
    reference = _sweep_reference(AC1_CFG)
    results = [_sweep_point(AC1_CFG, reference, e, e) for e in AC1_EPS]
    return {"results": results, "wall": time.perf_counter() - t0}


def _ac1_closed_form(eps: float, hbar: float, n: int = 2048) -> float:
    """Initial modulated energy of the prepared data, by plain quadrature:
    (hbar^2/2)||d/dx sqrt(rho_eps)||^2 + (eps/2)||V0'||^2 for
    rho0 = exp(a cos 2 pi x)/Z with a = AC1_CFG.rho0_amp."""
    a = AC1_CFG.rho0_amp
    x = np.arange(n) / n
    c = np.cos(2.0 * np.pi * x)
    s = np.sin(2.0 * np.pi * x)
    v0 = a * c - np.log(np.mean(np.exp(a * c)))
    rho_eps = np.exp(v0) + 4.0 * np.pi**2 * eps * a * c
    rho_eps_prime = -2.0 * np.pi * a * s * np.exp(v0) - 8.0 * np.pi**3 * eps * a * s
    amp_prime = rho_eps_prime / (2.0 * np.sqrt(rho_eps))
    kinetic = 0.5 * hbar**2 * np.mean(amp_prime**2)
    field = 0.5 * eps * np.mean((2.0 * np.pi * a * s) ** 2)
    return float(kinetic + field)


def test_ac01_modulated_energy_sweep(sweep3):
    failures = []
    sups = []
    for eps, res in zip(AC1_EPS, sweep3["results"]):
        if res["status"] != "ok":
            failures.append(
                f"eps=hbar={eps}: prepared amplitude not positive — {res['error']['message']}")
            continue
        sups.append(res["maxima"]["total_modulated"])
        gap = abs(res["rows"][0]["total_modulated"] - _ac1_closed_form(eps, eps))
        if gap > 1e-8:
            failures.append(f"eps=hbar={eps}: initial energy off closed form by {gap:.3e}")
    if len(sups) == len(AC1_EPS):
        if not all(a > b for a, b in zip(sups, sups[1:])):
            failures.append(f"sup_t energy not strictly decreasing: {sups}")
    else:
        failures.append(
            f"sup-energy trend needs all {len(AC1_EPS)} points; only {len(sups)} constructible")
    if sweep3["wall"] > 600.0:
        failures.append(f"sweep took {sweep3['wall']:.0f}s > 600s")
    emit("AC-1 modulated-energy sweep, eps = hbar in {0.025, 0.0125, 0.00625}",
         failures,
         detail=f"sup energies {['%.4g' % s for s in sups]}, wall {sweep3['wall']:.1f}s")


def test_ac02_total_energy_conservation(sweep3):
    failures = []
    mid = sweep3["results"][1]
    if mid["status"] != "ok":
        failures.append(
            f"reference run eps=hbar={AC1_EPS[1]} does not exist: {mid['error']['message']}")
        detail = "middle sweep point rejected at the positivity guard"
    else:
        drift = mid["conserved_drift_max"]
        if drift > 1e-6:
            failures.append(f"relative drift {drift:.3e} > 1e-6")
        half_cfg = dataclasses.replace(AC1_CFG, dt=AC1_CFG.dt / 2, sample_every=400)
        half = _sweep_point(half_cfg, _sweep_reference(half_cfg), AC1_EPS[1], AC1_EPS[1])
        ratio = drift / max(half["conserved_drift_max"], 1e-300)
        if ratio < 3.5:
            failures.append(f"dt halving reduced drift only {ratio:.2f}x < 3.5x")
        detail = f"drift {drift:.3e}, halving ratio {ratio:.2f}"
    emit("AC-2 total-energy conservation on the middle sweep run", failures, detail)


def test_ac03_plane_wave_exact_solution():
    grid = TorusGrid(1, 256)
    x = grid.axis_points()
    hbar, big_t = 0.1, 1.0
    w0 = WaveFunction(ComplexField(grid, np.exp(4j * np.pi * x)), hbar, 0.1)
    traj = run(w0, big_t, 1e-3, sample_every=100)
    exact = np.exp(4j * np.pi * x - 0.5j * hbar * (4.0 * np.pi) ** 2 * big_t)
    err = float(np.max(np.abs(traj[-1][0].psi.values - exact)))
    drift = max(abs(integrate(density(w)) - 1.0) for w, _ in traj)
    failures = []
    if err >= 1e-10:
        failures.append(f"terminal error {err:.3e} >= 1e-10")
    if drift >= 1e-12:
        failures.append(f"mass drift {drift:.3e} >= 1e-12")
    emit("AC-3 plane-wave exact solution", failures,
         detail=f"terminal error {err:.2e}, mass drift {drift:.2e}")


def test_ac04_elliptic_solver():
    grid = TorusGrid(1, 256)
    x = grid.axis_points()
    failures = []
    mass_worst = 0.0

    def track(split):
        nonlocal mass_worst
        mass_worst = max(mass_worst, abs(integrate(split.background) - 1.0))
        return split

    flat = track(solve_pb(RealField(grid, np.ones(grid.n)), 0.1))
    sup_flat = float(np.max(np.abs(flat.potential.values)))
    if sup_flat > 1e-12:
        failures.append(f"flat source: sup|V| = {sup_flat:.3e} > 1e-12")

    a = 1e-4
    pert = track(solve_pb(RealField(grid, 1.0 + a * np.cos(2 * np.pi * x)), 0.1))
    linearized = a * np.cos(2 * np.pi * x) / (1.0 + 0.1 * (2.0 * np.pi) ** 2)
    lin_err = float(np.max(np.abs(pert.potential.values - linearized)))
    if lin_err > 10 * a**2:
        failures.append(f"linearization error {lin_err:.3e} > {10 * a**2:.1e}")

    smooth = np.exp(0.4 * np.cos(2 * np.pi * x))
    smooth /= smooth.mean()
    iter_worst, res_worst = 0, 0.0
    for eps in (1e-3, 1e-2, 1e-1, 1.0):
        split = track(solve_pb(RealField(grid, smooth), eps))
        iter_worst = max(iter_worst, split.info["iterations"])
        res_worst = max(res_worst, split.info["residuals"][-1])
    if iter_worst > 15:
        failures.append(f"Newton used {iter_worst} > 15 iterations")
    if res_worst >= 1e-10:
        failures.append(f"Newton residual {res_worst:.3e} >= 1e-10")
    if mass_worst > 1e-8:
        failures.append(f"int e^V off unity by {mass_worst:.3e} > 1e-8")
    emit("AC-4 nonlinear elliptic solver", failures,
         detail=f"lin err {lin_err:.2e}, <= {iter_worst} iters, residual {res_worst:.1e}, "
                f"mass defect {mass_worst:.1e}")


def test_ac05_elliptic_bounds_on_empirical_sources():
    grid = TorusGrid(1, 256)
    rng = np.random.default_rng(2024)
    sizes, epss = (4, 64), (1.0, 0.25, 0.05)
    sup_bad = 0
    lip_bad, lip_ratio_max = 0, 0.0
    w1_bad, w1_pairs = 0, 0
    pending = {}
    for i in range(200):
        n, eps = sizes[i % 2], epss[(i // 2) % 3]
        x = ParticleConfig(rng.random(n))
        split = solve_pb_empirical(x, eps, grid)
        if eps * float(np.max(np.abs(split.potential.values))) > 1.0:
            sup_bad += 1
        # Lip(hat') against the eps-dependent a-priori bound of the validator
        lip = validate_elliptic_bounds(split, x)["lipschitz_hat_prime"]
        lip_ratio_max = max(lip_ratio_max, lip["lhs"] / lip["rhs"])
        if not lip["passed"]:
            lip_bad += 1
        if (n, eps) in pending:
            rep = w1_stability_check(pending.pop((n, eps)), x, eps, grid=grid)
            w1_pairs += 1
            # passed: W1/eps <= ||tilde1'-tilde2'|| <= sqrt(W1)/eps and
            # ||hat1'-hat2'|| <= ||tilde1'-tilde2'||, with 1e-8 relative slack
            if not rep["passed"]:
                w1_bad += 1
        else:
            pending[(n, eps)] = x
    failures = []
    if sup_bad:
        failures.append(f"eps*sup|V| <= 1 violated in {sup_bad}/200 configs")
    if lip_bad:
        failures.append(
            f"Lipschitz bound on hat' violated in {lip_bad}/200 configs "
            f"(max lhs/rhs {lip_ratio_max:.3f})")
    if w1_bad:
        failures.append(
            f"W1-stability relations W1/eps <= tilde term <= sqrt(W1)/eps, "
            f"hat term <= 4 sqrt(eps) tilde term violated in {w1_bad}/{w1_pairs} pairs")
    emit("AC-5 elliptic a-priori bounds over 200 random empirical configs",
         failures, detail=f"sup-bound violations {sup_bad}, "
                          f"Lipschitz max lhs/rhs {lip_ratio_max:.3f}, W1 pairs {w1_pairs}")


def test_ac06_l1_entropy_inequality():
    grid = TorusGrid(1, 256)
    rng = np.random.default_rng(606)
    worst = np.inf
    failures = []
    for _ in range(100):
        m = smooth_density(grid, rng)
        rho = smooth_density(grid, rng)
        rep = ckp_check(m, rho)
        worst = min(worst, rep["entropy_bound"] - rep["l1_distance"])
        if rep["l1_distance"] > rep["entropy_bound"] + 1e-8:
            failures.append(
                f"||rho-m||_1 = {rep['l1_distance']:.6f} > sqrt(2 RE) = {rep['entropy_bound']:.6f}")
    emit("AC-6 L1-entropy inequality over 100 random density pairs", failures,
         detail=f"worst margin {worst:.3e}")


def test_ac07_renormalized_energy_positivity():
    grid = TorusGrid(1, 256)
    rng = np.random.default_rng(707)
    worst = np.inf
    worst_w1 = 0.0
    failures = []
    for i in range(1000):
        n = (2, 8, 32, 128)[i % 4]
        mu = smooth_density(grid, rng)
        x = ParticleConfig(rng.random(n))
        e = renormalized_energy(x, mu)
        slack = e.value + (1.0 + float(np.max(mu.values))) / n**2
        worst = min(worst, slack)
        if slack < -1e-10:
            failures.append(f"N={n}: energy + counterterm = {slack:.3e} < -1e-10")
        # Cauchy-Schwarz on the CDF gap: W1^2 <= E; W1 is the costly part
        if i < 200:
            ratio = w1_circle(x, mu) ** 2 / e.value
            worst_w1 = max(worst_w1, ratio)
            if ratio > 1.0:
                failures.append(f"N={n}: W1^2 / energy = {ratio:.6f} > 1")
    emit("AC-7 renormalized-energy positivity over 1000 pairs, W1^2 <= energy over 200",
         failures, detail=f"worst energy + counterterm {worst:.3e}, "
                          f"largest W1^2 / energy {worst_w1:.3f}")


def test_ac08_uniform_monte_carlo():
    fine = np.arange(4096) / 4096
    kernel_mass = float(np.mean(green_kernel(wrap_half(fine))))
    failures = []
    w1sq = []
    zs = []
    for n in (8, 64, 512):
        stats = mc_uniform_stats(n, 2000, np.random.default_rng([11, n]))
        expected = -kernel_mass / n
        z = (stats["mean_energy"] - expected) / stats["se_energy"]
        zs.append(z)
        w1sq.append(stats["mean_w1_squared"])
        if abs(z) > 3.0:
            failures.append(f"N={n}: mean energy {stats['mean_energy']:.4e} is "
                            f"{z:.1f} standard errors from {expected:.4e}")
    exponent = float(-np.polyfit(np.log([8, 64, 512]), np.log(w1sq), 1)[0])
    if exponent < 0.9:
        failures.append(f"W1^2 decay exponent {exponent:.3f} < 0.9")
    emit("AC-8 uniform-configuration Monte-Carlo, 2000 configs per N", failures,
         detail=f"z-scores {['%.2f' % z for z in zs]}, decay exponent {exponent:.3f}")


def test_ac09_euler_reference_solver():
    grid = TorusGrid(1, 256)
    x = grid.axis_points()
    failures = []

    flat = EulerState(RealField(grid, np.zeros(grid.n)),
                      [RealField(grid, np.zeros(grid.n))])
    still = run_euler(flat, 0.05, 1e-3)[-1]
    if np.any(still.log_rho.values != 0.0) or np.any(still.u[0].values != 0.0):
        failures.append("constant state moved")

    a = 1e-3
    wave = EulerState(RealField(grid, a * np.cos(2 * np.pi * x)),
                      [RealField(grid, np.zeros(grid.n))])
    wave_err = max(
        float(np.max(np.abs(s.log_rho.values
                            - a * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * s.time))))
        for s in run_euler(wave, 0.5, 1e-3)[::50])
    if wave_err > 10 * a**2:
        failures.append(f"linear-wave error {wave_err:.3e} > {10 * a**2:.1e}")

    s0 = EulerState(RealField(grid, 0.2 * np.cos(2 * np.pi * x)
                              - np.log(np.mean(np.exp(0.2 * np.cos(2 * np.pi * x))))),
                    [RealField(grid, 0.1 * np.sin(2 * np.pi * x))])
    ref = run_euler(s0, 0.1, 1e-3 / 8)[-1].log_rho.values

    def terminal_error(dt):
        return float(np.max(np.abs(run_euler(s0, 0.1, dt)[-1].log_rho.values - ref)))

    order = float(np.log2(terminal_error(4e-3) / terminal_error(2e-3)))
    if order < 3.8:
        failures.append(f"self-convergence order {order:.2f} < 3.8")
    emit("AC-9 isothermal Euler solver", failures,
         detail=f"wave error {wave_err:.2e}, observed order {order:.2f}")


def test_ac10_weak_current_bound(sweep3):
    failures = []
    states = 0
    worst = np.inf
    for eps, res in zip(AC1_EPS, sweep3["results"]):
        if res["status"] != "ok":
            continue
        for row in res["rows"]:
            states += 1
            bound = 2.0 * np.sqrt(row["kinetic_modulated"]) + 1e-10
            worst = min(worst, bound - row["current_weak_error"])
            if row["current_weak_error"] > bound:
                failures.append(
                    f"eps={eps}, t={row['time']}: weak current {row['current_weak_error']:.3e} "
                    f"> {bound:.3e}")
    if states == 0:
        failures.append("no sweep point produced sampled states")
    emit("AC-10 weak current bound on every sampled sweep state", failures,
         detail=f"{states} states on constructible points, worst margin {worst:.3e}")


def test_ac11_sampled_entropy_w1_bound():
    grid = TorusGrid(1, 256)
    eps = 0.25
    x = grid.axis_points()
    rho0_vals = np.exp(0.05 * np.cos(2 * np.pi * x))
    rho0 = RealField(grid, rho0_vals / rho0_vals.mean())
    spec = WellPreparedSpec(rho0, RealField(grid, np.zeros(grid.n)), eps, 0.1)
    rho_eps = quantum_density(spec)
    failures = []
    min_margin = np.inf
    for seed in range(50):
        config = sample_iid(rho_eps, 256, seed)
        rep = entropy_w1_check(config, rho0, rho_eps, eps)
        min_margin = min(min_margin, rep["margin"])
        if not rep["passed"]:
            failures.append(f"seed {seed}: entropy {rep['lhs']:.3e} > bound {rep['rhs']:.3e}")
    emit("AC-11 sampled-configuration entropy bound, 50 draws at N=256",
         failures, detail=f"min margin {min_margin:.3e}")


def test_ac12_harness_contract(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = quasineutral_sweep\n"
        "physics.eps  = 0.02, 0.01\n"
        "physics.hbar = 0.02, 0.01\n"
        "physics.T = 0.01\nphysics.dt = 1e-3\n"
        "initial.rho0_amp = 0.5\ninitial.u0_amp = 0.1\n"
        "runtime.sample_every = 5\nseeds = 1\n")
    failures = []

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["quasineutral_sweep", "--config", str(cfg), "--out", str(out_a)])
    code_b = cli_main(["quasineutral_sweep", "--config", str(cfg), "--out", str(out_b)])
    if (code_a, code_b) != (0, 0):
        failures.append(f"clean runs exited {(code_a, code_b)}, expected (0, 0)")
    for rel in sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()):
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
            failures.append(f"{rel} differs between identical runs")

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" / "summary_schema.json").read_text())
    jsonschema = pytest.importorskip("jsonschema")
    try:
        jsonschema.validate(json.loads((out_a / "summary.json").read_text()), schema)
    except jsonschema.ValidationError as err:
        failures.append(f"summary.json fails its schema: {err.message}")

    if cli_main(["pb_solve", "--config", str(tmp_path / "absent.cfg")]) != 2:
        failures.append("missing config file did not exit 2")
    broken = tmp_path / "broken.cfg"
    broken.write_text("physics.dt = quickly\n")
    if cli_main(["euler_run", "--config", broken.as_posix()]) != 2:
        failures.append("malformed value did not exit 2")
    code_fail = cli_main(["quasineutral_sweep", "--config", str(cfg),
                          "--set", "physics.eps=0.1,0.02",
                          "--set", "physics.hbar=0.1,0.02",
                          "--out", str(tmp_path / "c")])
    if code_fail != 1:
        failures.append(f"solver failure exited {code_fail}, expected 1")
    emit("AC-12 harness determinism, schema, and exit codes", failures,
         detail="byte-identical reruns, schema-validated summary, exits 0/1/2")


def test_acceptance_gate_is_runnable_from_install(tmp_path):
    """The gate above runs in-process; prove the installed console script too."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = pb_solve\ninitial.rho0_amp = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qnlab.cli", "pb_solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
