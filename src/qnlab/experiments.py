"""Experiment orchestration: single solver runs, (eps, hbar) sweeps against
the Euler reference flow, and N-particle Monte-Carlo statistics.

Every run evaluates its initial data through _profiles(cfg, grid), on each
grid it needs them. Sweep points are independent and run on a process pool
sized by --jobs; every failure becomes a machine-readable error record
instead of a crash, and the remaining points still produce rows.
"""
from __future__ import annotations

from collections.abc import Callable
# the package, not its ProcessPoolExecutor: that name loads the process pool
# and multiprocessing on first access, which only a sweep under --jobs > 1 makes
from concurrent import futures
from functools import partial
from pathlib import Path

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package, so that
# no run pays for it inside its own timing
import numpy.random  # noqa: F401

from . import reports, schrodinger, spectral
from .config import ExperimentConfig, sample_steps
from .energy import conserved_energy, modulated_total, weak_distances
from .errors import QnlabError
from .euler import (EulerState, check_first_step, euler_constants, max_rate,
                    normalize_log_density, run_euler, spectrum)
from .grid import MASS_TOL, ComplexField, RealField, TorusGrid, gradient, integrate
from .initial_data import WellPreparedSpec, well_prepared
from .nbody import mc_uniform_stats
from .poisson_boltzmann import solve_pb, validate_elliptic_bounds
from .schrodinger import WaveFunction, check_kinetic_phase, density, run


def _profiles(cfg: ExperimentConfig, grid: TorusGrid) -> tuple[RealField, RealField]:
    """The configured initial data (rho0, U0) on `grid`, the one reader of the
    initial.* keys: rho0 ~ exp(rho0_amp cos), U0 = u0_amp sin/(2 pi)."""
    # one cos and one sin per axis, broadcast: the sums over the nodes are
    # those of the meshgrid's bit for bit
    x = grid.axis_points()
    axes = [x.reshape([-1 if a == axis else 1 for a in range(grid.dim)])
            for axis in range(grid.dim)]
    phase = sum(np.cos(2.0 * np.pi * c) for c in axes)
    # an overflowing amplitude leaves inf/nan here; RealField reports it
    with np.errstate(over="ignore", invalid="ignore"):
        rho0 = np.exp(cfg.rho0_amp * phase)
        rho0 /= rho0.mean()
    u0pot = cfg.u0_amp * sum(np.sin(2.0 * np.pi * c) for c in axes) / (2.0 * np.pi)
    return RealField(grid, rho0), RealField(grid, u0pot)


def _wave(cfg: ExperimentConfig, grid: TorusGrid, eps: float, hbar: float) -> WaveFunction:
    """The well-prepared wave function of the configured data on `grid`."""
    return well_prepared(WellPreparedSpec(*_profiles(cfg, grid), eps, hbar))


def _euler_state(cfg: ExperimentConfig, grid: TorusGrid) -> EulerState:
    """The Euler state of the configured data on `grid`."""
    rho0, u0pot = _profiles(cfg, grid)
    return EulerState(normalize_log_density(RealField(grid, np.log(rho0.values))),
                      list(gradient(u0pot)))


def _error_record(exc: Exception, stage: str, **context) -> dict:
    rec = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    for key in ("time", "value"):
        v = getattr(exc, key, None)
        # JSON has no NaN; the message still names a NaN guard value
        if v is not None and np.isfinite(v):
            rec[key] = float(v)
    step = getattr(exc, "step", None)
    if step is not None:
        rec["step"] = int(step)
    rec.update(context)
    return rec


# The Euler reference (of a sweep and of the euler_run kind) and each sweep
# point's Schrodinger run are integrated on the coarsest grid that resolves
# them, from FLOOR_N[dim] nodes per axis up: 256 in 1-D, 32^2 in 2-D. Below
# that a step costs mostly Python overhead, not transforms, and the 2-D data
# leave the band on 16^2. An Euler RK4 step of the standard data (ms, best of
# 7x3 runs of 20 steps, a fresh process per grid, 2 vCPUs, numpy 2.4):
#   1-D   64: 0.10   256: 0.11                 (1.15x)
#   2-D   8^2: 0.23  16^2: 0.27  32^2: 0.42    (1.8x)  64^2: 1.17 (5x)
# A grid is kept when
# _top_band_share of its sampled fields is at most the run's bound:
# BAND_SHARE_BOUND for log rho and u, SCHRODINGER_BAND_SHARE_BOUND for psi and
# V (psi at the benchmark point holds 6.5e-12 on 256 nodes, and 2.4e-9 on 256
# against 2e-13 on 512 nodes at eps = hbar = 0.01, u0_amp = 0.5, T = 0.2). On a
# grid coarser than the run's, the reference steps at the coarsest multiple
# of dt whose estimated error at the samples is at most TIME_ERROR_BOUND
# (max-abs over log rho and u).
FLOOR_N = {1: 256, 2: 32}
BAND_SHARE_BOUND = 1e-13
SCHRODINGER_BAND_SHARE_BOUND = 1e-10
TIME_ERROR_BOUND = 1e-12


def _top_band_share(fields: list[np.ndarray]) -> float:
    """Largest ||f_band||_2 / ||f||_2 over 1-D or 2-D grid values f, real or
    complex, the band the top half of the dealiasing band (spectral.Symbols'
    shell) on the values' own grid."""
    share = 0.0
    for f in fields:
        sym = spectral.symbols(TorusGrid(f.ndim, f.shape[0]), real=np.isrealobj(f))
        power = np.abs(sym.forward(f)) ** 2
        total = sym.parseval(power)
        if total > 0.0:
            share = max(share, float(np.sqrt(sym.parseval(power * sym.shell) / total)))
    return share


def _coarsest_run(state_n, n: int, dim: int, bound: float, prepare: Callable[[int], tuple],
                  integrate: Callable[[object], tuple]) -> tuple[int, object, float]:
    """(n_c, result, share): a run on the first n_c^dim grid of
    min(n, FLOOR_N[dim]), twice that, ... below n whose share =
    _top_band_share of the run's sampled fields is at most `bound`, else the
    run from state_n, the caller's checked initial state on n^dim.
    prepare(n_c) gives the initial state and its fields below n,
    integrate(state) the result and the fields of its samples, the initial
    ones among them; a grid whose initial fields already exceed the bound is
    left before anything is integrated on it.
    Once a run below n fails with a QnlabError (a guard trip, a failed
    solve), the run is the one from state_n, so an error is the n grid's."""
    n_c = min(n, FLOOR_N[dim])
    while n_c < n:
        try:
            state, fields = prepare(n_c)
            if _top_band_share(fields) <= bound:
                result, fields = integrate(state)
                share = _top_band_share(fields)
                if share <= bound:
                    return n_c, result, share
        except QnlabError:
            # whether and where a run fails is read on the n grid
            break
        n_c = min(2 * n_c, n)
    result, fields = integrate(state_n)
    return n, result, _top_band_share(fields)


def _state_gap(a: list[EulerState], b: list[EulerState]) -> float:
    """Max-abs difference of log rho and u over two runs' samples."""
    return max(float(np.max(np.abs(x.values - y.values)))
               for s, r in zip(a, b, strict=True)
               for x, y in zip((s.log_rho, *s.u), (r.log_rho, *r.u)))


def _coarse_step_run(e0: EulerState, big_t: float, dt: float,
                     sample_every: int) -> tuple[list[EulerState], float]:
    """The samples of run_euler from e0 at step h = m dt, and h. m divides
    sample_every and the step count, so the samples fall on the dt time grid.
    RK4's error at the samples is taken as C m^4, with C read off the gap
    between the two largest m > 1 whose h max_rate(e0) is at most 1 (step
    doubling); m is the largest divisor up to the smaller of them with
    C m^4 <= TIME_ERROR_BOUND. The gap between that probe and a smaller m's
    run must lie within a factor 2 of C (m2^4 - m^4), else m = 1, as it is
    when fewer than two probes exist. m = 1 is run_euler at dt."""
    n_steps = sample_steps(big_t, dt, sample_every)[-1]
    divisors = [m for m in range(1, sample_every + 1)
                if sample_every % m == 0 and n_steps % m == 0]
    rate = max_rate(e0.grid, max(float(np.max(np.abs(c.values))) for c in e0.u))
    # a probe at m = 1 could only choose m = 1
    probes = [m for m in divisors if m > 1 and m * dt * rate <= 1.0]

    def at(m: int) -> list[EulerState]:
        return run_euler(e0, big_t, m * dt, sample_every=sample_every // m)

    if len(probes) < 2:
        return at(1), dt
    m1, m2 = probes[-1], probes[-2]
    coarse, probe = at(m1), at(m2)
    c = _state_gap(coarse, probe) / ((m1 / m2) ** 4 - 1.0) / m2**4
    m = max((d for d in divisors if d <= m2 and c * d**4 <= TIME_ERROR_BOUND), default=1)
    if m == m2:
        return probe, m * dt
    samples = at(m)
    predicted = c * (m2**4 - m**4)
    if m > 1 and not 0.5 * predicted <= _state_gap(probe, samples) <= 2.0 * predicted:
        m, samples = 1, at(1)
    return samples, m * dt


def _euler_fields(samples: list[EulerState]) -> list[np.ndarray]:
    return [f.values for s in samples for f in (s.log_rho, *s.u)]


def _euler_reference(cfg: ExperimentConfig, e0: EulerState) -> tuple[list, dict, dict]:
    """The sampled Euler states of `cfg` from e0, its data on the n grid, at
    the dt sample times, their Gronwall constants, and {"n": n_e, "dt": h,
    "top_band_share": share}: the grid and RK4 step they were integrated with
    and the grid's _top_band_share of log rho and u. A step of dt must first
    be stable on the n grid, not only on a coarser one (check_first_step).
    n_e is _coarsest_run's grid under BAND_SHARE_BOUND; below n the step is
    _coarse_step_run's, on n it is dt. The samples stay on n_e (_padded takes
    one to a finer grid), and the constants are euler_constants of their
    interpolant on n."""
    grid, dt = e0.grid, cfg.dt
    check_first_step(e0, dt)

    def prepare(n_e: int):
        e = _euler_state(cfg, TorusGrid(grid.dim, n_e))
        return e, _euler_fields([e])

    def integrate(e: EulerState):
        if e is e0:
            samples, h = run_euler(e, cfg.big_t, dt, sample_every=cfg.sample_every), dt
        else:
            samples, h = _coarse_step_run(e, cfg.big_t, dt, cfg.sample_every)
        return (samples, h), _euler_fields(samples)

    n_e, (samples, h), share = _coarsest_run(e0, grid.n, grid.dim, BAND_SHARE_BOUND, prepare,
                                             integrate)
    # the times run_euler gives the dt samples, whatever step made them
    times = [k * dt for k in sample_steps(cfg.big_t, dt, cfg.sample_every)]
    stamped = [EulerState(s.log_rho, s.u, t) for s, t in zip(samples, times, strict=True)]
    return stamped, euler_constants(samples, grid), {"n": n_e, "dt": h, "top_band_share": share}


def _padded(s: EulerState, grid: TorusGrid) -> EulerState:
    """s zero-padded to the finer `grid` by one stacked forward transform,
    each field's inverse pruned; s itself on its own grid."""
    if s.grid == grid:
        return s
    log_rho, *u = (RealField(grid, spectral.irfft_padded(c, grid.shape)) for c in spectrum(s))
    return EulerState(log_rho, u, s.time)


def _sweep_reference(cfg: ExperimentConfig) -> tuple[list, dict, dict] | Exception:
    """_euler_reference of the sweep `cfg` from its n-grid data, as in the
    euler_run kind, or the Exception that stopped it. It depends on the data
    and the time grid, not on (eps, hbar), so a sweep computes it once and
    hands it to every point."""
    try:
        return _euler_reference(cfg, _euler_state(cfg, TorusGrid(cfg.grid_dim, cfg.grid_n)))
    except Exception as exc:  # noqa: BLE001 - each point re-raises it at its euler stage
        return exc


def _schrodinger_samples(cfg: ExperimentConfig, w0: WaveFunction) -> tuple[list, dict]:
    """The sweep's Schrodinger samples and {"n": n_s, "top_band_share":
    share}: `run` on _coarsest_run's grid n_s under
    SCHRODINGER_BAND_SHARE_BOUND (psi and V), from the configured data's
    well-prepared state on the n_s^dim grid, or from w0 on n. The t = 0
    sample is w0 and its potential solved on n, as in the run from w0; the
    later samples are the run's own, on n_s. dt must first pass the n grid's kinetic-phase
    cap: a point whose n-grid run would stop there fails as that run does,
    before any grid is integrated."""
    grid = w0.psi.grid
    check_kinetic_phase(w0, cfg.dt)

    def prepare(n_s: int):
        w = _wave(cfg, TorusGrid(grid.dim, n_s), w0.eps, w0.hbar)
        return w, [w.psi.values]

    def integrate(w: WaveFunction):
        samples = run(w, cfg.big_t, cfg.dt, sample_every=cfg.sample_every)
        return samples, [f for v, split in samples for f in (v.psi.values, split.potential.values)]

    n_s, samples, share = _coarsest_run(w0, grid.n, grid.dim, SCHRODINGER_BAND_SHARE_BOUND,
                                        prepare, integrate)
    if n_s < grid.n:
        # called through the module, so a wrapper on it (perfbench's tracer)
        # sees the n-grid solve
        split0 = schrodinger.solve_potential(density(w0), w0.eps, time=w0.time, step=0)
        samples = [(w0, split0), *samples[1:]]
    return samples, {"n": n_s, "top_band_share": share}


def _wave_on(grid: TorusGrid, w: WaveFunction, split, step: int) -> tuple:
    """The sample (w, split) on the finer `grid`: psi zero-padded (the complex
    `resample`) and its potential re-solved there, warm-started from the
    padded hat; as it is on its own grid."""
    if w.psi.grid == grid:
        return w, split
    w = WaveFunction(ComplexField(grid, spectral.resample(w.psi.values, grid.shape)), w.hbar,
                     w.eps, w.time)
    hat0 = spectral.resample(split.hat.values, grid.shape)
    # called through the module, so a wrapper on it (perfbench's tracer) sees
    # the re-solves
    return w, schrodinger.solve_potential(density(w), w.eps, hat0=hat0, time=w.time, step=step)


def _sweep_point(cfg: ExperimentConfig, reference: tuple[list, dict, dict] | Exception,
                 eps: float, hbar: float) -> dict:
    """One (eps, hbar) point of the sweep `cfg` against its _sweep_reference;
    returns rows + per-point summary, or an error record. The frozen config
    and the reference pickle, so a process pool can ship them. A reference
    that failed is the point's error once its state is prepared, before any
    Schrodinger step. The t = 0 row is the n-grid prepared state's, evaluated
    on n; every later row is evaluated on n_d = max(n_s, n_e), the coarser run
    brought there (_padded, _wave_on). The L1 term stays on n (weak_distances'
    l1_grid): its integrand has kinks, so unlike the other sums it is not
    exact to roundoff on n_d."""
    pair = {"eps": float(eps), "hbar": float(hbar)}
    stage = "prepare"
    try:
        grid = TorusGrid(cfg.grid_dim, cfg.grid_n)
        w0 = _wave(cfg, grid, eps, hbar)

        stage = "euler"
        if isinstance(reference, Exception):
            # a fresh traceback per point, not one grown by every raise
            raise reference.with_traceback(None)
        esamp, gronwall, resolution = reference

        # a potential re-solved on n_d fails at the schrodinger stage, as on n
        stage = "schrodinger"
        samples, schrodinger_grid = _schrodinger_samples(cfg, w0)
        grid_d = TorusGrid(grid.dim, max(schrodinger_grid["n"], resolution["n"]))
        steps = sample_steps(cfg.big_t, cfg.dt, cfg.sample_every)
        grids = [grid if step == 0 else grid_d for step in steps]
        samples = [_wave_on(g, w, split, step)
                   for (w, split), g, step in zip(samples, grids, steps, strict=True)]

        stage = "diagnostics"
        rows = []
        currents_ok = True
        sup_bound_ok = True
        mass_defect = 0.0
        # the current test fields 1, sin 2 pi x and cos 2 pi x on each grid
        fields = {g: [RealField(g, f(2 * np.pi * g.axis_points()))
                      for f in (np.ones_like, np.sin, np.cos)] for g in set(grids)}
        for (w, split), est, g in zip(samples, esamp, grids, strict=True):
            est = _padded(est, g)
            rep = modulated_total(w, split, est)
            wd = weak_distances(w, est, split, rep.kinetic_modulated, test_fields=fields[g],
                                l1_grid=grid)
            currents_ok &= all(c["passed"] for c in wd["currents"])
            current_err = max(abs(c["value"]) for c in wd["currents"])
            v = split.potential.values
            sup_bound_ok &= eps * float(np.max(np.abs(v))) <= 1.0 + 1e-9
            mass_defect = max(mass_defect, abs(integrate(split.background) - 1.0))
            rows.append({
                **pair,
                "time": float(w.time),
                "kinetic_modulated": float(rep.kinetic_modulated),
                "field_energy": float(rep.field_energy),
                "relative_entropy": float(rep.relative_entropy),
                "total_modulated": float(rep.total_modulated),
                "conserved_total": float(rep.conserved_total),
                "h_minus1_density_error": float(wd["h_minus1_density"]),
                "l1_entropy_error": float(wd["l1_background"]),
                "current_weak_error": float(current_err),
            })
        f0 = rows[0]["conserved_total"]
        drift = max(abs(r["conserved_total"] - f0) / (1.0 + abs(f0)) for r in rows)
        numeric = [f for f in reports.SWEEP_FIELDS if f not in ("eps", "hbar", "time")]
        maxima = {f: float(max(row[f] for row in rows)) for f in numeric}
        checks = {
            "total_modulated_nonnegative": bool(all(r["total_modulated"] >= -1e-12 for r in rows)),
            "current_bounds": bool(currents_ok),
            "potential_sup_bound": bool(sup_bound_ok),
            "background_mass": bool(mass_defect <= MASS_TOL),
        }
        return {
            **pair,
            "status": "ok",
            "rows": rows,
            "maxima": maxima,
            "conserved_drift_max": float(drift),
            "gronwall": gronwall,
            "euler_reference": resolution,
            "schrodinger_grid": schrodinger_grid,
            "checks": checks,
        }
    except Exception as exc:  # noqa: BLE001 - every failure becomes a record
        return {
            **pair,
            "status": "error",
            "error": _error_record(exc, stage, **pair),
        }


def _run_sweep(cfg: ExperimentConfig, summary: dict, out_dir: Path) -> list:
    point = partial(_sweep_point, cfg, _sweep_reference(cfg))
    if cfg.jobs > 1 and len(cfg.eps) > 1:
        with futures.ProcessPoolExecutor(max_workers=min(cfg.jobs, len(cfg.eps))) as pool:
            results = list(pool.map(point, cfg.eps, cfg.hbar))
    else:
        results = list(map(point, cfg.eps, cfg.hbar))

    rows, errors, points = [], [], []
    for res in results:
        if res["status"] == "ok":
            rows.extend(res["rows"])
        else:
            errors.append(res["error"])
        points.append({k: v for k, v in res.items() if k != "rows"})
    summary["points"] = points
    ok_points = [p for p in points if p["status"] == "ok"]
    sup_totals = [p["maxima"]["total_modulated"] for p in ok_points]
    summary["sweep"] = {
        "complete": len(ok_points) == len(points),
        "sup_total_modulated": sup_totals,
        "strictly_decreasing": bool(
            len(sup_totals) == len(points) > 1
            and all(a > b for a, b in zip(sup_totals, sup_totals[1:]))),
    }
    reports.emit_sweep_csv(out_dir, rows)
    reports.emit_plotdata(out_dir, rows)
    return errors


def _run_pb(cfg: ExperimentConfig, summary: dict, out_dir: Path) -> list:
    stage = "prepare"
    try:
        grid = TorusGrid(cfg.grid_dim, cfg.grid_n)
        h = _profiles(cfg, grid)[0]
        stage = "pb_solve"
        split = solve_pb(h, cfg.eps[0])
    except Exception as exc:  # noqa: BLE001
        return [_error_record(exc, stage, eps=float(cfg.eps[0]))]
    v = split.potential
    validation = validate_elliptic_bounds(split, h)
    summary["pb"] = {
        "eps": float(cfg.eps[0]),
        "newton_iterations": int(split.info["iterations"]),
        "final_residual": float(split.info["residuals"][-1]),
        "tolerance": float(split.info["tolerance"]),
        "cg_iterations": int(split.info["cg_iterations"]),
        "cg_failures": int(split.info["cg_failures"]),
        "sup_v": float(np.max(np.abs(v.values))),
        "background_mass": float(integrate(split.background)),
        "checks": {name: bool(block["passed"]) for name, block in validation.items()},
    }
    if grid.dim == 1:
        reports.emit_csv(out_dir / "plotdata" / "potential.csv",
                         ("x", "v", "background"),
                         zip(grid.axis_points(), v.values, split.background.values))
    return []


def _run_euler(cfg: ExperimentConfig, summary: dict, out_dir: Path) -> list:
    stage = "prepare"
    try:
        e0 = _euler_state(cfg, TorusGrid(cfg.grid_dim, cfg.grid_n))
        stage = "euler"
        samp, gronwall, resolution = _euler_reference(cfg, e0)
    except Exception as exc:  # noqa: BLE001
        return [_error_record(exc, stage)]
    rows = []
    for s in samp:
        s = _padded(s, e0.grid)
        rho = s.rho()
        rows.append((float(s.time), float(abs(integrate(rho) - 1.0)),
                     float(max(np.max(np.abs(c.values)) for c in s.u)),
                     float(np.min(rho.values)), float(np.max(rho.values))))
    reports.emit_csv(out_dir / "plotdata" / "euler.csv",
                     ("time", "mass_defect", "sup_u", "min_rho", "max_rho"), rows)
    summary["euler"] = {**gronwall, "mass_defect_max": float(max(r[1] for r in rows))}
    summary["euler_reference"] = resolution
    return []


def _run_schrodinger(cfg: ExperimentConfig, summary: dict, out_dir: Path) -> list:
    stage = "prepare"
    try:
        w0 = _wave(cfg, TorusGrid(cfg.grid_dim, cfg.grid_n), cfg.eps[0], cfg.hbar[0])
        stage = "schrodinger"
        samples = run(w0, cfg.big_t, cfg.dt, sample_every=cfg.sample_every, mode=cfg.mode)
    except Exception as exc:  # noqa: BLE001
        return [_error_record(exc, stage, eps=float(cfg.eps[0]), hbar=float(cfg.hbar[0]))]
    conserved = [conserved_energy(w, split) for w, split in samples]
    f0 = conserved[0]
    rows = []
    for (w, _split), f in zip(samples, conserved):
        rows.append((float(w.time), float(f), float(abs(f - f0) / (1.0 + abs(f0))),
                     float(abs(integrate(density(w)) - 1.0))))
    reports.emit_csv(out_dir / "plotdata" / "conserved_total.csv",
                     ("time", "conserved_total", "relative_drift", "mass_defect"), rows)
    summary["schrodinger"] = {
        "eps": float(cfg.eps[0]),
        "hbar": float(cfg.hbar[0]),
        "conserved_drift_max": float(max(r[2] for r in rows)),
        "mass_defect_max": float(max(r[3] for r in rows)),
    }
    return []


_NBODY_COLUMNS = ("n_particles", "mean_energy", "se_energy", "expected_mean",
                  "mean_w1", "mean_w1_squared")


def _run_nbody(cfg: ExperimentConfig, summary: dict, out_dir: Path) -> list:
    points = []
    for n_particles in cfg.n_particles:
        rng = np.random.default_rng([cfg.seeds[0], n_particles])
        stats = mc_uniform_stats(n_particles, cfg.n_configs, rng)
        point = {c: stats[c] for c in _NBODY_COLUMNS}
        point["energy_within_3se"] = bool(
            abs(point["mean_energy"] - point["expected_mean"]) <= 3.0 * point["se_energy"])
        points.append(point)
    reports.emit_csv(out_dir / "plotdata" / "nbody.csv", _NBODY_COLUMNS,
                     ([p[c] for c in _NBODY_COLUMNS] for p in points))
    exponent = None
    if len(points) > 1:
        logn = np.log([p["n_particles"] for p in points])
        logw = np.log([max(p["mean_w1_squared"], 1e-300) for p in points])
        exponent = float(-np.polyfit(logn, logw, 1)[0])
    summary["nbody"] = {
        "points": points,
        "n_configs": int(cfg.n_configs),
        "w1sq_decay_exponent": exponent,
        "energy_within_3se": bool(all(p["energy_within_3se"] for p in points)),
    }
    return []


_RUNNERS = {
    "pb_solve": _run_pb,
    "schrodinger_run": _run_schrodinger,
    "euler_run": _run_euler,
    "quasineutral_sweep": _run_sweep,
    "nbody_stats": _run_nbody,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run one configured experiment into cfg.output_dir; returns its error records."""
    out_dir = Path(cfg.output_dir)
    summary = {
        "kind": cfg.kind,
        "grid": {"dim": int(cfg.grid_dim), "n": int(cfg.grid_n)},
        "mode": cfg.mode,
        "physics": {"T": float(cfg.big_t), "dt": float(cfg.dt),
                    "eps": [float(v) for v in cfg.eps],
                    "hbar": [float(v) for v in cfg.hbar]},
        "initial": {"rho0_amp": float(cfg.rho0_amp), "u0_amp": float(cfg.u0_amp)},
        "seeds": [int(s) for s in cfg.seeds],
    }
    errors = _RUNNERS[cfg.kind](cfg, summary, out_dir)
    summary["errors"] = errors
    reports.emit_summary(out_dir, summary)
    reports.emit_error_records(out_dir, errors)
    return errors
