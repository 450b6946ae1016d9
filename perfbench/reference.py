"""Correctness of a workload's `summary.json`.

Sweep and Euler values are compared with `reference.json`, recorded from
the CLI at the commit that introduced this benchmark. The N-body ladder
depends on the seed, so its reference is recomputed here from the same
random streams by an independent exact method: the pair energy from prefix
sums over sorted positions, and the circle W1 to the uniform measure from
the piecewise-linear CDF gap and its exact median.

Tolerances: 1e-9 relative, with a 1e-12 absolute floor for values that are
pure roundoff at the reference (mass defects recorded as 0.0); mean W1
within 2**-16 absolute, the error of the program's sampled W1.
"""
import functools
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
W1_TOL = 2.0**-16
RECORDED = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _close(value, expected, rel=REL_TOL, floor=ABS_FLOOR):
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= max(rel * abs(expected), floor))


def _compare(prefix, values, expected):
    """Reasons for every mismatch between two flat {name: float} dicts."""
    if set(values) != set(expected):
        return [f"{prefix}: keys {sorted(values)} != {sorted(expected)}"]
    return [f"{prefix}.{k}: {values[k]!r} != reference {expected[k]!r}"
            for k in sorted(expected) if not _close(values[k], expected[k])]


@functools.lru_cache(maxsize=None)
def nbody_reference(seed: int, n_particles: int, n_configs: int) -> dict:
    """Mean energy, its standard error and mean circle W1 for the uniform
    configurations `qnlab.experiments` draws for (seed, N)."""
    rng = np.random.default_rng([seed, n_particles])
    x = np.sort(rng.random((n_configs, n_particles)), axis=1)
    n = n_particles
    # sum over ordered pairs of K(x_i - x_j), K(y) = (f^2 - f)/2 with f = frac(y)
    ranks = 2.0 * np.arange(n) - n + 1.0
    pair = (n * np.sum(x * x, axis=1) - np.sum(x, axis=1) ** 2 - x @ ranks) / n**2
    energies = pair + 1.0 / 12.0

    # g(t) = F_X(t) - t is k/N - t on the k-th gap [p_k, p_{k+1}), k = 0..N
    p = np.concatenate([np.zeros((n_configs, 1)), x, np.ones((n_configs, 1))], axis=1)
    top = np.arange(n + 1) / n - p[:, :-1]          # g at the left end of each gap
    bottom = top - np.diff(p, axis=1)                # g at the right end
    # H(c) = |{t: g(t) <= c}| = sum_k (c - bottom_k)_+ - (c - top_k)_+ ; solve H = 1/2
    knots = np.concatenate([bottom, top], axis=1)
    order = np.argsort(knots, axis=1, kind="stable")
    z = np.take_along_axis(knots, order, axis=1)
    slope = np.cumsum(np.where(order < n + 1, 1.0, -1.0), axis=1)
    h = np.concatenate([np.zeros((n_configs, 1)),
                        np.cumsum(slope[:, :-1] * np.diff(z, axis=1), axis=1)], axis=1)
    j = np.argmax(h >= 0.5, axis=1) - 1
    rows = np.arange(n_configs)
    c = z[rows, j] + (0.5 - h[rows, j]) / slope[rows, j]

    def ramp(v):  # antiderivative of |v|
        return 0.5 * v * np.abs(v)

    w1 = np.sum(ramp(top - c[:, None]) - ramp(bottom - c[:, None]), axis=1)
    return {
        "mean_energy": float(energies.mean()),
        "se_energy": float(energies.std(ddof=1) / np.sqrt(n_configs)),
        "mean_w1": float(w1.mean()),
    }


def check(workload: str, profile: str, summary: dict, cfg_seed: int) -> tuple[bool, list]:
    """(run_ok, entries): entries is one list of mismatch reasons per sweep
    point or ladder entry; run_ok covers the run-level values."""
    if workload == "sweep_1d":
        ref = RECORDED[profile][workload]
        entries = []
        for point in summary.get("points", []):
            if point.get("status") != "ok":
                entries.append([f"point status {point.get('status')!r}: {point.get('error')}"])
                continue
            bad = _compare("maxima", point["maxima"], ref["maxima"])
            bad += _compare("gronwall", point["gronwall"], ref["gronwall"])
            bad += [f"check {k} is false" for k, v in point["checks"].items() if v is not True]
            entries.append(bad)
        run_ok = len(entries) == ref["points"] and summary["sweep"]["complete"] is True
        return run_ok, entries
    if workload == "euler_2d":
        ref = RECORDED[profile][workload]
        return not _compare("euler", summary.get("euler", {}), ref["euler"]), []
    block = summary.get("nbody", {})
    entries = []
    for point in block.get("points", []):
        n = point["n_particles"]
        ref = nbody_reference(cfg_seed, n, block["n_configs"])
        bad = []
        if not _close(point["mean_energy"], ref["mean_energy"]):
            bad.append(f"N={n} mean_energy {point['mean_energy']!r} != {ref['mean_energy']!r}")
        if not abs(point["mean_w1"] - ref["mean_w1"]) <= W1_TOL:
            bad.append(f"N={n} mean_w1 {point['mean_w1']!r} != {ref['mean_w1']!r}")
        if point["expected_mean"] != 1.0 / (12.0 * n):
            bad.append(f"N={n} expected_mean {point['expected_mean']!r}")
        # at a random seed the 3-standard-error test is false about 1% of the
        # time by chance, so the flag must match the reference's own verdict
        within = abs(ref["mean_energy"] - 1.0 / (12.0 * n)) <= 3.0 * ref["se_energy"]
        if point["energy_within_3se"] is not within:
            bad.append(f"N={n} energy_within_3se {point['energy_within_3se']} != {within}")
        entries.append(bad)
    return len(entries) == RECORDED[profile][workload]["entries"], entries
