"""Per-layer metrics from the spans of one traced run.

Layers are named by qnlab module. A layer's self time is its spans'
duration minus the part covered by child spans; `experiments.self_s` is the
part of `run_experiment` no wrapped call covers. Layers a workload does not
use read 0 with a sample count of 0.
"""
import statistics

NBODY_SIZES = (8, 64, 512)


def timing(samples, scale):
    """(median, tail, count) of samples in seconds, times `scale`. The tail is
    the highest order statistic with at least 10 samples beyond it, or the
    maximum when there are fewer than 11 samples."""
    if not samples:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    n = len(ordered)
    tail = ordered[n - 11] if n >= 11 else ordered[-1]
    return statistics.median(ordered) * scale, tail * scale, n


def tail_label(n):
    return f"p{100.0 * (n - 10) / n:.4g} of {n}" if n >= 11 else f"max of {n}"


def _put_timing(out, name, samples, scale):
    median, tail, n = timing(samples, scale)
    out[name] = median
    out[name + ".tail"] = tail
    out[name + ".count"] = n


def _marker_intervals(spans, marker, parent_name):
    """Durations between successive starts of `marker` spans inside each
    `parent_name` span; the last interval ends with the parent."""
    out = {}
    for idx, (name, start, end, _parent, attrs) in enumerate(spans):
        if name != parent_name:
            continue
        starts = [s[1] for s in spans if s[0] == marker and s[3] == idx]
        out[idx] = [b - a for a, b in zip(starts, starts[1:] + [end])]
    return out


def from_spans(spans) -> dict:
    """Metric name -> value; times in the unit their name ends with."""
    durations, children = {}, [0.0] * len(spans)
    for name, start, end, parent, _attrs in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            children[parent] += end - start

    def total(name):
        return sum(durations.get(name, ()))

    out = {}
    roots = [i for i, s in enumerate(spans) if s[0] == "experiments.run_experiment"]
    out["trace.wall_s"] = sum(spans[i][2] - spans[i][1] for i in roots)
    out["trace.spans"] = len(spans)
    out["experiments.self_s"] = sum(spans[i][2] - spans[i][1] - children[i] for i in roots)
    out["initial_data.well_prepared_s"] = total("initial_data.well_prepared")
    out["schrodinger.run_s"] = total("schrodinger.run")
    out["schrodinger.self_s"] = sum(s[2] - s[1] - children[i] for i, s in enumerate(spans)
                                    if s[0] == "schrodinger.run")
    solves = [s for s in spans if s[0] == "poisson_boltzmann.solve_potential"]
    _put_timing(out, "poisson_boltzmann.solve_ms", [s[2] - s[1] for s in solves], 1e3)
    iters = [s[4]["iterations"] for s in solves]
    out["poisson_boltzmann.newton_iters_per_solve"] = statistics.fmean(iters) if iters else 0.0
    out["poisson_boltzmann.cg_failures"] = sum(s[4]["cg_failures"] for s in solves)
    out["euler.run_s"] = total("euler.run_euler")
    steps = _marker_intervals(spans, "euler.grad_u_sup", "euler.run_euler")
    _put_timing(out, "euler.step_ms", [d for ds in steps.values() for d in ds], 1e3)
    out["euler.constants_s"] = total("euler.euler_constants")
    _put_timing(out, "energy.modulated_total_ms", durations.get("energy.modulated_total", []), 1e3)
    _put_timing(out, "energy.weak_distances_ms", durations.get("energy.weak_distances", []), 1e3)
    out["reports.emit_s"] = sum(
        s[2] - s[1] for s in spans
        if s[0].startswith("reports.") and not (s[3] >= 0 and spans[s[3]][0].startswith("reports.")))
    configs = _marker_intervals(spans, "nbody.green_kernel", "nbody.mc_uniform_stats")
    for n in NBODY_SIZES:
        samples = [d for idx, ds in configs.items() if spans[idx][4]["n"] == n for d in ds]
        _put_timing(out, f"nbody.config_ms.N{n}", samples, 1e3)
    return out


def from_micro(results) -> dict:
    """results: (name, samples in seconds, extras) per microbenchmark case."""
    out = {}
    for name, samples, extras in results:
        unit = name.split(".")[1].rsplit("_", 1)[1]
        _put_timing(out, name, samples, {"us": 1e6, "ms": 1e3, "s": 1.0}[unit])
        for key, value in extras.items():
            out[f"{name}.{key}"] = statistics.median(value) if isinstance(value, list) else value
    return out
