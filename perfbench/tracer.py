"""Span recording around the public names qnlab looks up at call time.

`install()` replaces module attributes with wrappers, so every call that
goes through the module's global namespace is recorded; the program itself
is not edited. A span is `[name, start, end, parent, attrs]`: times from
`time.perf_counter()` in seconds, `parent` the index of the enclosing span
or -1. Spans stay in memory until the run ends.
"""
import functools
import time

import qnlab.cli
import qnlab.euler
import qnlab.experiments
import qnlab.nbody
import qnlab.reports
import qnlab.schrodinger


def _solve_info(split):
    info = split.info
    return {"iterations": info.get("iterations", 0), "cg_failures": info.get("cg_failures", 0)}


def _n_particles(args):
    return {"n": int(args[0])}


# (module, attribute, span name, attrs from the result, attrs from the arguments)
WRAPPED = (
    (qnlab.cli, "run_experiment", "experiments.run_experiment", None, None),
    (qnlab.experiments, "well_prepared", "initial_data.well_prepared", None, None),
    (qnlab.experiments, "run", "schrodinger.run", None, None),
    (qnlab.schrodinger, "solve_potential", "poisson_boltzmann.solve_potential", _solve_info, None),
    (qnlab.experiments, "run_euler", "euler.run_euler", None, None),
    # called once at the start of every RK4 step; marks step boundaries
    (qnlab.euler, "_grad_u_sup", "euler.grad_u_sup", None, None),
    (qnlab.experiments, "euler_constants", "euler.euler_constants", None, None),
    (qnlab.experiments, "modulated_total", "energy.modulated_total", None, None),
    (qnlab.experiments, "weak_distances", "energy.weak_distances", None, None),
    (qnlab.experiments, "mc_uniform_stats", "nbody.mc_uniform_stats", None, _n_particles),
    # called once per Monte-Carlo configuration; marks configuration boundaries
    (qnlab.nbody, "green_kernel", "nbody.green_kernel", None, None),
    (qnlab.reports, "emit_csv", "reports.emit_csv", None, None),
    (qnlab.reports, "emit_sweep_csv", "reports.emit_sweep_csv", None, None),
    (qnlab.reports, "emit_plotdata", "reports.emit_plotdata", None, None),
    (qnlab.reports, "emit_summary", "reports.emit_summary", None, None),
    (qnlab.reports, "emit_error_records", "reports.emit_error_records", None, None),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, result_attrs, arg_attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    arg_attrs(args) if arg_attrs else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if result_attrs is not None:
                span[4] = result_attrs(result)
            return result

        return wrapper


def install() -> Recorder:
    """Wrap every name in WRAPPED that exists. A name a refactor removed is
    skipped, and the metrics built on it read 0 with a count of 0."""
    recorder = Recorder()
    for module, attr, name, result_attrs, arg_attrs in WRAPPED:
        if hasattr(module, attr):
            setattr(module, attr, recorder.wrap(getattr(module, attr), name, result_attrs,
                                                arg_attrs))
    return recorder
