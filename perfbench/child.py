"""One `qnlab` CLI run in a fresh process, timed from inside.

    python3 perfbench/child.py STAMP_FILE MODE -- KIND --config FILE ...

MODE is `run` (untraced) or `trace` (spans recorded by perfbench/tracer.py).
`config_ready` is taken on the monotonic clock, which is system-wide on
Linux, so the parent can subtract its spawn time: the set-up time covers
interpreter start, imports and config parsing.

STAMP_FILE receives a JSON object: `config_ready` (monotonic seconds),
`wall_s` (duration of run_experiment), `probe_s` (speed probe just before
and just after it), `status`, `peak_rss_mb` and, when tracing, `spans`.
"""
import json
import os
import resource
import sys
import time

import numpy as np

_PROBE_SMALL = np.cos(np.arange(2048.0))
_PROBE_LARGE = np.cos(np.arange(65536.0)).reshape(256, 256)


def speed_probe() -> float:
    """Median of three timings of a fixed job that uses no qnlab code: small
    and 256^2 complex transforms and a Python loop, about 50 ms in all. It
    gauges how fast the shared host runs at this moment."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(200):
            np.fft.ifft(np.fft.fft(_PROBE_SMALL))
        for _ in range(10):
            np.fft.ifft2(np.fft.fft2(_PROBE_LARGE))
        total = 0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def main() -> int:
    stamp_file, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("run", "trace"):
        print("usage: child.py STAMP_FILE run|trace -- KIND ...", file=sys.stderr)
        return 2
    argv = sys.argv[4:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    import qnlab
    import qnlab.cli as cli

    if not os.path.abspath(qnlab.__file__).startswith(src + os.sep):
        print(f"qnlab imported from {qnlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    stamps = {}
    build_config = cli.build_config

    def stamped_build_config(*args, **kwargs):
        cfg = build_config(*args, **kwargs)
        stamps["config_ready"] = time.monotonic()
        return cfg

    cli.build_config = stamped_build_config
    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.install()
    run_experiment = cli.run_experiment

    def timed_run_experiment(cfg):
        before = speed_probe()
        start = time.perf_counter()
        outcome = run_experiment(cfg)
        stamps["wall_s"] = time.perf_counter() - start
        stamps["probe_s"] = [before, speed_probe()]
        return outcome

    cli.run_experiment = timed_run_experiment
    stamps["status"] = cli.main(argv)
    stamps["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        stamps["spans"] = recorder.spans
    with open(stamp_file, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
