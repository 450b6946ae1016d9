"""Command-line entry point.

    qnlab <kind> --config FILE [--set KEY=VALUE]... [--jobs N] [--out DIR]

Exit codes: 0 success, 1 a solver failed (error records written), 2 the
configuration or the output directory is unusable (record on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import KINDS, apply_overrides, build_config, load_config
from .errors import ConfigError
from .experiments import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnlab",
        description="numerical laboratory for the quasi-neutral limit",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, what in KINDS.items():
        p = sub.add_parser(kind, help=what)
        p.add_argument("--config", required=True, metavar="FILE",
                       help="key = value experiment file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config entry")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for sweep points")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (overrides output_dir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.kind == "nbody_stats":
        # numpy 2 loads numpy.random on first use; the one kind that draws
        # loads it before build_config returns, so the load counts as start-up
        # and not inside run_experiment's own timing
        import numpy.random  # noqa: F401
    try:
        raw = apply_overrides(load_config(args.config), args.overrides)
        cfg = build_config(raw, args.kind, out_override=args.out, jobs=args.jobs)
        out_dir = Path(cfg.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: {exc}", path=cfg.output_dir) from exc
    except ConfigError as exc:
        record = {"type": type(exc).__name__, "message": str(exc)}
        if exc.path is not None:
            record["path"] = exc.path
        print(json.dumps(record), file=sys.stderr)
        return 2
    errors = run_experiment(cfg)
    for record in errors:
        print(json.dumps(record), file=sys.stderr)
    print(out_dir)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
