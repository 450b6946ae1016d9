"""Flat key-value experiment configuration.

Grammar: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Keys are dotted lowercase names; each key has a fixed type (scalar,
string, or comma-separated list) declared in _KEY_TYPES.  CLI `--set key=value`
overrides are applied on the raw text values before typing.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigError

KINDS = ("pb_solve", "schrodinger_run", "euler_run", "quasineutral_sweep", "nbody_stats")
MODES = ("poisson_boltzmann", "linear_poisson")


def sample_steps(big_t: float, dt: float, sample_every: int) -> list:
    """Step indices an integrator run to ~big_t reports: step 0, every
    sample_every-th step and the last step. big_t rounds to a whole number of
    steps, at least one when big_t > 0; the last index is the step count."""
    if not (0 <= big_t < math.inf and dt > 0):
        raise ValueError("need T finite and >= 0 and dt > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = max(1, int(round(big_t / dt))) if big_t > 0 else 0
    steps = list(range(0, n_steps + 1, sample_every))
    return steps if steps[-1] == n_steps else steps + [n_steps]


# name -> parser tag
_KEY_TYPES = {
    "kind": "str",
    "grid.dim": "int",
    "grid.n": "int",
    "physics.eps": "float_list",
    "physics.hbar": "float_list",
    "physics.T": "float",
    "physics.dt": "float",
    "physics.mode": "str",
    "initial.rho0_amp": "float",
    "initial.u0_amp": "float",
    "runtime.sample_every": "int",
    "seeds": "int_list",
    "output_dir": "str",
    "nbody.n_particles": "int_list",
    "nbody.n_configs": "int",
}

_DEFAULTS = {
    "grid.dim": 1,
    "grid.n": 256,
    "physics.eps": (0.1,),
    "physics.hbar": (0.1,),
    "physics.T": 0.1,
    "physics.dt": 1e-3,
    "physics.mode": "poisson_boltzmann",
    "initial.rho0_amp": 0.1,
    "initial.u0_amp": 0.1,
    "runtime.sample_every": 50,
    "output_dir": "out",
    "nbody.n_particles": (8, 32, 128),
    "nbody.n_configs": 200,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    grid_dim: int
    grid_n: int
    eps: tuple
    hbar: tuple
    big_t: float
    dt: float
    mode: str
    rho0_amp: float
    u0_amp: float
    sample_every: int
    seeds: tuple
    output_dir: str
    n_particles: tuple
    n_configs: int
    jobs: int = 1


def _parse_value(key: str, text: str):
    tag = _KEY_TYPES[key]
    text = text.strip()
    try:
        if tag == "int":
            return int(text)
        if tag == "int_list":
            return tuple(int(p) for p in text.split(",") if p.strip())
        if tag == "float":
            values = (float(text),)
        elif tag == "float_list":
            values = tuple(float(p) for p in text.split(",") if p.strip())
        else:
            return text
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as {tag}") from exc
    # float() accepts nan and inf, which no key means and JSON cannot hold
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: {text!r} is not finite")
    return values[0] if tag == "float" else values


def load_config(path: str) -> dict:
    """Read a config file into a raw {key: text} dict (no typing yet)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}", path=str(path)) from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}",
                              path=str(path))
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}", path=str(path))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}", path=str(path))
        raw[key] = value.strip()
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply `--set key=value` pairs on top of the raw text values."""
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"--set: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _default_seeds() -> tuple:
    env = os.environ.get("QNLAB_SEED")
    if env is not None:
        try:
            return (int(env),)
        except ValueError as exc:
            raise ConfigError(f"QNLAB_SEED must be an integer, got {env!r}") from exc
    return (0,)


def build_config(raw: dict, kind: str, out_override: str | None = None,
                 jobs: int = 1) -> ExperimentConfig:
    """Type, default, and validate a raw mapping into an ExperimentConfig."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    typed = {}
    for key, text in raw.items():
        typed[key] = _parse_value(key, text)
    if "kind" in typed and typed["kind"] != kind:
        raise ConfigError(f"config kind {typed['kind']!r} does not match requested {kind!r}")
    for key, default in _DEFAULTS.items():
        typed.setdefault(key, default)
    seeds = typed["seeds"] if "seeds" in typed else _default_seeds()
    if not seeds:
        raise ConfigError("seeds must list at least one value")

    eps = typed["physics.eps"]
    hbar = typed["physics.hbar"]
    if not eps or not hbar:
        raise ConfigError("physics.eps and physics.hbar must list at least one value")
    if len(eps) == 1 and len(hbar) > 1:
        eps = eps * len(hbar)
    if len(hbar) == 1 and len(eps) > 1:
        hbar = hbar * len(eps)
    if len(eps) != len(hbar):
        raise ConfigError(f"physics.eps has {len(eps)} entries but physics.hbar has {len(hbar)}")
    if any(v <= 0 for v in eps) or any(v <= 0 for v in hbar):
        raise ConfigError("all eps and hbar values must be positive")

    dim, n = typed["grid.dim"], typed["grid.n"]
    if dim not in (1, 2):
        raise ConfigError(f"grid.dim must be 1 or 2, got {dim}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigError(f"grid.n must be a power of two >= 8, got {n}")
    if kind in ("quasineutral_sweep", "nbody_stats") and dim != 1:
        raise ConfigError(f"{kind} is one-dimensional; set grid.dim = 1")

    big_t, dt = typed["physics.T"], typed["physics.dt"]
    if dt <= 0:
        raise ConfigError("physics.dt must be positive")
    if kind in ("quasineutral_sweep", "euler_run", "schrodinger_run"):
        if big_t <= 0:
            raise ConfigError("physics.T must be positive for time evolution")
        if int(round(big_t / dt)) < 1:
            raise ConfigError(f"physics.dt = {dt} exceeds the horizon T = {big_t}")
    elif big_t < 0:
        raise ConfigError("physics.T must be nonnegative")
    mode = typed["physics.mode"]
    if mode not in MODES:
        raise ConfigError(f"physics.mode must be one of {MODES}, got {mode!r}")

    # phase e^{iU0/hbar} must be resolved: n >= 8 sup|U0'| / (2 pi min hbar)
    u0_amp = typed["initial.u0_amp"]
    required = 8.0 * abs(u0_amp) / (2.0 * math.pi * min(hbar))
    if n < required:
        raise ConfigError(
            f"grid.n = {n} under-resolves the phase for hbar = {min(hbar)}; need n >= {required:.1f}"
        )

    sample_every = typed["runtime.sample_every"]
    if sample_every < 1:
        raise ConfigError("runtime.sample_every must be >= 1")
    n_particles = typed["nbody.n_particles"]
    n_configs = typed["nbody.n_configs"]
    if any(p < 1 for p in n_particles) or n_configs < 1:
        raise ConfigError("nbody sizes must be positive")
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")

    return ExperimentConfig(
        kind=kind,
        grid_dim=dim,
        grid_n=n,
        eps=tuple(eps),
        hbar=tuple(hbar),
        big_t=big_t,
        dt=dt,
        mode=mode,
        rho0_amp=typed["initial.rho0_amp"],
        u0_amp=u0_amp,
        sample_every=sample_every,
        seeds=tuple(seeds),
        output_dir=out_override if out_override is not None else typed["output_dir"],
        n_particles=tuple(n_particles),
        n_configs=n_configs,
        jobs=jobs,
    )
