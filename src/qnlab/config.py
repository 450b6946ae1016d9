"""Flat key-value experiment configuration.

Grammar: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Keys are dotted lowercase names; each key has a fixed type (scalar,
string, or comma-separated list) declared in _KEYS, next to the
ExperimentConfig field it fills and its default.  CLI `--set key=value`
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


# key -> (ExperimentConfig field, parser tag, default); `kind` comes from the
# subcommand and `seeds` from QNLAB_SEED when absent, so neither has a default
_KEYS = {
    "kind": ("kind", "str", None),
    "grid.dim": ("grid_dim", "int", 1),
    "grid.n": ("grid_n", "int", 256),
    "physics.eps": ("eps", "float_list", (0.1,)),
    "physics.hbar": ("hbar", "float_list", (0.1,)),
    "physics.T": ("big_t", "float", 0.1),
    "physics.dt": ("dt", "float", 1e-3),
    "physics.mode": ("mode", "str", "poisson_boltzmann"),
    "initial.rho0_amp": ("rho0_amp", "float", 0.1),
    "initial.u0_amp": ("u0_amp", "float", 0.1),
    "runtime.sample_every": ("sample_every", "int", 50),
    "seeds": ("seeds", "int_list", None),
    "output_dir": ("output_dir", "str", "out"),
    "nbody.n_particles": ("n_particles", "int_list", (8, 32, 128)),
    "nbody.n_configs": ("n_configs", "int", 200),
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
    tag = _KEYS[key][1]
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
        if key not in _KEYS:
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
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _default_seeds() -> tuple:
    env = os.environ.get("QNLAB_SEED")
    if env is None:
        return (0,)
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"QNLAB_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"QNLAB_SEED must be nonnegative, got {env!r}")
    return (seed,)


def build_config(raw: dict, kind: str, out_override: str | None = None,
                 jobs: int = 1) -> ExperimentConfig:
    """Type, default, and validate a raw mapping into an ExperimentConfig."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    typed = {field: default for field, _, default in _KEYS.values() if default is not None}
    for key, text in raw.items():
        typed[_KEYS[key][0]] = _parse_value(key, text)
    if typed.setdefault("kind", kind) != kind:
        raise ConfigError(f"config kind {typed['kind']!r} does not match requested {kind!r}")
    if "seeds" not in typed:
        typed["seeds"] = _default_seeds()
    if not typed["seeds"]:
        raise ConfigError("seeds must list at least one value")
    if min(typed["seeds"]) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {min(typed['seeds'])}")

    eps, hbar = typed["eps"], typed["hbar"]
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
    typed["eps"], typed["hbar"] = eps, hbar

    dim, n = typed["grid_dim"], typed["grid_n"]
    if dim not in (1, 2):
        raise ConfigError(f"grid.dim must be 1 or 2, got {dim}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigError(f"grid.n must be a power of two >= 8, got {n}")
    if kind in ("quasineutral_sweep", "nbody_stats") and dim != 1:
        raise ConfigError(f"{kind} is one-dimensional; set grid.dim = 1")

    big_t, dt = typed["big_t"], typed["dt"]
    if dt <= 0:
        raise ConfigError("physics.dt must be positive")
    if kind in ("quasineutral_sweep", "euler_run", "schrodinger_run"):
        if big_t <= 0:
            raise ConfigError("physics.T must be positive for time evolution")
        if int(round(big_t / dt)) < 1:
            raise ConfigError(f"physics.dt = {dt} exceeds the horizon T = {big_t}")
    elif big_t < 0:
        raise ConfigError("physics.T must be nonnegative")
    if typed["mode"] not in MODES:
        raise ConfigError(f"physics.mode must be one of {MODES}, got {typed['mode']!r}")
    # pb_solve solves Poisson-Boltzmann, the one closure whose limit is isothermal Euler
    if typed["mode"] == "linear_poisson" and kind in ("pb_solve", "quasineutral_sweep"):
        raise ConfigError(f"physics.mode = linear_poisson has no meaning for {kind}")

    # phase e^{iU0/hbar} must be resolved: n >= 8 sup|U0'| / (2 pi min hbar)
    required = 8.0 * abs(typed["u0_amp"]) / (2.0 * math.pi * min(hbar))
    if n < required:
        raise ConfigError(
            f"grid.n = {n} under-resolves the phase for hbar = {min(hbar)}; need n >= {required:.1f}"
        )

    if typed["sample_every"] < 1:
        raise ConfigError("runtime.sample_every must be >= 1")
    n_particles, n_configs = typed["n_particles"], typed["n_configs"]
    if not n_particles:
        raise ConfigError("nbody.n_particles must list at least one value")
    if min(n_particles) < 1 or n_configs < 1:
        raise ConfigError("nbody sizes must be positive")
    if n_configs < 2:
        raise ConfigError("nbody.n_configs must be >= 2: a standard error needs two samples")
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if out_override is not None:
        typed["output_dir"] = out_override
    return ExperimentConfig(**typed, jobs=jobs)
