"""Config grammar, typing, defaults, and validation rules."""
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnlab.config import (_KEYS, ExperimentConfig, apply_overrides, build_config,
                          load_config, sample_steps)
from qnlab.errors import ConfigError

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "config_grammar.md"


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SWEEP_TEXT = """\
# comment line
kind = quasineutral_sweep

physics.eps  = 0.02, 0.01   # inline comments are stripped too
physics.hbar = 0.02, 0.01
physics.T = 0.05
physics.dt = 1e-3
initial.rho0_amp = 0.5
initial.u0_amp = 0.1
output_dir = out/sweep
"""


class TestLoadConfig:
    def test_parses_keys_and_strips_comments(self, tmp_path):
        raw = load_config(write(tmp_path, SWEEP_TEXT))
        assert raw["kind"] == "quasineutral_sweep"
        assert raw["physics.eps"] == "0.02, 0.01"
        assert raw["output_dir"] == "out/sweep"
        assert "physics.mode" not in raw  # defaults are applied later

    def test_missing_file_carries_path(self, tmp_path):
        path = str(tmp_path / "absent.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == path
        assert path in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "kind = pb_solve\nphysics.epsilon = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "grid.n = 64\ngrid.n = 128\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            load_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = write(tmp_path, "grid.n 64\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    def test_value_may_contain_equals(self, tmp_path):
        raw = load_config(write(tmp_path, "output_dir = out=dir\n"))
        assert raw["output_dir"] == "out=dir"


class TestOverrides:
    def test_set_replaces_and_adds(self, tmp_path):
        raw = load_config(write(tmp_path, SWEEP_TEXT))
        raw = apply_overrides(raw, ["physics.T=0.1", "grid.n=512"])
        cfg = build_config(raw, "quasineutral_sweep")
        assert cfg.big_t == 0.1
        assert cfg.grid_n == 512

    def test_set_list_value(self):
        raw = apply_overrides({}, ["physics.eps=0.5,0.25"])
        cfg = build_config(raw, "pb_solve")
        assert cfg.eps == (0.5, 0.25)

    def test_set_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["physics.T"])

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["no.such=1"])


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config({}, "pb_solve")
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.grid_dim == 1 and cfg.grid_n == 256
        assert cfg.eps == (0.1,) and cfg.hbar == (0.1,)
        assert cfg.mode == "poisson_boltzmann"
        assert cfg.sample_every == 50
        assert cfg.output_dir == "out"
        assert cfg.n_particles == (8, 32, 128)

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            build_config({"kind": "pb_solve"}, "euler_run")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            build_config({}, "make_coffee")

    def test_singleton_broadcast(self):
        cfg = build_config({"physics.eps": "0.1",
                            "physics.hbar": "0.1, 0.05, 0.025"}, "pb_solve")
        assert cfg.eps == (0.1, 0.1, 0.1)
        assert cfg.hbar == (0.1, 0.05, 0.025)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="entries"):
            build_config({"physics.eps": "0.1, 0.05",
                          "physics.hbar": "0.1, 0.05, 0.025"}, "pb_solve")

    def test_nonpositive_eps(self):
        with pytest.raises(ConfigError, match="positive"):
            build_config({"physics.eps": "0.0"}, "pb_solve")

    def test_empty_eps_list(self):
        with pytest.raises(ConfigError, match="at least one"):
            build_config({"physics.eps": ","}, "pb_solve")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_config({"physics.T": "soon"}, "pb_solve")

    @pytest.mark.parametrize("key, text", [
        ("physics.T", "nan"), ("physics.dt", "-inf"), ("initial.u0_amp", "inf"),
        ("physics.hbar", "0.1, nan"),
    ])
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(ConfigError, match=rf"key '{key}': .* is not finite"):
            build_config({key: text}, "pb_solve")

    def test_grid_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            build_config({"grid.n": "100"}, "pb_solve")

    def test_sweep_needs_one_dimension(self):
        with pytest.raises(ConfigError, match="one-dimensional"):
            build_config({"grid.dim": "2"}, "quasineutral_sweep")

    def test_dt_longer_than_horizon(self):
        with pytest.raises(ConfigError, match="exceeds the horizon"):
            build_config({"physics.T": "1e-4", "physics.dt": "1e-3"}, "euler_run")

    def test_zero_horizon_rejected_for_evolution(self):
        with pytest.raises(ConfigError, match="positive for time evolution"):
            build_config({"physics.T": "0"}, "schrodinger_run")

    def test_zero_horizon_fine_for_pb(self):
        assert build_config({"physics.T": "0"}, "pb_solve").big_t == 0.0

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="physics.mode"):
            build_config({"physics.mode": "hartree"}, "pb_solve")

    def test_phase_resolution_rule(self):
        # n >= 8 |u0_amp| / (2 pi min hbar): u0_amp = 8 pi, hbar = 0.01
        # needs n >= 3200, so 2048 is rejected and 4096 accepted.
        raw = {"initial.u0_amp": "25.132741228718345", "physics.hbar": "0.01",
               "physics.eps": "0.01"}
        with pytest.raises(ConfigError, match="under-resolves"):
            build_config(dict(raw, **{"grid.n": "2048"}), "pb_solve")
        cfg = build_config(dict(raw, **{"grid.n": "4096"}), "pb_solve")
        assert cfg.grid_n == 4096

    def test_out_override_wins(self):
        cfg = build_config({"output_dir": "a"}, "pb_solve", out_override="b")
        assert cfg.output_dir == "b"

    def test_jobs_validated(self):
        with pytest.raises(ConfigError, match="jobs"):
            build_config({}, "pb_solve", jobs=0)

    def test_nbody_caps(self):
        cfg = build_config({"nbody.n_particles": "1000000"}, "nbody_stats")
        assert cfg.n_particles == (1000000,)
        with pytest.raises(ConfigError, match="positive"):
            build_config({"nbody.n_configs": "0"}, "nbody_stats")


class TestSeeds:
    def test_explicit_seeds(self):
        cfg = build_config({"seeds": "3, 5, 7"}, "nbody_stats")
        assert cfg.seeds == (3, 5, 7)

    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("QNLAB_SEED", "42")
        assert build_config({}, "nbody_stats").seeds == (42,)

    def test_no_env_no_key_defaults_to_zero(self, monkeypatch):
        monkeypatch.delenv("QNLAB_SEED", raising=False)
        assert build_config({}, "nbody_stats").seeds == (0,)

    def test_malformed_env_ignored_when_file_has_seeds(self, monkeypatch):
        monkeypatch.setenv("QNLAB_SEED", "not-a-number")
        assert build_config({"seeds": "9"}, "nbody_stats").seeds == (9,)

    def test_malformed_env_raises_when_needed(self, monkeypatch):
        monkeypatch.setenv("QNLAB_SEED", "not-a-number")
        with pytest.raises(ConfigError, match="QNLAB_SEED"):
            build_config({}, "nbody_stats")

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError, match="seeds"):
            build_config({"seeds": ","}, "nbody_stats")


@pytest.mark.parametrize("big_t, dt, every, expected", [
    (0.0, 0.1, 3, [0]),
    (1.0, 0.1, 3, [0, 3, 6, 9, 10]),
    (1.0, 0.1, 5, [0, 5, 10]),
    (0.04, 0.1, 3, [0, 1]),         # 0 < T < dt/2 still takes one step
    (1.0, 0.1, 10**9, [0, 10]),
])
def test_sample_steps(big_t, dt, every, expected):
    assert sample_steps(big_t, dt, every) == expected


@given(n_steps=st.integers(0, 2000), dt_exp=st.integers(1, 20), every=st.integers(1, 3000))
def test_sample_steps_start_at_zero_increase_and_end_at_the_step_count(n_steps, dt_exp, every):
    dt = 2.0**-dt_exp  # a power of two, so n_steps * dt / dt is exact
    steps = sample_steps(n_steps * dt, dt, every)
    assert steps[0] == 0
    assert all(a < b for a, b in zip(steps, steps[1:]))
    assert steps[-1] == n_steps


@pytest.mark.parametrize("big_t, dt, every", [(-1.0, 0.1, 1), (1.0, 0.0, 1), (1.0, 0.1, 0)])
def test_sample_steps_rejects_bad_input(big_t, dt, every):
    with pytest.raises(ValueError):
        sample_steps(big_t, dt, every)


def test_docs_key_table_lists_every_key():
    keys_section = GRAMMAR.read_text(encoding="utf-8").split("## Keys", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([^`]+)`", keys_section, flags=re.MULTILINE)
    assert sorted(documented) == sorted(_KEYS)
