"""Parsing of key=value experiment configuration files."""

import pytest

from labelgames.config import ConfigError, load_config, parse_config

FULL = """\
# population settings
agents = 20
timesteps = 50
h = 0.01
w = 0.8
model = 2
runs = 3
seed = 42
record_every = 5
lambda_init = fixed(0.5)
schedule = unordered

[env]
x1 = uniform(0.25, 0.75)   # first dimension
x2 = uniform(0, 0.5)
"""

MINIMAL = """\
env.x1 = uniform(0, 1)
env.x2 = uniform(0, 0.5)
"""


def err(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value


class TestParsing:
    def test_full_file(self):
        cfg = parse_config(FULL)
        assert cfg.game.n_agents == 20
        assert cfg.game.timesteps == 50
        assert cfg.game.rate == pytest.approx(0.01)
        assert cfg.game.reliability == pytest.approx(0.8)
        assert cfg.game.model == 2
        assert cfg.game.weight_init == 0.5
        assert cfg.game.schedule == "unordered"
        assert cfg.runs == 3
        assert cfg.master_seed == 42
        assert cfg.record_every == 5
        assert cfg.env.intervals == ((0.25, 0.75), (0.0, 0.5))

    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.game.n_agents == 10
        assert cfg.game.timesteps == 2000
        assert cfg.game.rate == pytest.approx(1e-3)
        assert cfg.game.reliability == 1.0
        assert cfg.game.model == 1
        assert cfg.game.weight_init is None
        assert cfg.game.schedule == "ordered"
        assert cfg.runs == 25
        assert cfg.master_seed == 0
        assert cfg.record_every == 1

    def test_section_and_dotted_keys_are_equivalent(self):
        dotted = parse_config(MINIMAL)
        sectioned = parse_config("[env]\nx1 = uniform(0, 1)\nx2 = uniform(0, 0.5)\n")
        assert dotted == sectioned

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "\n# leading comment\nagents = 4   # trailing comment\n\n" + MINIMAL
        )
        assert cfg.game.n_agents == 4

    def test_uniform_lambda_init(self):
        cfg = parse_config("lambda_init = uniform\n" + MINIMAL)
        assert cfg.game.weight_init is None

    def test_scientific_notation_rate(self):
        cfg = parse_config("h = 1e-2\n" + MINIMAL)
        assert cfg.game.rate == pytest.approx(1e-2)


class TestErrors:
    def test_unknown_key_carries_its_line(self):
        e = err("agents = 4\nwat = 1\n" + MINIMAL)
        assert e.line == 2
        assert "wat" in str(e)
        assert str(e).startswith("line 2:")

    def test_duplicate_key_reports_both_lines(self):
        e = err("agents = 4\nagents = 5\n" + MINIMAL)
        assert e.line == 2
        assert "line 1" in e.message

    def test_malformed_line(self):
        assert err("agents\n" + MINIMAL).line == 1

    def test_missing_value(self):
        assert err("agents =\n" + MINIMAL).line == 1

    def test_non_numeric_value(self):
        e = err("agents = ten\n" + MINIMAL)
        assert e.line == 1 and "integer" in e.message

    def test_range_checks(self):
        assert "at least 2" in err("agents = 1\n" + MINIMAL).message
        assert "rate must lie in (0, 1)" in err("h = 0\n" + MINIMAL).message
        assert "rate must lie in (0, 1)" in err("h = 1.5\n" + MINIMAL).message
        assert "[0, 1]" in err("w = 1.2\n" + MINIMAL).message
        assert "1 or 2" in err("model = 3\n" + MINIMAL).message
        assert "at least 1" in err("runs = 0\n" + MINIMAL).message
        assert "64 bits" in err("seed = 18446744073709551616\n" + MINIMAL).message
        assert "timesteps" in err("timesteps = 0\n" + MINIMAL).message

    def test_record_every_must_fit_the_horizon(self):
        e = err("timesteps = 10\nrecord_every = 11\n" + MINIMAL)
        assert e.line == 2
        assert "cannot exceed" in e.message

    def test_missing_environment_dimensions(self):
        e = err("agents = 4\nenv.x1 = uniform(0, 1)\n")
        assert e.line is None
        assert "env.x2" in e.message
        assert "env.x1" in err("agents = 4\n").message

    def test_bad_interval_syntax(self):
        e = err("env.x1 = 0.5\nenv.x2 = uniform(0, 0.5)\n")
        assert e.line == 1 and "uniform(lo, hi)" in e.message

    def test_interval_out_of_range(self):
        assert "must have lo < hi" in err(
            "env.x1 = uniform(0.5, 0.2)\nenv.x2 = uniform(0, 0.5)\n"
        ).message
        assert "intervals[0] must lie in [0, 1]" in err(
            "env.x1 = uniform(0, 1.5)\nenv.x2 = uniform(0, 0.5)\n"
        ).message

    def test_bad_lambda_init(self):
        assert "uniform" in err("lambda_init = 0.5\n" + MINIMAL).message
        assert "[0, 1]" in err("lambda_init = fixed(1.5)\n" + MINIMAL).message

    def test_bad_schedule(self):
        e = err("schedule = weekly\n" + MINIMAL)
        assert e.line == 1 and "schedule" in e.message


class TestLoadConfig:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FULL)
        assert load_config(path) == parse_config(FULL)

    def test_missing_file_becomes_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / "nope.cfg")
        assert "cannot read" in str(info.value)
