"""Every refused value is refused once, by the library, before any compute.

Each bad value goes through three routes: the library's constructors and
entry points, a config file, and the command line.  Each route must raise
``ConfigError`` (exit 2 from the command line), name the line where a
file gave the value, and leave no output directory behind.
"""

import math

import numpy as np
import pytest

from labelgames.analysis import Environment
from labelgames.cli import main
from labelgames.config import parse_config
from labelgames.experiment import (
    ExperimentConfig,
    compare_models,
    run_experiment,
    sweep,
    validate_predictions,
)
from labelgames.game import ConfigError, GameConfig
from labelgames.labels import canonical_label

GAME = {"n_agents": 4, "timesteps": 10, "rate": 0.05}
EXPERIMENT = {"runs": 2, "master_seed": 0, "record_every": 1}
INTERVALS = ((0.0, 1.0), (0.0, 0.5))
FILE = {
    "agents": "4",
    "timesteps": "10",
    "h": "0.05",
    "runs": "2",
    "env.x1": "uniform(0, 1)",
    "env.x2": "uniform(0, 0.5)",
}


def build(out=None, **overrides) -> ExperimentConfig:
    """The base experiment with some library fields replaced."""
    game = {**GAME, **{k: v for k, v in overrides.items() if k not in EXPERIMENT}}
    intervals = list(INTERVALS)
    for dim in (0, 1):
        intervals[dim] = game.pop(f"intervals[{dim}]", intervals[dim])
    experiment = {**EXPERIMENT, **{k: v for k, v in overrides.items() if k in EXPERIMENT}}
    return ExperimentConfig(
        game=GameConfig(**game), env=Environment(tuple(intervals)), outputs=out, **experiment
    )


# (id, library field, library value, config key, config value).  The
# five counts given as floats come first; a config file refuses them as
# syntax, the library by type.
CASES = [
    ("float-agents", "n_agents", 4.0, "agents", "4.0"),
    ("float-timesteps", "timesteps", 3.0, "timesteps", "3.0"),
    ("float-runs", "runs", 2.0, "runs", "2.0"),
    ("float-record-every", "record_every", 1.0, "record_every", "1.0"),
    ("float-seed", "master_seed", 1.5, "seed", "1.5"),
    ("one-agent", "n_agents", 1, "agents", "1"),
    ("zero-timesteps", "timesteps", 0, "timesteps", "0"),
    ("zero-rate", "rate", 0.0, "h", "0"),
    ("rate-above-one", "rate", 1.5, "h", "1.5"),
    ("nan-rate", "rate", math.nan, "h", "nan"),
    ("reliability-above-one", "reliability", 1.2, "w", "1.2"),
    ("negative-reliability", "reliability", -0.1, "w", "-0.1"),
    ("nan-reliability", "reliability", math.nan, "w", "nan"),
    ("model-three", "model", 3, "model", "3"),
    ("zero-runs", "runs", 0, "runs", "0"),
    ("seed-past-64-bits", "master_seed", 1 << 64, "seed", str(1 << 64)),
    ("negative-seed", "master_seed", -1, "seed", "-1"),
    ("zero-record-every", "record_every", 0, "record_every", "0"),
    ("record-every-past-the-end", "record_every", 11, "record_every", "11"),
    ("initial-weight-above-one", "weight_init", 1.5, "lambda_init", "fixed(1.5)"),
    ("unknown-schedule", "schedule", "weekly", "schedule", "weekly"),
    ("reversed-interval", "intervals[0]", (0.5, 0.2), "env.x1", "uniform(0.5, 0.2)"),
    ("interval-off-the-square", "intervals[1]", (0.0, 1.5), "env.x2", "uniform(0, 1.5)"),
]
CASE_IDS = [case[0] for case in CASES]


def config_text(key: str, value: str) -> tuple[str, int]:
    """The base file with ``key`` set to ``value`` on its last line, and that line's number."""
    entries = {k: v for k, v in FILE.items() if k != key}
    entries[key] = value
    return "".join(f"{k} = {v}\n" for k, v in entries.items()), len(entries)


@pytest.mark.parametrize("_, field, value, key, raw", CASES, ids=CASE_IDS)
def test_library_refuses(_, field, value, key, raw, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as info:
        run_experiment(build(out, **{field: value}))
    assert info.value.field == field
    assert not out.exists()


def test_library_refuses_a_label_narrower_than_the_environment(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="does not contain") as info:
        run_experiment(build(out, labels=(canonical_label(0.5),) * 2))
    assert info.value.field == "labels"
    assert not out.exists()


@pytest.mark.parametrize("_, field, value, key, raw", CASES, ids=CASE_IDS)
def test_config_file_refuses_with_the_line(_, field, value, key, raw):
    text, line = config_text(key, raw)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("_, field, value, key, raw", CASES, ids=CASE_IDS)
def test_command_line_refuses_with_the_line(_, field, value, key, raw, tmp_path, capsys):
    text, line = config_text(key, raw)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: line {line}: ")
    assert not out.exists()


# (id, library call on a config, command-line arguments after --config).
VALUE_CASES = [
    ("sweep-w-above-one", lambda c: sweep(c, "w", [0.5, 1.5]),
     ["sweep", "--param", "w", "--values", "0.5,1.5"]),
    ("sweep-zero-h", lambda c: sweep(c, "h", [0.0]),
     ["sweep", "--param", "h", "--values", "0"]),
    ("sweep-alike-values", lambda c: sweep(c, "w", [0.1, 0.1000001]),
     ["sweep", "--param", "w", "--values", "0.1,0.1000001"]),
    ("compare-negative-w", lambda c: compare_models(c, [-0.5]),
     ["compare", "--w-values", "-0.5"]),
    ("compare-alike-values", lambda c: compare_models(c, [0.5, 0.5]),
     ["compare", "--w-values", "0.5,0.5"]),
    ("validate-h-of-one", lambda c: validate_predictions(c, [1.0], n_samples=100),
     ["validate", "--h-values", "1.0", "--samples", "100"]),
    ("validate-alike-values", lambda c: validate_predictions(c, [0.05, 0.0500000001], n_samples=100),
     ["validate", "--h-values", "0.05,0.0500000001", "--samples", "100"]),
]


@pytest.mark.parametrize("_, call, argv", VALUE_CASES, ids=[c[0] for c in VALUE_CASES])
def test_swept_values_are_refused_on_both_routes(_, call, argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        call(build(out, model=2))
    assert not out.exists()

    path = tmp_path / "model2.cfg"
    path.write_text(config_text("model", "2")[0])
    assert main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""
    assert not out.exists()


def test_validate_needs_model_two_on_both_routes(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="requires model 2"):
        validate_predictions(build(out), [0.05], n_samples=100)
    path = tmp_path / "model1.cfg"
    path.write_text(config_text("model", "1")[0])
    assert main(["validate", "--config", str(path), "--h-values", "0.05", "--out", str(out)]) == 2
    assert "requires model 2" in capsys.readouterr().err
    assert not out.exists()


def test_numpy_integers_are_accepted_as_counts():
    plain = build(n_agents=4, timesteps=3, runs=2, record_every=1, master_seed=7)
    numpy = build(
        n_agents=np.int64(4), timesteps=np.int32(3), runs=np.uint8(2),
        record_every=np.int16(1), master_seed=np.uint64(7),
    )
    assert numpy == plain
    assert type(numpy.game.n_agents) is int and type(numpy.master_seed) is int
    a, b = run_experiment(plain), run_experiment(numpy)
    assert np.array_equal(a.aggregate.mean_of_means, b.aggregate.mean_of_means)
