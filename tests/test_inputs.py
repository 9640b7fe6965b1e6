"""Every refused value is refused once, by the library, before any compute.

Each bad value goes through three routes: the library's constructors and
entry points, a config file, and the command line.  Each route must raise
``ConfigError`` (exit 2 from the command line), name the line where a
file gave the value, and leave no output directory behind.  One property
feeds values of every kind into each checked field and argument: each is
either accepted and stored as a plain int, float or tuple, or refused
with a ``ConfigError`` that names it.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import analysis, experiment, game
from labelgames.analysis import (
    Environment,
    build_prediction,
    estimate_target_moments,
    mean_trajectory,
    positive_update_probability_mc,
    resting_variance,
    steps_to_mean_convergence,
    steps_to_variance_convergence,
    variance_trajectory,
)
from labelgames.cli import main
from labelgames.config import parse_config
from labelgames.experiment import (
    ExperimentConfig,
    compare_models,
    mix_seed,
    run_experiment,
    sweep,
    validate_predictions,
)
from labelgames.game import (
    AssertionIndex,
    ConfigError,
    GameConfig,
    choose_assertion,
    dialogues_per_timestep,
    implied_weight,
    run_dialogue,
)
from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    ThresholdDistribution,
    UniformThreshold,
    WeightedCityBlock,
    canonical_label,
    canonical_label_pair,
)

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


class SteeperThreshold(UniformThreshold):
    """A uniform threshold under another name, whose survival the engine does not know."""


UNIT = ConceptualSpace(1)
# 1-d labels whose memberships the engine does not compute.
FOREIGN_LABELS = {
    "custom-threshold": Label(
        (1.0,), Euclidean(), ThresholdDistribution(lambda t: np.clip(1.0 - t * t, 0.0, 1.0)), UNIT
    ),
    "threshold-subclass": Label((1.0,), Euclidean(), SteeperThreshold(), UNIT),
    "two-weight-city-block": Label((1.0,), WeightedCityBlock((1.0, 2.0)), UniformThreshold(), UNIT),
}


@pytest.mark.parametrize("label", FOREIGN_LABELS.values(), ids=FOREIGN_LABELS.keys())
def test_library_refuses_a_label_the_engine_cannot_compute(label, tmp_path):
    with pytest.raises(ConfigError, match="UniformThreshold") as info:
        GameConfig(labels=(canonical_label(), label))
    assert info.value.field == "labels"
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        run_experiment(build(out, labels=(label, label)))
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
    ("validate-h-too-small-to-converge", lambda c: validate_predictions(c, [1e-20], n_samples=100),
     ["validate", "--h-values", "1e-20", "--samples", "100"]),
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


# (id, call, refused field): values that slipped through, or failed
# with another error, before each kind of value had one checking rule.
PROBES = [
    ("float-model", lambda: GameConfig(model=2.0), "model"),
    ("bool-model", lambda: GameConfig(model=True), "model"),
    ("bool-weight-init", lambda: GameConfig(weight_init=True), "weight_init"),
    ("float-model-moments", lambda: estimate_target_moments(Environment(), model=2.0), "model"),
    ("string-rate", lambda: GameConfig(rate="0.1"), "rate"),
    ("string-reliability", lambda: GameConfig(reliability="1"), "reliability"),
    ("short-reliability-list", lambda: GameConfig(reliability=[1.0, 0.5]), "reliability"),
    ("short-weight-list", lambda: GameConfig(weight_init=[0.1, 0.2]), "weight_init"),
    ("short-reliability-array", lambda: GameConfig(reliability=np.array([1.0, 0.5])), "reliability"),
    ("short-weight-array", lambda: GameConfig(weight_init=np.array([0.1, 0.2])), "weight_init"),
    ("tuple-reliability-prediction",
     lambda: build_prediction(Environment(), 0.01, reliability=(1.0, 0.5)), "reliability"),
    ("bool-runs", lambda: ExperimentConfig(runs=True), "runs"),
    ("bool-record-every", lambda: ExperimentConfig(record_every=True), "record_every"),
    ("string-interval-end", lambda: Environment(((0, "1"), (0, 1))), "intervals[0]"),
    ("three-interval-ends", lambda: Environment(((0, 0.5, 1), (0, 1))), "intervals[0]"),
    ("float-samples-moments", lambda: estimate_target_moments(Environment(), n_samples=10.5), "n_samples"),
    ("float-samples-share",
     lambda: positive_update_probability_mc(Environment(), 2.5, np.random.default_rng(0)), "n_samples"),
    ("nan-tolerance", lambda: steps_to_mean_convergence(0.5, 0.25, 1e-3, math.nan), "tol"),
    ("string-start-variance", lambda: variance_trajectory("x", 0.1, 0.1, 3), "start_variance"),
    ("list-sweep-parameter", lambda: sweep(ExperimentConfig(), ["w"], [0.5]), "parameter"),
    # Pair and lane ids are int32; neither config runs anything.
    ("agents-past-int32-pairs", lambda: GameConfig(n_agents=46342), "n_agents"),
    ("runs-past-int32-lanes", lambda: ExperimentConfig(GameConfig(n_agents=2), runs=2**30), "runs"),
    # Objects are checked by kind, before any of their attributes is read.
    ("none-game", lambda: ExperimentConfig(game=None), "game"),
    ("string-game", lambda: ExperimentConfig(game="x"), "game"),
    ("none-env", lambda: ExperimentConfig(env=None), "env"),
    ("env-look-alike",
     lambda: ExperimentConfig(env=type("Sampler", (), {"intervals": ((0, 1), (0, 1)), "sample_runs": None})()),
     "env"),
    ("int-outputs", lambda: ExperimentConfig(outputs=5), "outputs"),
    # The Monte Carlo estimators check their labels and environment before any draw.
    ("narrow-label-space-moments",
     lambda: estimate_target_moments(Environment(), labels=(canonical_label(0.5),) * 2), "labels"),
    ("narrow-label-space-prediction",
     lambda: build_prediction(Environment(), 0.01, labels=(canonical_label(), canonical_label(0.5))), "labels"),
    ("int-labels-moments", lambda: estimate_target_moments(Environment(), labels=(1, 2)), "labels"),
    ("one-label-moments", lambda: estimate_target_moments(Environment(), labels=(canonical_label(),)), "labels"),
    ("three-labels-prediction",
     lambda: build_prediction(Environment(), 0.01, labels=canonical_label_pair() * 2), "labels"),
    ("list-labels-moments", lambda: estimate_target_moments(Environment(), labels=list(canonical_label_pair())),
     "labels"),
    ("unknown-threshold-moments",
     lambda: estimate_target_moments(Environment(), labels=(canonical_label(), FOREIGN_LABELS["custom-threshold"])),
     "labels"),
    ("two-weight-metric-prediction",
     lambda: build_prediction(Environment(), 0.01, labels=(FOREIGN_LABELS["two-weight-city-block"],) * 2),
     "labels"),
    ("env-look-alike-moments",
     lambda: estimate_target_moments(type("Box", (), {"intervals": ((0, 1), (0, 1))})()), "env"),
    ("none-env-share", lambda: positive_update_probability_mc(None, 10, np.random.default_rng(0)), "env"),
]


@pytest.mark.parametrize("_, call, field", PROBES, ids=[p[0] for p in PROBES])
def test_probe_is_refused_naming_its_field(_, call, field):
    with pytest.raises(ConfigError) as info:
        call()
    assert info.value.field == field


def test_per_agent_values_are_stored_as_tuples_of_floats():
    config = GameConfig(
        n_agents=3, reliability=np.array([1.0, 0.5, 0.25]), weight_init=[0, np.float32(0.5), 1]
    )
    assert config.reliability == (1.0, 0.5, 0.25) and config.weight_init == (0.0, 0.5, 1.0)
    assert {type(v) for v in config.reliability + config.weight_init} == {float}
    assert config == GameConfig(n_agents=3, reliability=(1.0, 0.5, 0.25), weight_init=(0.0, 0.5, 1.0))


def test_every_config_error_names_its_field():
    """Each ``ConfigError(...)`` in the checking modules passes a field.

    ``FootprintError``, a ``ConfigError`` raised under its own name, is the
    one exception: no single field is to blame for a timestep too large
    for memory.
    """
    for module in (game, analysis, experiment):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError":
                field = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "field"), None
                )
                unnamed = field is None or isinstance(field, ast.Constant) and field.value is None
                assert not unnamed, f"{module.__name__} line {node.lineno} names no field"


def plain(value) -> bool:
    """An int, a float, None, or a tuple of such values; never a bool or a numpy type."""
    if type(value) is tuple:
        return all(plain(v) for v in value)
    return value is None or type(value) in (int, float)


def fields_are_plain(*names):
    return lambda result: all(plain(getattr(result, name)) for name in names)


# Numbers stay small, so that any accepted value runs in milliseconds.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "1", "0.5", "nan", "ordered", "unordered"]),
    st.integers(-3, 12),
    st.sampled_from([1, 2]),
    st.floats(-0.5, 1.5),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0]),
    st.integers(-3, 12).map(np.int64),
    st.floats(-0.5, 1.5).map(np.float64),
    st.floats(0.0, 1.0, width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.floats(0.0, 1.0).map(np.array),
    st.lists(st.floats(0.0, 1.0), max_size=3).map(np.array),
    st.lists(st.floats(0.0, 1.0), max_size=3).map(lambda v: np.array([v, v])),
)
_PAIRS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
# Scalars are drawn most often, since most fields take one; pairs of
# pairs are what an environment takes.
VALUES = st.one_of(_SCALARS, _SCALARS, _SCALARS, _PAIRS, st.tuples(_PAIRS, _PAIRS), _NESTED)

_ENV = Environment()
_SMALL = {"n_agents": 2, "timesteps": 2}
_GAME = ("n_agents", "timesteps", "rate", "model", "reliability", "weight_init")
_EXPERIMENT = ("runs", "master_seed", "record_every")
_VALIDATED = ExperimentConfig(game=GameConfig(n_agents=2, timesteps=1, model=2), runs=1)
_X = (0.3, 0.8)


def _call(function, *args, **base):
    """``function`` with the drawn value given as the keyword ``field``."""
    return lambda field, value: function(*args, **{**base, field: value})


def _interval(field, value):
    """An environment with the drawn value as the interval ``field`` names."""
    intervals = [(0.0, 1.0), (0.0, 1.0)]
    intervals[int(field[-2])] = value
    return Environment(tuple(intervals))


# (fields or arguments, call with the drawn value, check on the result).
# Objects (the game, environment, labels, observation, generator and the
# trajectory's steps) are outside the value contract.
_TARGETS = [
    (_GAME + ("labels", "schedule"), _call(GameConfig, **_SMALL), fields_are_plain(*_GAME)),
    (_EXPERIMENT, _call(ExperimentConfig, game=GameConfig(**_SMALL)), fields_are_plain(*_EXPERIMENT)),
    (("intervals",), _call(Environment), fields_are_plain("intervals")),
    (("intervals[0]", "intervals[1]"), _interval, fields_are_plain("intervals")),
    (("n_agents", "schedule"), _call(dialogues_per_timestep, n_agents=3, schedule="ordered"), plain),
    (("weight",), _call(choose_assertion, labels=canonical_label_pair(), x=_X), None),
    (("reliability",),
     _call(implied_weight, AssertionIndex.BOTH, canonical_label_pair(), _X), plain),
    (("w_speaker", "w_listener", "reliability", "rate", "model"),
     _call(run_dialogue, w_speaker=0.5, w_listener=0.5, reliability=1.0,
           labels=canonical_label_pair(), x=_X, rate=0.1, model=2),
     lambda result: plain(result[0]) and plain(result[2])),
    (("n_samples",),
     _call(positive_update_probability_mc, _ENV, rng=np.random.default_rng(0)), plain),
    (("reliability", "model", "n_samples"),
     _call(estimate_target_moments, _ENV, n_samples=8, rng=np.random.default_rng(0)),
     fields_are_plain("mean", "variance", "count")),
    (("rate", "target_variance"), _call(resting_variance, rate=0.1, target_variance=0.2), plain),
    (("start_mean", "target_mean", "rate"),
     _call(mean_trajectory, start_mean=0.5, target_mean=0.25, rate=0.1, steps=3), plain),
    (("start_variance", "target_variance", "rate"),
     _call(variance_trajectory, start_variance=0.1, target_variance=0.2, rate=0.1, steps=3), plain),
    (("start_mean", "target_mean", "rate", "tol"),
     _call(steps_to_mean_convergence, start_mean=0.5, target_mean=0.25, rate=0.1, tol=0.01), plain),
    (("start_variance", "target_variance", "rate", "tol"),
     _call(steps_to_variance_convergence, start_variance=0.1, target_variance=0.2, rate=0.1,
           tol=0.01), plain),
    (("rate", "reliability", "model", "n_samples"),
     _call(build_prediction, _ENV, rate=0.1, n_samples=8, rng=np.random.default_rng(0)),
     fields_are_plain("rate", "reliability", "model")),
    (("n_samples",), _call(validate_predictions, _VALIDATED, [0.1]), None),
    (("master_seed", "stream"), _call(mix_seed, master_seed=0, stream=0), plain),
]
SLOTS = [(field, call, check) for fields, call, check in _TARGETS for field in fields]


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(slot=st.sampled_from(SLOTS), value=VALUES)
def test_each_value_is_stored_plain_or_refused_naming_its_field(slot, value):
    field, call, check = slot
    try:
        result = call(field, value)
    except ConfigError as err:
        assert err.field == field or field == "intervals" and err.field.startswith("intervals")
    else:
        assert check is None or check(result)
