"""Replicated, seeded experiment runs with statistics and CSV persistence.

A single experiment repeats the same game configuration across independent
runs, each seeded by mixing a master seed with the run id, records the
population mean and cross-agent standard deviation of the weights over
time, and aggregates across runs.  The runs play one after another, each
in one C call (``engine._RunPlayer``, around ``play_run``) per block of
recorded timesteps: the kernel steps the run's own ``PCG64`` generator
in C, drawing every timestep's schedule and observations as a Python run
would draw them, plays the dialogues and copies the weights out at each
recorded timestep.  Each block of snapshots is reduced to its
statistics before the next block or run, so memory holds one run's
shuffled pairs, 4 bytes per dialogue, one block and every run's series.
The test suite checks every run's records bit for bit against a scalar
specification of the whole run.  Identical configuration and master
seed give byte-identical output files.
``ExperimentConfig`` checks its values, and that each label's space
contains its dimension's interval, on construction.  A configuration
whose experiment cannot fit in physical memory is refused before anything
runs, with ``FootprintError``, a ``ConfigError``; an engine that cannot
be built or fails its check raises ``engine.EngineError``, also before any
output directory is made.

Sweeps, model comparisons, and prediction validation are thin layers that
re-run the experiment with one field changed and tabulate the results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import Environment, _rate, build_prediction
from .engine import _STACK_BYTES_PER_DIALOGUE, _RunPlayer, _loop, _physical_memory
from .engine import _stacked_timestep  # noqa: F401  the benchmark's tracer hooks it here by name
from .game import (
    ConfigError,
    GameConfig,
    _initial_state,
    _integer,
    _label_pair,
    _real,
    dialogues_per_timestep,
)

_MASK64 = (1 << 64) - 1

RUN_CSV_HEADER = "timestep,mean_lambda,sd_lambda"
AGGREGATE_CSV_HEADER = "timestep,mean_of_means,sem_of_means,mean_sd"
FINAL_CSV_HEADER = "run_id,agent_id,lambda"


def mix_seed(master_seed: int, stream: int) -> int:
    """Derive an independent 64-bit seed for one stream of an experiment.

    This is the splitmix64 finalizer applied to master_seed plus the
    stream's multiple of the golden-ratio increment.  Runs use streams
    0..runs-1; auxiliary consumers (such as prediction sampling) use
    streams offset far above any plausible run count.  The function is
    pure, so any subset of runs can be reproduced in isolation.
    """
    seed = _integer(master_seed, "master_seed", 0)
    if seed >= 1 << 64:
        raise ConfigError(f"master_seed must fit in 64 bits, got {seed}", "master_seed")
    z = (seed + (_integer(stream, "stream", 0) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentConfig:
    """One game configuration replicated across seeded runs."""

    game: GameConfig = field(default_factory=GameConfig)
    env: Environment = field(default_factory=Environment)
    runs: int = 25
    master_seed: int = 0
    record_every: int = 1
    outputs: str | Path | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.game, GameConfig):
            raise ConfigError(f"game must be a GameConfig, got {self.game!r}", "game")
        if not isinstance(self.env, Environment):
            raise ConfigError(f"env must be an Environment, got {self.env!r}", "env")
        if not (self.outputs is None or isinstance(self.outputs, (str, os.PathLike))):
            raise ConfigError(f"outputs must be a path or None, got {self.outputs!r}", "outputs")
        for name, least in (("runs", 1), ("master_seed", 0), ("record_every", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        _integer(self.runs, "runs", 1, _PREDICTION_STREAM_BASE)  # below the prediction streams
        mix_seed(self.master_seed, 0)  # refuses a seed past 64 bits
        if self.record_every > self.game.timesteps:
            raise ConfigError(
                f"record_every ({self.record_every}) cannot exceed "
                f"timesteps ({self.game.timesteps})",
                "record_every",
            )
        _label_pair(self.game.labels, self.env.intervals)


def record_times(timesteps: int, record_every: int) -> np.ndarray:
    """Recorded timesteps: zero, every multiple of the interval, the end."""
    times = np.arange(0, timesteps + 1, record_every, dtype=np.int64)
    return times if times[-1] == timesteps else np.append(times, timesteps)


@dataclass(frozen=True)
class RunRecord:
    """Time series and final state of one run."""

    run_id: int
    times: np.ndarray
    mean_weights: np.ndarray
    sd_weights: np.ndarray
    final_weights: np.ndarray


@dataclass(frozen=True)
class AggregateRecord:
    """Across-run statistics at each recorded timestep.

    sem_of_means is the standard error over runs of the per-run mean
    weight; with a single run it is NaN, since no spread can be estimated.
    """

    times: np.ndarray
    mean_of_means: np.ndarray
    sem_of_means: np.ndarray
    mean_sd: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    run_records: list[RunRecord]
    aggregate: AggregateRecord


def _population_stats(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean and cross-agent standard deviation of a (rows, agents) array of weights."""
    return weights.mean(axis=1), weights.std(axis=1, ddof=1)


# A kernel call fills at most this many rows of weight snapshots, and at
# most this many bytes of them.
_BLOCK_ROWS = 2**16
_BLOCK_BYTES = 2**23


def _recorded(config: ExperimentConfig) -> int:
    """How many timesteps ``record_times`` records, without building them."""
    return -(-config.game.timesteps // config.record_every) + 1


def _block_rows(config: ExperimentConfig) -> int:
    """Rows of weight snapshots one kernel call fills: every recorded time, within the bounds."""
    return max(1, min(_recorded(config), _BLOCK_ROWS, _BLOCK_BYTES // (8 * config.game.n_agents)))


def _run_stacked(config: ExperimentConfig) -> list[RunRecord]:
    """Every run played one after another, each in one C call per block of recorded times.

    Run r draws from a generator seeded with mix_seed(master_seed, r): its
    initial state, then, inside ``play_run``, every timestep's schedule and
    observations.  The kernel snapshots the weights at each recorded time,
    and each block of snapshots is reduced by ``_population_stats`` before
    the next block, so no run holds more than one block.
    """
    game = config.game
    times = record_times(game.timesteps, config.record_every)
    rows = _block_rows(config)
    player = _RunPlayer(_loop().play_run, game, config.env.intervals, rows)
    records = []
    for r in range(config.runs):
        rng = np.random.default_rng(mix_seed(config.master_seed, r))
        weights, rels = _initial_state(game, rng)
        played, stats = 0, []
        for start in range(0, times.size, rows):
            block = times[start : start + rows]
            stats.append(_population_stats(player(rng, weights, rels, played, block)))
            played = int(block[-1])
        means, sds = (np.concatenate(column) for column in zip(*stats))
        records.append(RunRecord(r, times, means, sds, weights))
    return records


def aggregate_runs(records: list[RunRecord]) -> AggregateRecord:
    """Fold per-run series into across-run statistics, in run-id order."""
    ordered = sorted(records, key=lambda rec: rec.run_id)
    means = np.vstack([rec.mean_weights for rec in ordered])
    sds = np.vstack([rec.sd_weights for rec in ordered])
    runs = means.shape[0]
    if runs > 1:
        sem = np.std(means, axis=0, ddof=1) / np.sqrt(runs)
    else:
        sem = np.full(means.shape[1], np.nan)
    return AggregateRecord(
        times=ordered[0].times.copy(),
        mean_of_means=means.mean(axis=0),
        sem_of_means=sem,
        mean_sd=sds.mean(axis=0),
    )


def _format(value: float) -> str:
    return f"{float(value):.9g}"


def _write_rows(path: Path, rows, header: str | None = None, sep: str = ",") -> None:
    """Write each row as one line of cells joined by ``sep``, after ``header``.

    This is the one file format: the CSVs and every ``.dat`` plot series.
    A float cell is written at nine significant digits, as ``_format``
    prints it, an integer as it is, and the file ends with a newline.
    Cells from ``ndarray.tolist()`` format faster than numpy scalars.
    """
    lines = [] if header is None else [header]
    lines.extend(
        sep.join([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row]) for row in rows
    )
    path.write_text("\n".join(lines) + "\n")


def prepare_output_dir(outputs: str | Path) -> Path:
    """Create the output directory and prove it is writable.

    Runs before any simulation so a doomed experiment fails in
    milliseconds rather than after the compute.  Raises OSError when the
    path exists as a file or cannot accept new files.
    """
    out_dir = Path(outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    probe.write_bytes(b"")
    probe.unlink()
    return out_dir


def persist_experiment(
    out_dir: Path, records: list[RunRecord], aggregate: AggregateRecord
) -> None:
    for record in records:
        columns = (record.times, record.mean_weights, record.sd_weights)
        rows = zip(*(c.tolist() for c in columns))
        _write_rows(out_dir / f"run_{record.run_id:03d}.csv", rows, RUN_CSV_HEADER)
    columns = (aggregate.times, aggregate.mean_of_means, aggregate.sem_of_means, aggregate.mean_sd)
    _write_rows(out_dir / "aggregate.csv", zip(*(c.tolist() for c in columns)), AGGREGATE_CSV_HEADER)
    finals = (
        (record.run_id, agent_id, weight)
        for record in sorted(records, key=lambda rec: rec.run_id)
        for agent_id, weight in enumerate(record.final_weights.tolist())
    )
    _write_rows(out_dir / "final_lambdas.csv", finals, FINAL_CSV_HEADER)


class FootprintError(ConfigError):
    """A configuration whose experiment cannot fit in physical memory."""


# Bytes an experiment keeps beyond one run's timestep, without and with
# output files: per run and recorded timestep (the mean and sd series,
# aggregate_runs' stacks of both, np.std's temporary), per run (its record),
# per run and agent (the final weight; its CSV line) and per recorded timestep
# (the aggregate; its CSV lines).  The largest tracemalloc peaks of run_experiment
# and validate_predictions, at 2-200 agents, 1-20,000 runs and 2-400,001
# recorded timesteps, plus about a quarter.
_KEPT_BYTES = ((51, 950, 10, 90), (51, 950, 155, 420))


def _check_footprint(config: ExperimentConfig) -> None:
    """Refuse a configuration whose experiment would not fit in physical memory.

    Runs play one after another, each holding one timestep's draws at
    about ``_STACK_BYTES_PER_DIALOGUE`` bytes per dialogue and one block
    of weight snapshots, beside every run's series and final weights.
    Raises FootprintError when that exceeds the machine's physical memory.
    """
    game, runs, recorded = config.game, config.runs, _recorded(config)
    per_record, per_run, per_agent, per_time = _KEPT_BYTES[config.outputs is not None]
    dialogues = dialogues_per_timestep(game.n_agents, game.schedule)
    need = dialogues * _STACK_BYTES_PER_DIALOGUE + _block_rows(config) * game.n_agents * 8 + recorded * per_time
    need += runs * (recorded * per_record + per_run + game.n_agents * per_agent)
    have = _physical_memory()
    if have is not None and need > have:
        raise FootprintError(
            f"{runs} runs of {game.n_agents} agents, each playing {dialogues} dialogues per timestep and recording "
            f"{recorded} timesteps, need about {need / 2**30:.1f} GiB; physical memory is {have / 2**30:.1f} GiB"
        )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute all runs, aggregate, and persist when an output dir is set.

    Run r draws every random number from a generator seeded with
    mix_seed(master_seed, r), so its records do not depend on how many
    other runs the experiment has.  A configuration whose experiment
    cannot fit in memory, or an engine that cannot be built, is refused
    before the output directory is made.
    """
    _check_footprint(config)
    _loop()
    out_dir = (
        prepare_output_dir(config.outputs)
        if config.outputs is not None
        else None
    )
    records = _run_stacked(config)
    aggregate = aggregate_runs(records)
    if out_dir is not None:
        persist_experiment(out_dir, records, aggregate)
    return ExperimentResult(
        config=config, run_records=records, aggregate=aggregate
    )


_SWEEP_FIELDS = {"w": "reliability", "h": "rate"}


@dataclass(frozen=True)
class SweepPoint:
    """Final aggregate statistics for one swept parameter value."""

    value: float
    final_mean: float
    final_sd: float


def _with_parameter(config: ExperimentConfig, parameter: str, value: float):
    game = replace(config.game, **{_SWEEP_FIELDS[parameter]: value})
    return replace(config, game=game)


def _subdir_config(
    config: ExperimentConfig, name: str
) -> ExperimentConfig:
    if config.outputs is None:
        return config
    return replace(config, outputs=Path(config.outputs) / name)


def _check_distinct(field: str, values) -> None:
    """Refuse two values that would share an output subdirectory and row label.

    Both are named with ``:g``, so values that format alike would run
    into one directory and print two rows under one label.
    """
    seen = {}
    for value in values:
        label = f"{value:g}"
        if label in seen:
            raise ConfigError(
                f"{field} values {seen[label]!r} and {value!r} both format as {label}", field
            )
        seen[label] = value


def _final_stats(config: ExperimentConfig) -> tuple[float, float]:
    """Run the experiment; its final mean of means and mean sd."""
    aggregate = run_experiment(config).aggregate
    return float(aggregate.mean_of_means[-1]), float(aggregate.mean_sd[-1])


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values,
) -> list[SweepPoint]:
    """Re-run the experiment per parameter value and tabulate the end state.

    ``parameter`` selects the speaker reliability ("w") or the update rate
    ("h").  When the config has an output directory each value writes its
    full experiment into a subdirectory named after the value.  Every
    value's config is built and checked before the first run.
    """
    if not (isinstance(parameter, str) and parameter in _SWEEP_FIELDS):
        raise ConfigError("parameter must be one of 'w' or 'h'", "parameter")
    field = _SWEEP_FIELDS[parameter]
    values = [_real(value, field, closed=field == "reliability") for value in values]
    _check_distinct(field, values)
    subs = [
        _subdir_config(_with_parameter(config, parameter, value), f"{parameter}_{value:g}")
        for value in values
    ]
    return [
        SweepPoint(value, *_final_stats(sub)) for value, sub in zip(values, subs)
    ]


@dataclass(frozen=True)
class ModelComparison:
    """End-state statistics of both update rules at one reliability."""

    reliability: float
    model1_mean: float
    model1_sd: float
    model2_mean: float
    model2_sd: float


def compare_models(
    config: ExperimentConfig, w_values
) -> list[ModelComparison]:
    """Run both update rules across reliabilities and tabulate end states.

    Every config is built and checked before the first run.
    """
    ws = [_real(w, "reliability") for w in w_values]
    _check_distinct("reliability", ws)
    subs = [
        _subdir_config(
            replace(config, game=replace(config.game, reliability=w, model=model)),
            f"model{model}_w_{w:g}",
        )
        for w in ws
        for model in (1, 2)
    ]
    return [
        ModelComparison(w, *_final_stats(first), *_final_stats(second))
        for w, first, second in zip(ws, subs[::2], subs[1::2])
    ]


_PREDICTION_STREAM_BASE = 1 << 32


def _prediction(config: ExperimentConfig, rate: float, n_samples: int, stream: int = 0):
    """The closed-form prediction for ``config``'s game and environment at ``rate``.

    Its target moments are estimated from ``n_samples`` draws of the
    auxiliary stream ``_PREDICTION_STREAM_BASE + stream`` of the master
    seed, which no run ever uses.
    """
    game = config.game
    rng = np.random.default_rng(mix_seed(config.master_seed, _PREDICTION_STREAM_BASE + stream))
    return build_prediction(
        config.env, rate, reliability=game.reliability, model=game.model,
        n_samples=n_samples, rng=rng, labels=game.labels,
    )


def _updates_per_timestep(game: GameConfig) -> float:
    """Mean updates per agent and timestep: n-1 ordered, (n-1)/2 unordered.

    Predictions count one agent's updates; this converts them to timesteps.
    """
    return dialogues_per_timestep(game.n_agents, game.schedule) / game.n_agents


@dataclass(frozen=True)
class ValidationRow:
    """Simulated versus predicted curves for one update rate."""

    rate: float
    times: np.ndarray
    update_steps: np.ndarray
    empirical_mean: np.ndarray
    predicted_mean: np.ndarray
    empirical_variance: np.ndarray
    predicted_variance: np.ndarray
    sup_mean_deviation: float
    sup_variance_deviation: float


def validate_predictions(
    config: ExperimentConfig,
    rate_values,
    n_samples: int = 1_000_000,
) -> list[ValidationRow]:
    """Compare simulated weight curves with their closed-form predictions.

    For each rate the experiment is re-run, ``_prediction`` estimates the
    target moments on the rate's auxiliary stream of the master seed, and
    the closed-form mean and variance curves are started from the
    empirical time-zero moments.  Predictions count per-agent updates, and
    ``_updates_per_timestep`` converts them: timestep t is t * (n_agents -
    1) update steps under the ordered schedule.  Each row reports the
    largest absolute deviation over the recorded timesteps.

    Only the mismatch rule (model 2) updates unconditionally the way the
    closed forms assume, and only the ordered schedule gives every agent
    exactly n-1 updates per timestep, so anything else is rejected; so is
    a per-agent reliability, since the target moments take one value.
    Every rate's config is built and checked before the first run.
    """
    if config.game.model != 2:
        raise ConfigError("prediction validation requires model 2", "model")
    if config.game.schedule != "ordered":
        raise ConfigError(
            "prediction validation requires the ordered schedule", "schedule"
        )
    if isinstance(config.game.reliability, tuple):
        raise ConfigError(
            "prediction validation requires one reliability for all agents", "reliability"
        )
    n_samples = _integer(n_samples, "n_samples", 1)
    rates = [_rate(rate) for rate in rate_values]
    _check_distinct("rate", rates)
    subs = [
        _subdir_config(_with_parameter(config, "h", rate), f"h_{rate:g}")
        for rate in rates
    ]
    rows = []
    for index, (rate, sub) in enumerate(zip(rates, subs)):
        result = run_experiment(sub)
        aggregate = result.aggregate
        prediction = _prediction(config, rate, n_samples, index)
        empirical_mean = aggregate.mean_of_means
        empirical_var = np.mean(np.vstack([rec.sd_weights**2 for rec in result.run_records]), axis=0)
        steps = aggregate.times.astype(np.float64) * _updates_per_timestep(config.game)
        predicted_mean = prediction.mean_at(float(empirical_mean[0]), steps)
        predicted_var = prediction.variance_at(float(empirical_var[0]), steps)
        rows.append(
            ValidationRow(
                rate=rate,
                times=aggregate.times.copy(),
                update_steps=steps,
                empirical_mean=empirical_mean,
                predicted_mean=predicted_mean,
                empirical_variance=empirical_var,
                predicted_variance=predicted_var,
                sup_mean_deviation=float(
                    np.max(np.abs(empirical_mean - predicted_mean))
                ),
                sup_variance_deviation=float(
                    np.max(np.abs(empirical_var - predicted_var))
                ),
            )
        )
    return rows
