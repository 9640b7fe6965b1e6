"""Replicated, seeded experiment runs with statistics and CSV persistence.

A single experiment repeats the same game configuration across independent
runs, each seeded by mixing a master seed with the run id, records the
population mean and cross-agent standard deviation of the weights over
time, and aggregates across runs.  All runs advance together on the
lane-stacked kernel ``game._stacked_timestep``, one timestep at a time;
``run_single`` replays one run dialogue by dialogue and gives bit-identical
records.  Identical configuration and master seed give byte-identical
output files.

Sweeps, model comparisons, and prediction validation are thin layers that
re-run the experiment with one field changed and tabulate the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import Environment, build_prediction
from .game import (
    GameConfig,
    _apply_sequential,
    _draw_schedule,
    _initial_state,
    _stacked_timestep,
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
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must fit in 64 bits")
    if stream < 0:
        raise ValueError("stream must be non-negative")
    z = (master_seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
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
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.record_every > self.game.timesteps:
            raise ValueError("record_every cannot exceed timesteps")


def record_times(timesteps: int, record_every: int) -> np.ndarray:
    """Recorded timesteps: zero, every multiple of the interval, the end."""
    times = {0, timesteps}
    times.update(range(record_every, timesteps + 1, record_every))
    return np.asarray(sorted(times), dtype=np.int64)


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
    """Per-row mean and cross-agent standard deviation of a (runs, n) array."""
    return weights.mean(axis=1), weights.std(axis=1, ddof=1)


def _records(run_ids, times, stats, final_weights) -> list[RunRecord]:
    """One record per run from the (means, sds) rows of each recorded timestep."""
    means, sds = (np.column_stack(rows) for rows in zip(*stats))
    return [
        RunRecord(run_id, times, means[r], sds[r], final_weights[r].copy())
        for r, run_id in enumerate(run_ids)
    ]


def run_single(config: ExperimentConfig, run_id: int) -> RunRecord:
    """Execute one run dialogue by dialogue through ``_apply_sequential``.

    This is the reference the stacked engine is measured against; both
    must produce bit-identical records for the same configuration.
    """
    game = config.game
    rng = np.random.default_rng(mix_seed(config.master_seed, run_id))
    weights, rels = _initial_state(game, rng)
    times = record_times(game.timesteps, config.record_every)
    wanted = set(int(t) for t in times)

    stats = [_population_stats(weights[np.newaxis])]
    for t in range(1, game.timesteps + 1):
        speakers, listeners = _draw_schedule(game.n_agents, game.schedule, rng)
        xs = config.env.sample_batch(rng, speakers.size)
        weights = _apply_sequential(
            weights, rels, game.labels, xs, speakers, listeners, game.rate, game.model
        )
        if t in wanted:
            stats.append(_population_stats(weights[np.newaxis]))
    (record,) = _records([run_id], times, stats, weights[np.newaxis])
    return record


def _run_stacked(config: ExperimentConfig) -> list[RunRecord]:
    """All runs advanced together, lane-striped, one timestep at a time.

    The motivation is plumbing cost: with few agents a timestep is a
    handful of tiny array operations, and stacking the replicate runs
    into one state vector amortises that overhead across the experiment
    without changing a single bit of any run's results.
    """
    game = config.game
    env = config.env
    n = game.n_agents
    runs = config.runs
    per_run = dialogues_per_timestep(n, game.schedule)
    rngs = [
        np.random.default_rng(mix_seed(config.master_seed, r))
        for r in range(runs)
    ]
    states = [_initial_state(game, rng) for rng in rngs]
    weights = np.concatenate([w for w, _ in states])
    rels = np.concatenate([r for _, r in states])

    times = record_times(game.timesteps, config.record_every)
    wanted = set(int(t) for t in times)
    stats = [_population_stats(weights.reshape(runs, n))]
    speakers = np.empty(runs * per_run, dtype=np.int64)
    listeners = np.empty(runs * per_run, dtype=np.int64)
    xs = np.empty((runs * per_run, 2))
    for t in range(1, game.timesteps + 1):
        for r in range(runs):
            s, l = _draw_schedule(n, game.schedule, rngs[r])
            block = slice(r * per_run, (r + 1) * per_run)
            speakers[block] = s + r * n
            listeners[block] = l + r * n
            xs[block] = env.sample_batch(rngs[r], per_run)
        weights = _stacked_timestep(
            weights,
            rels,
            game.labels,
            xs,
            speakers,
            listeners,
            game.rate,
            game.model,
            game.schedule,
            runs,
            n,
        )
        if t in wanted:
            stats.append(_population_stats(weights.reshape(runs, n)))
    return _records(range(runs), times, stats, weights.reshape(runs, n))


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


def write_run_csv(path: Path, record: RunRecord) -> None:
    lines = [RUN_CSV_HEADER]
    for t, mean, sd in zip(
        record.times, record.mean_weights, record.sd_weights
    ):
        lines.append(f"{int(t)},{_format(mean)},{_format(sd)}")
    path.write_text("\n".join(lines) + "\n")


def write_aggregate_csv(path: Path, aggregate: AggregateRecord) -> None:
    lines = [AGGREGATE_CSV_HEADER]
    for t, mean, sem, sd in zip(
        aggregate.times,
        aggregate.mean_of_means,
        aggregate.sem_of_means,
        aggregate.mean_sd,
    ):
        lines.append(f"{int(t)},{_format(mean)},{_format(sem)},{_format(sd)}")
    path.write_text("\n".join(lines) + "\n")


def write_final_csv(path: Path, records: list[RunRecord]) -> None:
    lines = [FINAL_CSV_HEADER]
    for record in sorted(records, key=lambda rec: rec.run_id):
        for agent_id, weight in enumerate(record.final_weights):
            lines.append(f"{record.run_id},{agent_id},{_format(weight)}")
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
        write_run_csv(out_dir / f"run_{record.run_id:03d}.csv", record)
    write_aggregate_csv(out_dir / "aggregate.csv", aggregate)
    write_final_csv(out_dir / "final_lambdas.csv", records)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute all runs, aggregate, and persist when an output dir is set.

    Run r draws every random number from a generator seeded with
    mix_seed(master_seed, r), so its records do not depend on how many
    other runs share the stacked engine.
    """
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


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values,
) -> list[SweepPoint]:
    """Re-run the experiment per parameter value and tabulate the end state.

    ``parameter`` selects the speaker reliability ("w") or the update rate
    ("h").  When the config has an output directory each value writes its
    full experiment into a subdirectory named after the value.
    """
    if parameter not in _SWEEP_FIELDS:
        raise ValueError("parameter must be one of 'w' or 'h'")
    points = []
    for value in values:
        sub = _with_parameter(config, parameter, float(value))
        sub = _subdir_config(sub, f"{parameter}_{float(value):g}")
        result = run_experiment(sub)
        points.append(
            SweepPoint(
                value=float(value),
                final_mean=float(result.aggregate.mean_of_means[-1]),
                final_sd=float(result.aggregate.mean_sd[-1]),
            )
        )
    return points


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
    """Run both update rules across reliabilities and tabulate end states."""
    rows = []
    for w in w_values:
        stats = {}
        for model in (1, 2):
            game = replace(config.game, reliability=float(w), model=model)
            sub = replace(config, game=game)
            sub = _subdir_config(sub, f"model{model}_w_{float(w):g}")
            result = run_experiment(sub)
            stats[model] = (
                float(result.aggregate.mean_of_means[-1]),
                float(result.aggregate.mean_sd[-1]),
            )
        rows.append(
            ModelComparison(
                reliability=float(w),
                model1_mean=stats[1][0],
                model1_sd=stats[1][1],
                model2_mean=stats[2][0],
                model2_sd=stats[2][1],
            )
        )
    return rows


_PREDICTION_STREAM_BASE = 1 << 32


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

    For each rate the experiment is re-run, the target moments are
    estimated by Monte Carlo on an auxiliary stream of the master seed,
    and the closed-form mean and variance curves are started from the
    empirical time-zero moments.  Predictions count per-agent updates, so
    timestep t maps to t * (n_agents - 1) update steps.  Each row reports
    the largest absolute deviation over the recorded timesteps.

    Only the mismatch rule (model 2) updates unconditionally the way the
    closed forms assume, and only the ordered schedule gives every agent
    exactly n-1 updates per timestep, so anything else is rejected; so is
    a per-agent reliability, since the target moments take one value.
    """
    if config.game.model != 2:
        raise ValueError("prediction validation requires model 2")
    if config.game.schedule != "ordered":
        raise ValueError("prediction validation requires the ordered schedule")
    if isinstance(config.game.reliability, tuple):
        raise ValueError(
            "prediction validation requires one reliability for all agents"
        )
    rows = []
    for index, rate in enumerate(rate_values):
        sub = _with_parameter(config, "h", float(rate))
        sub = _subdir_config(sub, f"h_{float(rate):g}")
        result = run_experiment(sub)
        aggregate = result.aggregate

        prediction = build_prediction(
            config.env,
            float(rate),
            reliability=config.game.reliability,
            model=2,
            n_samples=n_samples,
            rng=np.random.default_rng(
                mix_seed(config.master_seed, _PREDICTION_STREAM_BASE + index)
            ),
            labels=config.game.labels,
        )

        empirical_mean = aggregate.mean_of_means
        empirical_var = np.mean(
            np.vstack(
                [rec.sd_weights**2 for rec in result.run_records]
            ),
            axis=0,
        )
        steps = aggregate.times.astype(np.float64) * (config.game.n_agents - 1)
        predicted_mean = prediction.mean_at(float(empirical_mean[0]), steps)
        predicted_var = prediction.variance_at(float(empirical_var[0]), steps)
        rows.append(
            ValidationRow(
                rate=float(rate),
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
