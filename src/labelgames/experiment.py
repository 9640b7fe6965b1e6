"""Replicated, seeded experiment runs with statistics and CSV persistence.

A single experiment repeats the same game configuration across independent
runs, each seeded by mixing a master seed with the run id, records the
population mean and cross-agent standard deviation of the weights over
time, and aggregates across runs.  The runs play on up to one worker per
CPU the process may use: each worker takes the next run and plays it in
one C call (``engine._RunPlayer``, around ``play_run``) per block of
recorded timesteps, and ctypes releases the GIL for each call, so the
workers' runs play at once.  The kernel steps the run's own ``PCG64``
generator in C, drawing every timestep's schedule and observations as a
Python run would draw them, plays the dialogues and copies the weights
out at each recorded timestep.  Each block of snapshots is reduced to
its statistics, straight into the run's rows of the run-by-time tables
of means and sds, before the worker's next block or run, so memory holds
per worker one run's shuffled pairs, 4 bytes per dialogue, and one
block, and beside them the tables and every run's final weights.  The
result is those tables, and the CSV files are formatted from their rows a
chunk of lines at a time, so writing them takes no more memory.  The
test suite checks every run's rows bit for bit against a scalar
specification of the whole run, and against the same experiment played
on other numbers of workers.  Identical configuration and master seed
give byte-identical output files.
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
import threading
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
    """One run's rows of an ``ExperimentResult``'s tables, as views; only ``run_records`` builds one."""

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
    """Run r's mean and sd at each of ``times`` in row r of ``means`` and ``sds``, its final weights in ``finals``."""

    config: ExperimentConfig
    times: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    finals: np.ndarray
    aggregate: AggregateRecord

    @property
    def run_records(self) -> list[RunRecord]:
        """Each run's ``RunRecord``, built on request as row views of the tables."""
        return [RunRecord(r, self.times, self.means[r], self.sds[r], self.finals[r]) for r in range(len(self.finals))]


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


def _play_runs(config: ExperimentConfig, workers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every run played by one of ``workers``, each run in one C call per block of recorded times.

    Run r draws from a generator seeded with mix_seed(master_seed, r): its
    initial state, then, inside ``play_run``, every timestep's schedule and
    observations.  The kernel snapshots the weights at each recorded time,
    and each block of snapshots is reduced by ``_population_stats`` into
    row r of the (runs, recorded) mean and sd tables before the next block.
    Each worker owns a ``_RunPlayer`` and takes the next run until none is
    left; the calling thread is the first worker, and one thread is
    started for each other.  The first exception a worker raises stops
    every worker from taking another run, and is raised again once all
    have stopped; each worker finishes the run it holds.  Returns the
    recorded times, both tables and the final weights by run.
    """
    game = config.game
    times = record_times(game.timesteps, config.record_every)
    rows = _block_rows(config)
    play_run = _loop().play_run
    means, sds = np.empty((config.runs, times.size)), np.empty((config.runs, times.size))
    finals = np.empty((config.runs, game.n_agents))
    runs, failures, lock = iter(range(config.runs)), [], threading.Lock()

    def work() -> None:
        try:
            player = _RunPlayer(play_run, game, config.env.intervals, rows)
            while True:
                with lock:
                    r = None if failures else next(runs, None)
                if r is None:
                    return
                rng = np.random.default_rng(mix_seed(config.master_seed, r))
                weights, rels = _initial_state(game, rng)
                played = 0
                for start in range(0, times.size, rows):
                    block = times[start : start + rows]
                    stats = _population_stats(player(rng, weights, rels, played, block))
                    means[r, start : start + rows], sds[r, start : start + rows] = stats
                    played = int(block[-1])
                finals[r] = weights
        except BaseException as err:
            with lock:
                failures.append(err)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return times, means, sds, finals


_FLOAT = "%.9g"


def _format(value: float) -> str:
    """A float as every output file and summary prints it: nine significant digits."""
    return _FLOAT % value


# Lines one %-operation formats: about 100 B of cells and text each, so a
# chunk holds about 100 KB, below what the runs' own timesteps hold.
_CHUNK_LINES = 1024


def _write_rows(file, columns, sep: str = ",") -> None:
    """Write the rows of equal-length ``columns`` into the open text ``file``, one line each.

    This is the one file format: the CSVs and every ``.dat`` plot series.
    A line is the row's cells joined by ``sep`` and ends with a newline:
    a float column's cells at nine significant digits, as ``_format``
    prints them, an integer column's as they are.  The line's %-format is
    built once from the columns' dtypes, and each chunk of
    ``_CHUNK_LINES`` rows is one %-operation over the chunk's cells,
    interleaved row by row, so only one chunk of text is ever held.
    """
    line = sep.join(_FLOAT if column.dtype.kind == "f" else "%d" for column in columns) + "\n"
    width = len(columns)
    for start in range(0, len(columns[0]), _CHUNK_LINES):
        cells = [column[start : start + _CHUNK_LINES].tolist() for column in columns]
        rows = len(cells[0])
        flat = [None] * (rows * width)
        for offset, column in enumerate(cells):
            flat[offset::width] = column
        file.write((line * rows) % tuple(flat))


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


def persist_experiment(out_dir: str | Path, result: ExperimentResult) -> None:
    """Write each run's CSV, the aggregate CSV and every final weight, from the tables' rows.

    Files are opened by ``str`` paths: a ``Path`` per run file would intern
    each name, and past about 10,000 runs that resizes the interpreter's
    table of interned strings.  ``final_lambdas.csv`` takes the runs a
    chunk of lines at a time, so its run and agent ids add no memory per line.
    """
    times, aggregate = result.times, result.aggregate
    for r, (means, sds) in enumerate(zip(result.means, result.sds)):
        with open(os.path.join(out_dir, f"run_{r:03d}.csv"), "w") as file:
            file.write(RUN_CSV_HEADER + "\n")
            _write_rows(file, (times, means, sds))
    with open(os.path.join(out_dir, "aggregate.csv"), "w") as file:
        file.write(AGGREGATE_CSV_HEADER + "\n")
        _write_rows(file, (aggregate.times, aggregate.mean_of_means, aggregate.sem_of_means, aggregate.mean_sd))
    with open(os.path.join(out_dir, "final_lambdas.csv"), "w") as file:
        file.write(FINAL_CSV_HEADER + "\n")
        agents = result.finals.shape[1]
        step = max(1, _CHUNK_LINES // agents)
        for start in range(0, len(result.finals), step):
            finals = result.finals[start : start + step]
            runs = np.arange(start, start + len(finals))
            _write_rows(file, (np.repeat(runs, agents), np.tile(np.arange(agents), len(finals)), finals.ravel()))


class FootprintError(ConfigError):
    """A configuration whose experiment cannot fit in physical memory."""


# Bytes an experiment keeps beyond its workers' timesteps, with or without
# its files (written a chunk at a time): per run and recorded timestep (the mean
# and sd tables, and one temporary as large as one of them: np.std's for the
# aggregate or validate_predictions' squared sds), per run (Python's
# transient objects while the runs play and their files are written), per
# run and agent (the final weight) and per recorded timestep (the aggregate,
# the predicted curves).  The largest tracemalloc peaks of run_experiment,
# with and without outputs, and of validate_predictions, at 2-200 agents,
# 1-20,000 runs and 2-400,001 recorded timesteps, plus a quarter; they
# still hold with two workers' timesteps counted.
_KEPT_BYTES = (31, 55, 11, 94)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_footprint(config: ExperimentConfig) -> int:
    """The number of workers to play the runs on; refuses an experiment that would not fit in physical memory.

    Each worker plays one run at a time, holding one timestep's draws at
    about ``_STACK_BYTES_PER_DIALOGUE`` bytes per dialogue, one block of
    weight snapshots and the same again for ``_population_stats``' standard
    deviation, beside every run's series and final weights, which the
    workers share.  There is one worker per CPU the process may use (see
    ``_cpus``), but no more than runs, and no more than fit in physical
    memory.  Raises FootprintError when one worker does not fit.
    """
    game, runs, recorded = config.game, config.runs, _recorded(config)
    per_record, per_run, per_agent, per_time = _KEPT_BYTES
    dialogues = dialogues_per_timestep(game.n_agents, game.schedule)
    per_worker = dialogues * _STACK_BYTES_PER_DIALOGUE + 2 * _block_rows(config) * game.n_agents * 8
    kept = recorded * per_time + runs * (recorded * per_record + per_run + game.n_agents * per_agent)
    need, have = kept + per_worker, _physical_memory()
    if have is not None and need > have:
        raise FootprintError(
            f"{runs} runs of {game.n_agents} agents, each playing {dialogues} dialogues per timestep and recording "
            f"{recorded} timesteps, need about {need / 2**30:.1f} GiB; physical memory is {have / 2**30:.1f} GiB"
        )
    workers = min(runs, _cpus())
    return workers if have is None else min(workers, (have - kept) // per_worker)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute all runs, aggregate, and persist when an output dir is set.

    Run r draws every random number from a generator seeded with
    mix_seed(master_seed, r), so its rows of the tables do not depend on
    how many other runs the experiment has, nor on how many workers play
    them; the aggregate reduces the tables over runs.  A configuration whose experiment cannot fit in
    memory, or an engine that cannot be built, is refused before the
    output directory is made.
    """
    workers = _check_footprint(config)
    _loop()
    out_dir = None if config.outputs is None else prepare_output_dir(config.outputs)
    times, means, sds, finals = _play_runs(config, workers)
    sem = np.std(means, axis=0, ddof=1) / np.sqrt(config.runs) if config.runs > 1 else np.full(times.size, np.nan)
    aggregate = AggregateRecord(times, means.mean(axis=0), sem, sds.mean(axis=0))
    result = ExperimentResult(config, times, means, sds, finals, aggregate)
    if out_dir is not None:
        persist_experiment(out_dir, result)
    return result


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


def _prepare(subs) -> None:
    """Refuse what ``run_experiment`` would refuse for any of ``subs``, before the first one runs.

    In ``run_experiment``'s order: every footprint, the engine, then every
    output directory, so a bad later subdirectory stops the command before
    an earlier one has written a file.
    """
    for sub in subs:
        _check_footprint(sub)
    _loop()
    for sub in subs:
        if sub.outputs is not None:
            prepare_output_dir(sub.outputs)


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
    value's config is built and checked, and its subdirectory made, before
    the first run.
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
    _prepare(subs)
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

    Every config is built and checked, and its subdirectory made, before
    the first run.
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
    _prepare(subs)
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
    Every rate's config is built and checked, its subdirectory made, and
    then its prediction built, before the first run, so a prediction that
    cannot be estimated costs no run.
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
    _prepare(subs)
    predictions = [_prediction(config, rate, n_samples, index) for index, rate in enumerate(rates)]
    rows = []
    for rate, sub, prediction in zip(rates, subs, predictions):
        result = run_experiment(sub)
        mean, var = result.aggregate.mean_of_means, np.mean(result.sds**2, axis=0)
        steps = result.times.astype(np.float64) * _updates_per_timestep(config.game)
        predicted_mean = prediction.mean_at(float(mean[0]), steps)
        predicted_var = prediction.variance_at(float(var[0]), steps)
        rows.append(ValidationRow(
            rate, result.times.copy(), steps, mean, predicted_mean, var, predicted_var,
            float(np.max(np.abs(mean - predicted_mean))), float(np.max(np.abs(var - predicted_var))),
        ))
    return rows
