"""Command-line front end for simulations, predictions, and sweeps.

The front end only parses: every value it passes on is checked once, by
the library, before any compute.  It checks just its own flags,
``--samples`` and ``--tol``.  Exit codes: 0 on success, 2 for a
``ConfigError`` (a missing or malformed config file, with the offending
line where a file gave the value, any refused value, or a population
whose timestep cannot fit in memory), 3 for I/O failures and for a
compiled loop that cannot be built, loaded or trusted.  Summary output
goes to standard output as ``key=value`` tokens.  Each command's handler
returns its exit code and its curves; under ``--emit-plot-data``, ``main``
writes each curve as a two-column, space-separated ``<command>_<curve>.dat``
file that any plotting tool can read, through the library's one writer.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import EstimationError, NonConvergenceError
from .config import load_config
from .experiment import (
    ExperimentConfig,
    _format,
    _prediction,
    _updates_per_timestep,
    _write_rows,
    compare_models,
    record_times,
    run_experiment,
    sweep,
    validate_predictions,
)
from .engine import EngineError
from .game import ConfigError, _integer


def _parse_float_list(raw: str) -> list[float]:
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a number: {piece!r}"
            ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelgames",
        description=(
            "Simulate populations of agents negotiating dimension weights "
            "through assertion games, and check the runs against "
            "closed-form predictions."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", required=True, help="path to a key=value config file"
    )
    common.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    common.add_argument(
        "--out", default=None, help="directory for CSV and plot-data output"
    )
    common.add_argument(
        "--emit-plot-data",
        action="store_true",
        help="write two-column .dat series next to the CSVs",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="run the configured experiment"
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_pred = sub.add_parser(
        "predict",
        parents=[common],
        help="print closed-form predictions without simulating",
    )
    p_pred.add_argument(
        "--tol",
        type=float,
        default=0.01,
        help="tolerance for convergence-step counts",
    )
    p_pred.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo sample count for target moments",
    )
    p_pred.set_defaults(handler=_cmd_predict)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="re-run the experiment per value"
    )
    p_sweep.add_argument(
        "--param",
        choices=("w", "h"),
        required=True,
        help="which parameter to sweep",
    )
    p_sweep.add_argument(
        "--values",
        type=_parse_float_list,
        required=True,
        help="comma-separated parameter values",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cmp = sub.add_parser(
        "compare",
        parents=[common],
        help="run both updating rules across reliabilities",
    )
    p_cmp.add_argument(
        "--w-values",
        type=_parse_float_list,
        required=True,
        help="comma-separated reliability values",
    )
    p_cmp.set_defaults(handler=_cmd_compare)

    p_val = sub.add_parser(
        "validate",
        parents=[common],
        help="compare simulated curves with predictions per update rate",
    )
    p_val.add_argument(
        "--h-values",
        type=_parse_float_list,
        default=[1e-2, 1e-3],
        help="comma-separated update rates",
    )
    p_val.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo sample count for target moments",
    )
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out is not None:
        config = replace(config, outputs=args.out)
    return config


def _start_moments(config: ExperimentConfig) -> tuple[float, float]:
    """Mean and cross-agent variance of the initial weights.

    Uniform initialisation has mean one half and variance one twelfth;
    a fixed initial weight has no spread.
    """
    init = config.game.weight_init
    if init is None:
        return 0.5, 1.0 / 12.0
    if isinstance(init, tuple):
        arr = np.asarray(init, dtype=np.float64)
        return float(arr.mean()), float(arr.var(ddof=1))
    return float(init), 0.0


def _cmd_simulate(args) -> tuple[int, dict]:
    config = _load(args)
    aggregate = run_experiment(config).aggregate
    print(f"final_mean_lambda={_format(aggregate.mean_of_means[-1])}")
    print(f"final_sd_lambda={_format(aggregate.mean_sd[-1])}")
    times = aggregate.times
    return 0, {"mean": (times, aggregate.mean_of_means), "sd": (times, aggregate.mean_sd)}


def _cmd_predict(args) -> tuple[int, dict]:
    config = _load(args)
    _integer(args.samples, "--samples", 1)
    if not args.tol > 0.0:
        raise ConfigError("--tol must be positive")
    try:
        prediction = _prediction(config, config.game.rate, args.samples)
    except (EstimationError, NonConvergenceError) as err:
        print(f"prediction failed: {err}", file=sys.stderr)
        return 1, {}
    start_mean, start_var = _start_moments(config)
    step_mean = prediction.steps_to_mean(start_mean, args.tol)
    step_var = prediction.steps_to_variance(start_var, args.tol)
    per_timestep = _updates_per_timestep(config.game)

    print(f"p_plus={_format(prediction.positive_share)}")
    print(f"target_mean={_format(prediction.target_mean)}")
    print(f"target_variance={_format(prediction.target_variance)}")
    print(f"resting_mean={_format(prediction.resting_mean)}")
    print(f"resting_variance={_format(prediction.resting_variance)}")
    print(f"tol={_format(args.tol)}")
    print(f"mean_convergence_updates={step_mean}")
    print(f"mean_convergence_timesteps={math.ceil(step_mean / per_timestep)}")
    print(f"variance_convergence_updates={step_var}")
    print(
        f"variance_convergence_timesteps={math.ceil(step_var / per_timestep)}"
    )
    if not args.emit_plot_data:  # the curves cost time and memory at many timesteps
        return 0, {}
    times = record_times(config.game.timesteps, config.record_every)
    steps = times.astype(np.float64) * per_timestep
    return 0, {
        "mean": (times, prediction.mean_at(start_mean, steps)),
        "variance": (times, prediction.variance_at(start_var, steps)),
    }


def _cmd_sweep(args) -> tuple[int, dict]:
    config = _load(args)
    points = sweep(config, args.param, args.values)
    for point in points:
        print(
            f"{args.param}={point.value:g} "
            f"final_mean_lambda={_format(point.final_mean)} "
            f"final_sd_lambda={_format(point.final_sd)}"
        )
    values = [p.value for p in points]
    return 0, {
        "mean": (values, [p.final_mean for p in points]),
        "sd": (values, [p.final_sd for p in points]),
    }


def _cmd_compare(args) -> tuple[int, dict]:
    config = _load(args)
    rows = compare_models(config, args.w_values)
    for row in rows:
        print(
            f"w={row.reliability:g} "
            f"model1_mean={_format(row.model1_mean)} "
            f"model1_sd={_format(row.model1_sd)} "
            f"model2_mean={_format(row.model2_mean)} "
            f"model2_sd={_format(row.model2_sd)}"
        )
    ws = [row.reliability for row in rows]
    return 0, {
        f"model{model}_{stat}": (ws, [getattr(row, f"model{model}_{stat}") for row in rows])
        for model in (1, 2)
        for stat in ("mean", "sd")
    }


def _cmd_validate(args) -> tuple[int, dict]:
    config = _load(args)
    _integer(args.samples, "--samples", 1)
    rows = validate_predictions(config, args.h_values, n_samples=args.samples)
    curves = {}
    for row in rows:
        print(
            f"h={row.rate:g} "
            f"sup_mean_deviation={_format(row.sup_mean_deviation)} "
            f"sup_variance_deviation={_format(row.sup_variance_deviation)}"
        )
        curves[f"h{row.rate:g}_sim_mean"] = (row.times, row.empirical_mean)
        curves[f"h{row.rate:g}_pred_mean"] = (row.times, row.predicted_mean)
    return 0, curves


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, curves = args.handler(args)
        if args.emit_plot_data and curves:
            directory = Path(args.out if args.out is not None else ".")
            directory.mkdir(parents=True, exist_ok=True)
            for curve, (xs, ys) in curves.items():
                _write_rows(
                    directory / f"{args.command}_{curve}.dat",
                    np.asarray((xs, ys), dtype=np.float64).T.tolist(),
                    sep=" ",
                )
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except EngineError as err:
        print(f"engine error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
