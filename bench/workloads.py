"""The four benchmark workloads: inputs from a seed, the timed calls, the checks.

Each workload drives labelgames only through calls a user makes: the
``simulate`` command of the CLI, ``run_experiment``, ``build_prediction``
and ``positive_update_probability_mc``.  Calls go through the module
attribute (``experiment.run_experiment``, not a name imported here), so the
traced run's hooks see them.

A workload object is built from a seed, a shape and a scratch directory.
``prepare`` is the set-up, ``run`` is the timed work and returns one output
per operation (an exception for an operation that raised), and
``check_op`` turns one output into a list of problems plus a digest of its
bytes.  ``verdicts`` compares those digests with the reference digests in
``golden.json``, keeping a digest mismatch apart from a failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from labelgames import analysis, cli, experiment, game

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Criterion 1's environment: dimension one free, dimension two on the lower half.
ENV_HALF = ((0.0, 1.0), (0.0, 0.5))
# The 1000-agent validation environment of criteria 4 to 6.
ENV_BAND = ((0.25, 0.75), (0.0, 0.5))

SHAPES = {
    "full": {
        "replicates": {"agents": 10, "runs": 25, "timesteps": 2000},
        "crowd": {"agents": 1000, "runs": 1, "timesteps": 15},
        "boundary": {"agents": 10, "runs": 5, "timesteps": 100},
        "predict": {"boxes": 12, "samples": 1_000_000},
    },
    "smoke": {
        "replicates": {"agents": 10, "runs": 3, "timesteps": 400},
        "crowd": {"agents": 60, "runs": 1, "timesteps": 15},
        "boundary": {"agents": 10, "runs": 2, "timesteps": 4},
        "predict": {"boxes": 3, "samples": 20_000},
    },
}


def digest(*chunks: bytes) -> str:
    """First 16 hex digits of the SHA-256 of the length-prefixed chunks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()[:16]


def _attempt(call):
    try:
        return call()
    except Exception as err:  # an operation that raised is a failed operation
        return err


class _Simulation:
    """Shared shape bookkeeping of the three population workloads."""

    def __init__(self, seed: int, shape: dict, workdir: Path):
        self.seed = seed
        self.n = shape["agents"]
        self.runs = shape["runs"]
        self.timesteps = shape["timesteps"]
        self.workdir = workdir

    def dialogues_per_timestep(self) -> int:
        return self.runs * self.n * (self.n - 1)

    def units(self) -> int:
        return self.timesteps * self.dialogues_per_timestep()

    def describe(self) -> str:
        return (
            f"{self.n} agents x {self.runs} runs x {self.timesteps} timesteps, "
            f"{self.units()} dialogues per repetition"
        )


def _series_digest(records) -> str:
    chunks = []
    for rec in records:
        chunks += [
            np.ascontiguousarray(rec.final_weights, dtype="<f8").tobytes(),
            np.ascontiguousarray(rec.mean_weights, dtype="<f8").tobytes(),
            np.ascontiguousarray(rec.sd_weights, dtype="<f8").tobytes(),
        ]
    return digest(*chunks)


class Replicates(_Simulation):
    """The criterion-1 replicate experiment through ``labelgames simulate``."""

    name = "replicates"
    CONFIG = (
        "# criterion 1: model 1, ordered schedule, fully reliable speakers\n"
        "agents = {agents}\n"
        "runs = {runs}\n"
        "timesteps = {timesteps}\n"
        "h = 0.001\n"
        "w = 1\n"
        "model = 1\n"
        "schedule = ordered\n"
        "seed = {seed}\n"
        "[env]\n"
        "x1 = uniform(0, 1)\n"
        "x2 = uniform(0, 0.5)\n"
    )

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "replicates.cfg"
        self.out_dir = self.workdir / "out"
        self.config_path.write_text(
            self.CONFIG.format(
                agents=self.n, runs=self.runs, timesteps=self.timesteps,
                seed=self.seed,
            )
        )

    def run(self) -> list:
        def simulate():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(
                    ["simulate", "--config", str(self.config_path),
                     "--out", str(self.out_dir)]
                )
            return code, printed.getvalue()

        return [_attempt(simulate)]

    def expected_files(self) -> list[str]:
        names = [f"run_{r:03d}.csv" for r in range(self.runs)]
        return sorted(names + ["aggregate.csv", "final_lambdas.csv"])

    def check_op(self, index: int, output) -> tuple[list[str], str, dict]:
        code, printed = output
        problems = []
        if code != 0:
            problems.append(f"simulate exited with {code}")
        present = sorted(p.name for p in self.out_dir.iterdir())
        if present != self.expected_files():
            problems.append(f"expected {len(self.expected_files())} CSV files, found {present}")
            return problems, "", {}
        data = {name: (self.out_dir / name).read_bytes() for name in present}
        files = {name: digest(blob) for name, blob in data.items()}
        whole = digest(*(name.encode() + b"\0" + data[name] for name in present))

        rows = data["aggregate.csv"].decode().splitlines()
        try:
            last = rows[-1].split(",")
            final_t, mean, sd = int(last[0]), float(last[1]), float(last[3])
        except (IndexError, ValueError):
            problems.append(f"unreadable aggregate row {rows[-1:]!r}")
            return problems, whole, files
        if final_t != self.timesteps or len(rows) != self.timesteps + 2:
            problems.append(f"aggregate.csv has {len(rows)} lines ending at t={final_t}")
        if not 0.47 <= mean <= 0.53:
            problems.append(f"final mean {mean} outside [0.47, 0.53]")
        if not sd <= 0.05:
            problems.append(f"final sd {sd} above 0.05")
        said = dict(
            line.split("=", 1) for line in printed.splitlines() if "=" in line
        )
        if said.get("final_mean_lambda") != last[1] or said.get("final_sd_lambda") != last[3]:
            problems.append(f"printed summary {said} disagrees with aggregate.csv")

        finals = data["final_lambdas.csv"].decode().splitlines()[1:]
        weights = [float(line.split(",")[2]) for line in finals]
        if len(weights) != self.runs * self.n:
            problems.append(f"final_lambdas.csv has {len(weights)} rows")
        if not all(0.0 <= w <= 1.0 for w in weights):
            problems.append("final_lambdas.csv holds a weight outside [0, 1]")
        return problems, whole, files


class Crowd(_Simulation):
    """One 1000-agent, model-2 run: big arrays, almost no per-call plumbing."""

    name = "crowd"

    def prepare(self) -> None:
        self.env = analysis.Environment(ENV_BAND)
        self.config = experiment.ExperimentConfig(
            game=game.GameConfig(
                n_agents=self.n, timesteps=self.timesteps, rate=1e-2,
                model=2, reliability=1.0, schedule="ordered",
            ),
            env=self.env,
            runs=self.runs,
            master_seed=self.seed,
        )

    def run(self) -> list:
        return [_attempt(lambda: experiment.run_experiment(self.config))]

    def check_op(self, index: int, result) -> tuple[list[str], str, dict]:
        problems = _weight_problems(result, self.runs, self.n)
        # The steady-state mean of criterion 4: E(target) by Monte Carlo.
        moments = analysis.estimate_target_moments(
            self.env, reliability=1.0, model=2, n_samples=1 << 18,
            rng=np.random.default_rng([self.seed, 1]),
        )
        final_mean = float(result.aggregate.mean_of_means[-1])
        if not abs(final_mean - moments.mean) <= 0.02:
            problems.append(
                f"final mean {final_mean} is not within 0.02 of the "
                f"predicted target mean {moments.mean}"
            )
        return problems, _series_digest(result.run_records), {}


class Boundary(_Simulation):
    """Every weight starts, and stays, exactly at 1: the sequential fallback."""

    name = "boundary"

    def prepare(self) -> None:
        self.config = experiment.ExperimentConfig(
            game=game.GameConfig(
                n_agents=self.n, timesteps=self.timesteps, rate=1e-3,
                model=1, reliability=1.0, weight_init=1.0, schedule="ordered",
            ),
            env=analysis.Environment(ENV_HALF),
            runs=self.runs,
            master_seed=self.seed,
        )

    def run(self) -> list:
        return [_attempt(lambda: experiment.run_experiment(self.config))]

    def check_op(self, index: int, result) -> tuple[list[str], str, dict]:
        problems = _weight_problems(result, self.runs, self.n)
        # With x2 below one half every implied target clamps to 1, so a
        # weight of exactly 1 never moves.
        for rec in result.run_records:
            if not (
                np.all(rec.final_weights == 1.0)
                and np.all(rec.mean_weights == 1.0)
                and np.all(rec.sd_weights == 0.0)
            ):
                problems.append(f"run {rec.run_id} left the weight 1")
        return problems, _series_digest(result.run_records), {}


def _weight_problems(result, runs: int, n: int) -> list[str]:
    records = result.run_records
    if len(records) != runs:
        return [f"{len(records)} run records for {runs} runs"]
    problems = []
    for rec in records:
        w = rec.final_weights
        if w.shape != (n,) or not np.all((w >= 0.0) & (w <= 1.0)):
            problems.append(f"run {rec.run_id}: final weights malformed or outside [0, 1]")
    return problems


class Predict:
    """Closed-form and Monte Carlo predictions over a seeded grid of boxes.

    Boxes follow criterion 3's style but keep every side at least 0.2 long
    with its low end at most 0.6, so each box overlaps the square
    [0.1, 0.9]^2 where any listener weight fits an assertion at
    reliability 0.9; the model-1 fixed point therefore always has
    updating samples.
    """

    name = "predict"
    RELIABILITY = 0.9
    RATE = 1e-3

    def __init__(self, seed: int, shape: dict, workdir: Path):
        self.seed = seed
        self.boxes = shape["boxes"]
        self.samples = shape["samples"]

    def prepare(self) -> None:
        seeds = np.random.SeedSequence(self.seed).spawn(self.boxes + 1)
        geometry = np.random.default_rng(seeds[0])
        self.envs = []
        for _ in range(self.boxes):
            spans = []
            for _ in range(2):
                lo = float(geometry.uniform(0.0, 0.6))
                hi = float(geometry.uniform(lo + 0.2, 1.0))
                spans.append((lo, hi))
            self.envs.append(analysis.Environment(tuple(spans)))
        self.rngs = [
            [np.random.default_rng(s) for s in box_seed.spawn(3)]
            for box_seed in seeds[1:]
        ]

    def units(self) -> int:
        return 3 * self.boxes * self.samples

    def dialogues_per_timestep(self) -> int:
        return 0

    def describe(self) -> str:
        return (
            f"{self.boxes} boxes x 3 estimates x {self.samples} samples, "
            f"{self.units()} Monte Carlo samples per repetition"
        )

    def run(self) -> list:
        outputs = []
        for env, (g1, g2, g3) in zip(self.envs, self.rngs):
            def box(env=env, g1=g1, g2=g2, g3=g3):
                kw = dict(reliability=self.RELIABILITY, n_samples=self.samples)
                return (
                    analysis.build_prediction(env, self.RATE, model=1, rng=g1, **kw),
                    analysis.build_prediction(env, self.RATE, model=2, rng=g2, **kw),
                    analysis.positive_update_probability_mc(env, self.samples, g3),
                )

            outputs.append(_attempt(box))
        return outputs

    def check_op(self, index: int, output) -> tuple[list[str], str, dict]:
        p1, p2, (estimate, se) = output
        problems = []
        share = p1.positive_share
        if p2.positive_share != share or not 0.0 <= share <= 1.0:
            problems.append(f"exact shares {share} and {p2.positive_share} disagree")
        # Criterion 3 allows 3 se for one box; with a dozen boxes per
        # repetition and many repetitions that gate would fail by chance
        # every few runs, so each box gets 5 se (a false alarm per box of
        # 6e-7).  1e-9 covers boxes inside one region, where se is zero.
        if not abs(share - estimate) <= 5.0 * se + 1e-9:
            problems.append(f"exact share {share} not within 5 se of {estimate} +- {se}")
        for p in (p1, p2):
            fields = (p.target_mean, p.target_variance, p.resting_mean, p.resting_variance)
            if not all(math.isfinite(v) for v in fields):
                problems.append(f"model {p.model}: non-finite moments {fields}")
            elif not (0.0 <= p.target_mean <= 1.0 and p.target_variance >= 0.0):
                problems.append(f"model {p.model}: moments {fields} out of range")
            if not 1 <= p.sample_count <= self.samples:
                problems.append(f"model {p.model}: sample count {p.sample_count}")
        values = [
            share, estimate, se,
            p1.target_mean, p1.target_variance, p1.resting_variance, p1.sample_count,
            p2.target_mean, p2.target_variance, p2.resting_variance, p2.sample_count,
        ]
        return problems, digest(repr(values).encode()), {}


WORKLOADS = {cls.name: cls for cls in (Replicates, Crowd, Boundary, Predict)}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def verdicts(workload, outputs: list, golden: dict, size: str) -> list[dict]:
    """One verdict per operation: ok, raised, check (a wrong answer) or golden.

    ``golden`` is a reference digest mismatch with every check passing, so
    a change that declares new output bytes can be told apart from a wrong
    answer.  Seeds without a reference digest get checks only.
    """
    reference = golden.get(size, {}).get(workload.name, {}).get(str(workload.seed))
    files = golden.get("files", {}).get(size, {}).get(workload.name, {}).get(str(workload.seed), {})
    result = []
    for index, output in enumerate(outputs):
        if isinstance(output, Exception):
            result.append({"status": "raised", "detail": f"{type(output).__name__}: {output}", "digest": ""})
            continue
        try:
            problems, op_digest, parts = workload.check_op(index, output)
        except Exception as err:
            problems, op_digest, parts = [f"check raised {type(err).__name__}: {err}"], "", {}
        expected = reference[index] if reference and index < len(reference) else None
        if problems:
            status, detail = "check", "; ".join(problems)
        elif reference is not None and expected != op_digest:
            changed = sorted(name for name, d in parts.items() if files.get(name) != d)
            status = "golden"
            detail = f"digest {op_digest} != reference {expected}"
            if changed:
                detail += f"; changed files {changed}"
        else:
            status, detail = "ok", ""
        result.append({"status": status, "detail": detail, "digest": op_digest})
    return result
