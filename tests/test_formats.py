"""The bytes of every output file, rebuilt here from the returned values.

Each expected file is written out in the test itself: ints as they are,
floats at nine significant digits, cells joined by ``,`` (CSV) or a
space (``.dat``), one line per row and a final newline.  The library's
own writer is never used to build an expectation, so a change to it that
moves a byte fails here.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames.analysis import Environment, build_prediction
from labelgames.cli import main
from labelgames.config import load_config
from labelgames.experiment import (
    _CHUNK_LINES,
    ExperimentConfig,
    _write_rows,
    compare_models,
    mix_seed,
    record_times,
    run_experiment,
    sweep,
    validate_predictions,
)
from labelgames.game import GameConfig

CONFIG = """\
agents = 5
timesteps = 7
h = 0.05
model = 2
w = 0.9
runs = 2
record_every = 3
seed = 11
env.x1 = uniform(0.25, 0.75)
env.x2 = uniform(0, 0.5)
"""


def g(value) -> str:
    return f"{float(value):.9g}"


def series(xs, ys) -> str:
    """A ``.dat`` plot series: two space-separated floats per line."""
    return "".join(f"{g(x)} {g(y)}\n" for x, y in zip(xs, ys))


def test_experiment_csvs_are_rebuilt_from_the_tables(tmp_path):
    config = ExperimentConfig(
        game=GameConfig(n_agents=4, timesteps=5, rate=0.1),
        env=Environment(((0.0, 1.0), (0.0, 0.5))),
        runs=3,
        record_every=2,
        outputs=tmp_path / "out",
    )
    result = run_experiment(config)
    out = tmp_path / "out"
    expected = {}
    for run, (means, sds) in enumerate(zip(result.means, result.sds)):
        expected[f"run_{run:03d}.csv"] = "timestep,mean_lambda,sd_lambda\n" + "".join(
            f"{t},{g(m)},{g(s)}\n" for t, m, s in zip(result.times, means, sds)
        )
    agg = result.aggregate
    expected["aggregate.csv"] = "timestep,mean_of_means,sem_of_means,mean_sd\n" + "".join(
        f"{t},{g(m)},{g(e)},{g(s)}\n"
        for t, m, e, s in zip(agg.times, agg.mean_of_means, agg.sem_of_means, agg.mean_sd)
    )
    expected["final_lambdas.csv"] = "run_id,agent_id,lambda\n" + "".join(
        f"{run},{agent},{g(w)}\n"
        for run, finals in enumerate(result.finals)
        for agent, w in enumerate(finals)
    )
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_text() == text, name


def test_a_single_run_writes_nan_for_the_standard_error(tmp_path):
    config = ExperimentConfig(
        game=GameConfig(n_agents=3, timesteps=2), runs=1, outputs=tmp_path
    )
    agg = run_experiment(config).aggregate
    assert (tmp_path / "aggregate.csv").read_text().splitlines()[1:] == [
        f"{t},{g(m)},nan,{g(s)}" for t, m, s in zip(agg.times, agg.mean_of_means, agg.mean_sd)
    ]


def expected_curves(command, config):
    """Each ``.dat`` file a command writes, from the library's own results."""
    if command == "simulate":
        agg = run_experiment(config).aggregate
        return {
            "simulate_mean.dat": series(agg.times, agg.mean_of_means),
            "simulate_sd.dat": series(agg.times, agg.mean_sd),
        }, []
    if command == "predict":
        game = config.game
        prediction = build_prediction(
            config.env, game.rate, reliability=game.reliability, model=game.model,
            n_samples=2000, rng=np.random.default_rng(mix_seed(config.master_seed, 1 << 32)),
        )
        times = record_times(game.timesteps, config.record_every)
        steps = times * (game.n_agents - 1.0)
        return {
            "predict_mean.dat": series(times, prediction.mean_at(0.5, steps)),
            "predict_variance.dat": series(times, prediction.variance_at(1 / 12, steps)),
        }, ["--samples", "2000"]
    if command == "sweep":
        points = sweep(config, "h", [0.02, 0.1])
        hs = [p.value for p in points]
        return {
            "sweep_mean.dat": series(hs, [p.final_mean for p in points]),
            "sweep_sd.dat": series(hs, [p.final_sd for p in points]),
        }, ["--param", "h", "--values", "0.02,0.1"]
    if command == "compare":
        rows = compare_models(config, [0.5, 1.0])
        ws = [row.reliability for row in rows]
        return {
            f"compare_model{m}_{stat}.dat": series(ws, [getattr(r, f"model{m}_{stat}") for r in rows])
            for m in (1, 2)
            for stat in ("mean", "sd")
        }, ["--w-values", "0.5,1.0"]
    rows = validate_predictions(config, [0.05, 0.02], n_samples=2000)
    files = {}
    for row in rows:
        files[f"validate_h{row.rate:g}_sim_mean.dat"] = series(row.times, row.empirical_mean)
        files[f"validate_h{row.rate:g}_pred_mean.dat"] = series(row.times, row.predicted_mean)
    return files, ["--h-values", "0.05,0.02", "--samples", "2000"]


@pytest.mark.parametrize("command", ["simulate", "predict", "sweep", "compare", "validate"])
def test_plot_series_are_rebuilt_from_the_library_results(command, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    files, flags = expected_curves(command, load_config(path))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), *flags, "--out", str(out), "--emit-plot-data"]) == 0
    assert sorted(p.name for p in out.iterdir() if p.suffix == ".dat") == sorted(files)
    for name, text in files.items():
        assert (out / name).read_text() == text, name


# Float64 bit patterns a random draw seldom reaches: both zeros, both
# infinities, NaN with and without its sign bit, the smallest and largest
# subnormals and normals, and the neighbours of one.
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
    0x3FEFFFFFFFFFFFFF, 0x3FF0000000000000, 0x3FF0000000000001,
]


@st.composite
def row_columns(draw):
    """Equal-length int64 and float64 columns: drawn cells first, then seeded random bit patterns."""
    rows = draw(st.sampled_from([0, 1, _CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from("if"), min_size=1, max_size=4)):
        bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
        if kind == "f":
            cells = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))
        else:
            cells = st.integers(0, 2**64 - 1)
        head = draw(st.lists(cells, max_size=min(rows, 16)))
        bits[: len(head)] = head
        columns.append(bits.view(np.float64 if kind == "f" else np.int64))
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=row_columns(), sep=st.sampled_from([",", " "]))
def test_the_writer_formats_each_cell_as_the_per_cell_rule_does(columns, sep):
    """Every row as its cells by the per-cell rule joined by ``sep``, whatever the chunking; no rows write nothing."""
    file = io.StringIO()
    _write_rows(file, columns, sep)
    cells = [[f"{v:.9g}" if isinstance(v, float) else str(v) for v in column.tolist()] for column in columns]
    assert file.getvalue() == "".join(sep.join(row) + "\n" for row in zip(*cells))
    if not len(columns[0]):
        assert file.getvalue() == ""
