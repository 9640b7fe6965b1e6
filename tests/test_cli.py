"""End-to-end behaviour of the command-line front end."""

import math
import time
from unittest import mock

import pytest

from labelgames import analysis, experiment
from labelgames.cli import build_parser, main

BASE = """\
agents = 4
timesteps = 6
h = 0.05
runs = 2
env.x1 = uniform(0, 1)
env.x2 = uniform(0, 0.5)
"""

MODEL2 = """\
agents = 8
timesteps = 5
h = 0.05
model = 2
runs = 2
env.x1 = uniform(0.25, 0.75)
env.x2 = uniform(0, 0.5)
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE)
    return path


@pytest.fixture
def model2_cfg(tmp_path):
    path = tmp_path / "model2.cfg"
    path.write_text(MODEL2)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def assert_usage_error(capsys, *argv):
    """The parser refuses the arguments with exit code 2 and a message."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "expected at least one number" in capsys.readouterr().err


def assert_refused_before_the_first_run(capsys, out, first, blocked, *argv):
    """With a file where a later subdirectory goes, the command exits 3 before its first run writes a CSV."""
    out.mkdir()
    (out / blocked).write_text("")
    assert run_cli(*argv, "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("io error")
    assert not list((out / first).glob("*.csv"))


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and " " not in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--config", "x.cfg"])
        assert args.command == "simulate"
        args = parser.parse_args(["sweep", "--config", "x.cfg", "--param", "w", "--values", "0.5,1"])
        assert args.values == [0.5, 1.0]

    def test_bad_value_list_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--config", "x.cfg", "--param", "w", "--values", "a,b"])


class TestSimulate:
    def test_prints_final_statistics(self, base_cfg, capsys):
        assert run_cli("simulate", "--config", base_cfg) == 0
        got = parse_kv(capsys.readouterr().out)
        assert 0.0 <= float(got["final_mean_lambda"]) <= 1.0
        assert float(got["final_sd_lambda"]) >= 0.0

    def test_writes_csvs_and_plot_data(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", base_cfg, "--out", out, "--emit-plot-data") == 0
        names = {p.name for p in out.iterdir()}
        assert {"aggregate.csv", "final_lambdas.csv", "run_000.csv", "run_001.csv",
                "simulate_mean.dat", "simulate_sd.dat"} <= names
        rows = (out / "simulate_mean.dat").read_text().splitlines()
        assert len(rows) == 7
        first_t, first_mean = rows[0].split()
        assert float(first_t) == 0.0
        assert 0.0 <= float(first_mean) <= 1.0

    def test_reruns_are_byte_identical(self, base_cfg, tmp_path, capsys):
        for sub in ("a", "b"):
            assert run_cli("simulate", "--config", base_cfg, "--out", tmp_path / sub) == 0
        for name in ("aggregate.csv", "final_lambdas.csv", "run_000.csv", "run_001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_the_draws(self, base_cfg, capsys):
        assert run_cli("simulate", "--config", base_cfg, "--seed", 1) == 0
        first = parse_kv(capsys.readouterr().out)
        assert run_cli("simulate", "--config", base_cfg, "--seed", 2) == 0
        second = parse_kv(capsys.readouterr().out)
        assert run_cli("simulate", "--config", base_cfg, "--seed", 1) == 0
        repeat = parse_kv(capsys.readouterr().out)
        assert first["final_mean_lambda"] != second["final_mean_lambda"]
        assert first == repeat

    def test_oversized_seed_is_a_config_error(self, base_cfg, capsys):
        assert run_cli("simulate", "--config", base_cfg, "--seed", 1 << 64) == 2
        assert "config error" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", tmp_path / "absent.cfg") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")

    def test_config_error_carries_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("agents = 4\nwat = 1\n" + "env.x1 = uniform(0, 1)\nenv.x2 = uniform(0, 0.5)\n")
        assert run_cli("simulate", "--config", bad) == 2
        assert "line 2" in capsys.readouterr().err

    def test_oversized_population_is_refused_before_any_compute(self, tmp_path, capsys, monkeypatch):
        # Runs play one at a time, so one run of the largest population,
        # 46,341 agents (about 10 GiB of picks per timestep), is what must
        # not fit; the host's memory is fixed at 8 GiB so that the refusal
        # does not depend on it.
        monkeypatch.setattr(experiment, "_physical_memory", lambda: 8 * 2**30)
        huge = tmp_path / "huge.cfg"
        huge.write_text(BASE.replace("agents = 4", "agents = 46341").replace("runs = 2", "runs = 1000"))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_cli("simulate", "--config", huge, "--out", out) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "physical memory" in err
        assert not out.exists()

    def test_a_model_1_prediction_larger_than_memory_is_refused_before_any_draw(
        self, base_cfg, tmp_path, capsys, monkeypatch
    ):
        # Model 1 holds every sample at once, about 9.6 GB at 3e8 samples;
        # the host's memory is fixed at 8 GiB.  No output directory is made.
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 8 * 2**30)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_cli("predict", "--config", base_cfg, "--samples", 300_000_000, "--out", out, "--emit-plot-data") == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("config error:") and "n_samples = 300000000" in captured.err

    def test_output_collision_is_an_io_error(self, base_cfg, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory\n")
        assert run_cli("simulate", "--config", base_cfg, "--out", blocker) == 3
        assert "io error" in capsys.readouterr().err


class TestPredict:
    def test_prints_the_prediction_summary(self, model2_cfg, capsys):
        assert run_cli("predict", "--config", model2_cfg, "--samples", 50_000) == 0
        got = parse_kv(capsys.readouterr().out)
        assert float(got["p_plus"]) == pytest.approx(0.25, abs=1e-9)
        assert float(got["target_mean"]) == pytest.approx(0.25, abs=0.01)
        assert float(got["target_variance"]) == pytest.approx(0.1875, abs=0.01)
        assert float(got["resting_mean"]) == float(got["target_mean"])
        rest = 0.05 / 1.95 * float(got["target_variance"])
        assert float(got["resting_variance"]) == pytest.approx(rest, rel=1e-6)
        updates = int(got["mean_convergence_updates"])
        assert int(got["mean_convergence_timesteps"]) == math.ceil(updates / 7)
        assert int(got["variance_convergence_updates"]) > 0

    def test_does_not_simulate(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "pred"
        assert run_cli("predict", "--config", model2_cfg, "--out", out,
                       "--emit-plot-data", "--samples", 20_000) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"predict_mean.dat", "predict_variance.dat"}
        rows = (out / "predict_mean.dat").read_text().splitlines()
        assert len(rows) == 6
        t0, mean0 = rows[0].split()
        assert float(t0) == 0.0
        assert float(mean0) == pytest.approx(0.5, abs=1e-9)

    def test_unordered_schedule_converts_at_the_mean_listens_per_agent(self, tmp_path, capsys):
        cfg = tmp_path / "unordered.cfg"
        cfg.write_text(MODEL2 + "schedule = unordered\n")
        out = tmp_path / "pred"
        assert run_cli("predict", "--config", cfg, "--samples", 20_000,
                       "--out", out, "--emit-plot-data") == 0
        got = parse_kv(capsys.readouterr().out)
        # Each of 8 agents is in 7 of the 28 pairs and listens in half of
        # them on average: 3.5 updates per timestep, not 7.
        for curve in ("mean", "variance"):
            updates = int(got[f"{curve}_convergence_updates"])
            assert math.ceil(updates / 7) < math.ceil(updates / 3.5)
            assert int(got[f"{curve}_convergence_timesteps"]) == math.ceil(updates / 3.5)
        rest = float(got["resting_mean"])
        rows = (out / "predict_mean.dat").read_text().splitlines()
        assert len(rows) == 6
        for row in rows:
            t, mean = map(float, row.split())
            assert mean == pytest.approx(rest + (0.5 - rest) * 0.95 ** (3.5 * t), abs=1e-8)

    def test_reports_an_impossible_fixed_point(self, tmp_path, capsys):
        cfg = tmp_path / "stuck.cfg"
        cfg.write_text("w = 0\n" + BASE)
        assert run_cli("predict", "--config", cfg, "--samples", 5000) == 1
        assert "prediction failed" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1e-20", "1e-17"])
    def test_rejects_a_rate_too_small_to_converge_before_sampling(self, rate, tmp_path, capsys):
        # 1 - rate rounds to 1; the rate is refused before the output directory is made.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(MODEL2.replace("h = 0.05", f"h = {rate}"))
        out = tmp_path / "out"
        with mock.patch.object(analysis, "estimate_target_moments", side_effect=AssertionError):
            assert run_cli("predict", "--config", cfg, "--samples", 1000, "--out", out, "--emit-plot-data") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("config error: ") and "rate" in captured.err

    def test_rejects_bad_sample_count_and_tolerance_up_front(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "pred"
        with mock.patch.object(analysis, "estimate_target_moments", side_effect=AssertionError):
            for flags in (("--samples", 0), ("--tol", 0), ("--tol", -0.1), ("--tol", "inf")):
                assert run_cli("predict", "--config", model2_cfg, "--out", out,
                               "--emit-plot-data", *flags) == 2
        err = capsys.readouterr().err
        assert "--samples must be at least 1" in err
        assert "--tol must be positive" in err and "got inf" in err
        assert not out.exists()

    def test_an_output_path_that_is_a_file_fails_before_sampling(self, model2_cfg, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory\n")
        with mock.patch.object(analysis, "estimate_target_moments", side_effect=AssertionError):
            assert run_cli("predict", "--config", model2_cfg, "--out", blocker, "--emit-plot-data") == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("io error")


class TestSweep:
    def test_tabulates_each_value(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--config", base_cfg, "--param", "w",
                       "--values", "0.6,1.0", "--out", out, "--emit-plot-data") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("w=")]
        assert len(lines) == 2
        assert lines[0].startswith("w=0.6 final_mean_lambda=")
        mean_rows = (out / "sweep_mean.dat").read_text().splitlines()
        sd_rows = (out / "sweep_sd.dat").read_text().splitlines()
        assert len(mean_rows) == len(sd_rows) == 2
        assert (out / "w_0.6" / "aggregate.csv").exists()
        assert (out / "w_1" / "aggregate.csv").exists()

    def test_range_checked_values(self, base_cfg, capsys):
        assert run_cli("sweep", "--config", base_cfg, "--param", "w", "--values", "1.5") == 2
        assert "reliability must lie in [0, 1]" in capsys.readouterr().err
        assert run_cli("sweep", "--config", base_cfg, "--param", "h", "--values", "0") == 2

    def test_empty_value_list_is_rejected(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "empty"
        for values in ("", ","):
            assert_usage_error(capsys, "sweep", "--config", base_cfg, "--param", "w",
                               "--values", values, "--out", out, "--emit-plot-data")
        assert not out.exists()

    def test_values_naming_one_subdirectory_are_rejected(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--config", base_cfg, "--param", "w",
                       "--values", "0.1,0.1000001", "--out", out) == 2
        captured = capsys.readouterr()
        assert "both format as 0.1" in captured.err and captured.out == ""
        assert not out.exists()

    def test_a_bad_later_subdirectory_is_refused_before_the_first_run(self, base_cfg, tmp_path, capsys):
        assert_refused_before_the_first_run(
            capsys, tmp_path / "sw", "h_0.1", "h_0.2",
            "sweep", "--config", base_cfg, "--param", "h", "--values", "0.1,0.2",
        )


class TestCompare:
    def test_reports_both_rules(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--config", base_cfg, "--w-values", "1.0",
                       "--out", out, "--emit-plot-data") == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("w=")][0]
        got = dict(piece.split("=") for piece in line.split())
        assert got["model1_mean"] == got["model2_mean"]
        names = {p.name for p in out.iterdir() if p.suffix == ".dat"}
        assert names == {"compare_model1_mean.dat", "compare_model1_sd.dat",
                         "compare_model2_mean.dat", "compare_model2_sd.dat"}

    def test_rejects_bad_reliability(self, base_cfg, capsys):
        assert run_cli("compare", "--config", base_cfg, "--w-values", "-0.5") == 2

    def test_empty_value_list_is_rejected(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert_usage_error(capsys, "compare", "--config", base_cfg, "--w-values", ",", "--out", out)
        assert not out.exists()

    def test_values_naming_one_subdirectory_are_rejected(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--config", base_cfg, "--w-values", "0.5,0.5", "--out", out) == 2
        captured = capsys.readouterr()
        assert "both format as 0.5" in captured.err and captured.out == ""
        assert not out.exists()

    def test_a_bad_later_subdirectory_is_refused_before_the_first_run(self, base_cfg, tmp_path, capsys):
        assert_refused_before_the_first_run(
            capsys, tmp_path / "cmp", "model1_w_0.5", "model2_w_0.5",
            "compare", "--config", base_cfg, "--w-values", "0.5,1.0",
        )


class TestValidate:
    def test_reports_deviations_per_rate(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "val"
        assert run_cli("validate", "--config", model2_cfg, "--h-values", "0.05,0.02",
                       "--samples", 20_000, "--out", out, "--emit-plot-data") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("h=")]
        assert len(lines) == 2
        assert "sup_mean_deviation=" in lines[0]
        names = {p.name for p in out.iterdir() if p.suffix == ".dat"}
        assert names == {
            "validate_h0.05_sim_mean.dat", "validate_h0.05_pred_mean.dat",
            "validate_h0.02_sim_mean.dat", "validate_h0.02_pred_mean.dat",
        }
        sim = (out / "validate_h0.05_sim_mean.dat").read_text().splitlines()
        assert len(sim) == 6

    def test_requires_model_two(self, base_cfg, capsys):
        assert run_cli("validate", "--config", base_cfg, "--h-values", "0.05") == 2
        assert "requires model 2" in capsys.readouterr().err

    def test_rejects_out_of_range_rates(self, model2_cfg, capsys):
        assert run_cli("validate", "--config", model2_cfg, "--h-values", "1.0") == 2

    def test_rejects_zero_samples_before_simulating(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "val"
        assert run_cli("validate", "--config", model2_cfg, "--h-values", "0.05",
                       "--samples", 0, "--out", out) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_value_list_is_rejected(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "val"
        assert_usage_error(capsys, "validate", "--config", model2_cfg, "--h-values", ",", "--out", out)
        assert not out.exists()

    def test_values_naming_one_subdirectory_are_rejected(self, model2_cfg, tmp_path, capsys):
        out = tmp_path / "val"
        assert run_cli("validate", "--config", model2_cfg, "--h-values", "0.05,0.0500000001",
                       "--samples", 1000, "--out", out) == 2
        captured = capsys.readouterr()
        assert "both format as 0.05" in captured.err and captured.out == ""
        assert not out.exists()

    def test_a_bad_later_subdirectory_is_refused_before_the_first_run(self, model2_cfg, tmp_path, capsys):
        assert_refused_before_the_first_run(
            capsys, tmp_path / "val", "h_0.05", "h_0.02",
            "validate", "--config", model2_cfg, "--h-values", "0.05,0.02", "--samples", 1000,
        )
