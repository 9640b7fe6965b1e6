"""Seeding, run replication, persistence, and the stacked engine."""

import gc
import itertools
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import experiment
from labelgames.analysis import Environment
from labelgames.experiment import (
    AGGREGATE_CSV_HEADER,
    FINAL_CSV_HEADER,
    RUN_CSV_HEADER,
    ExperimentConfig,
    FootprintError,
    ModelComparison,
    SweepPoint,
    aggregate_runs,
    compare_models,
    mix_seed,
    prepare_output_dir,
    record_times,
    run_experiment,
    sweep,
    validate_predictions,
)
from labelgames.experiment import _run_stacked
from labelgames.engine import _STACK_BYTES_PER_DIALOGUE
from labelgames.game import ConfigError, GameConfig
from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    UniformThreshold,
    WeightedCityBlock,
    canonical_label,
)
from spec import assert_matches_spec


def small_config(**overrides) -> ExperimentConfig:
    game_keys = {
        "n_agents", "timesteps", "rate", "model", "labels",
        "reliability", "weight_init", "schedule",
    }
    game_over = {k: v for k, v in overrides.items() if k in game_keys}
    exp_over = {k: v for k, v in overrides.items() if k not in game_keys}
    game = GameConfig(
        n_agents=game_over.pop("n_agents", 6),
        timesteps=game_over.pop("timesteps", 8),
        rate=game_over.pop("rate", 0.02),
        **game_over,
    )
    env = exp_over.pop("env", Environment(((0.0, 1.0), (0.0, 0.5))))
    return ExperimentConfig(
        game=game, env=env, runs=exp_over.pop("runs", 3), **exp_over
    )


def records_equal(a, b) -> bool:
    return (
        a.run_id == b.run_id
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.mean_weights, b.mean_weights)
        and np.array_equal(a.sd_weights, b.sd_weights)
        and np.array_equal(a.final_weights, b.final_weights)
    )


class TestMixSeed:
    def test_frozen_values(self):
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(12345, 7) == 7959005890829367068

    def test_streams_are_distinct(self):
        seen = {mix_seed(42, s) for s in range(1000)}
        assert len(seen) == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            mix_seed(-1, 0)
        with pytest.raises(ValueError):
            mix_seed(1 << 64, 0)
        with pytest.raises(ValueError):
            mix_seed(0, -1)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(runs=0)
        with pytest.raises(ValueError):
            small_config(master_seed=1 << 64)
        with pytest.raises(ValueError):
            small_config(record_every=0)
        with pytest.raises(ValueError):
            small_config(record_every=9, timesteps=8)

    def test_zero_timesteps_rejected_with_its_own_message(self):
        with pytest.raises(ValueError, match="timesteps must be at least 1"):
            ExperimentConfig(game=GameConfig(timesteps=0))

    def test_stack_larger_than_memory_refused_before_the_output_dir(self, tmp_path, monkeypatch):
        # Runs play one at a time: one run of 6 agents plays 30 dialogues
        # per timestep and holds its recorded snapshots of 6 weights, and
        # every run keeps its series and final weights, more of them when
        # its files are written.  With many runs what the runs keep is most
        # of the need.
        for runs, timesteps, outputs in itertools.product((3, 300), (1, 8), (True, False)):
            per_record, per_run, per_agent, per_time = experiment._KEPT_BYTES[outputs]
            recorded = timesteps + 1
            need = (
                30 * _STACK_BYTES_PER_DIALOGUE + recorded * 6 * 8
                + runs * (recorded * per_record + per_run + 6 * per_agent) + recorded * per_time
            )
            out = tmp_path / f"out-{runs}-{timesteps}-{outputs}"
            config = small_config(runs=runs, timesteps=timesteps, outputs=out if outputs else None)
            monkeypatch.setattr(experiment, "_physical_memory", lambda: need - 1)
            with pytest.raises(FootprintError, match="physical memory"):
                run_experiment(config)
            assert not out.exists()
            monkeypatch.setattr(experiment, "_physical_memory", lambda: need)
            assert len(run_experiment(config).run_records) == runs
            monkeypatch.setattr(experiment, "_physical_memory", lambda: None)
            run_experiment(config)

    def test_runs_are_limited_by_memory_not_by_lane_ids(self, monkeypatch):
        # 2**32 runs of 2 agents are a valid configuration, refused by
        # what the runs would keep, here on a host fixed at 1 TiB;
        # 2**32 + 1 would reach the prediction streams.
        monkeypatch.setattr(experiment, "_physical_memory", lambda: 2**40)
        config = ExperimentConfig(GameConfig(n_agents=2), runs=2**32)
        with pytest.raises(FootprintError, match="4294967296 runs of 2 agents"):
            run_experiment(config)
        with pytest.raises(ConfigError, match="runs must be at most 4294967296"):
            ExperimentConfig(GameConfig(n_agents=2), runs=2**32 + 1)


class TestRecordTimes:
    def test_interval_with_ragged_end(self):
        assert record_times(10, 3).tolist() == [0, 3, 6, 9, 10]

    def test_every_step(self):
        assert record_times(4, 1).tolist() == [0, 1, 2, 3, 4]

    def test_endpoints_only(self):
        assert record_times(10, 10).tolist() == [0, 10]

    @pytest.mark.parametrize("timesteps,every", [
        (1, 1), (7, 3), (10**6, 1),
        *((t, k) for t in (2, 5, 10, 17, 100) for k in (1, 2, 3, 7, t) if k <= t),
    ])
    def test_equals_the_set_built_form(self, timesteps, every):
        times = {0, timesteps} | set(range(every, timesteps + 1, every))
        got = record_times(timesteps, every)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(times)

    def test_length_rule(self):
        for timesteps in (1, 5, 10, 17, 100):
            for every in (1, 2, 3, 7, timesteps):
                got = record_times(timesteps, every)
                assert got.size == -(-timesteps // every) + 1
                assert got[0] == 0 and got[-1] == timesteps


class TestStackedEngine:
    @pytest.mark.parametrize("overrides", [
        {},
        {"model": 2, "runs": 4},
        {"schedule": "unordered", "reliability": 0.8},
        {"model": 2, "reliability": 0.6, "n_agents": 3, "runs": 5},
        {"master_seed": 987654321, "timesteps": 12},
    ])
    def test_matches_the_reference_loop(self, overrides):
        config = small_config(**overrides)
        assert_matches_spec(_run_stacked(config), config)

    def test_matches_the_reference_as_weights_reach_one(self):
        # a high rate in an all-upward box drives weights onto 1.0 exactly
        config = small_config(
            rate=0.6,
            timesteps=20,
            env=Environment(((0.9, 1.0), (0.2, 0.4))),
            weight_init=(0.5, 1.0 - 2.0**-53, 0.9, 0.2, 0.5, 0.7),
        )
        stacked = _run_stacked(config)
        finals = np.concatenate([rec.final_weights for rec in stacked])
        assert np.any(finals == 1.0)
        assert_matches_spec(stacked, config)

    def test_matches_the_reference_when_pinned_weights_move(self):
        # Every weight starts at exactly 1, where compounds tie, and moves
        # in the first timestep.
        config = small_config(
            n_agents=40, runs=2, timesteps=2, weight_init=1.0, model=2,
            reliability=0.8, rate=1e-3,
        )
        stacked = _run_stacked(config)
        assert all((rec.final_weights != 1.0).any() for rec in stacked)
        assert_matches_spec(stacked, config)

    def test_runs_are_independent_of_the_run_count(self):
        long = run_experiment(small_config(runs=5)).run_records
        short = run_experiment(small_config(runs=2)).run_records
        for a, b in zip(short, long):
            assert records_equal(a, b)

    def test_run_ids_in_order(self):
        result = run_experiment(small_config(runs=3))
        assert [rec.run_id for rec in result.run_records] == [0, 1, 2]

    def test_thousand_agent_timestep_peak_stays_small(self):
        # numpy reports its buffers to tracemalloc, so the traced peak of
        # one 1000-agent timestep counts the kernel's one buffer: 4 bytes
        # of picks per dialogue, the coins and uniforms being drawn as
        # each dialogue plays.
        config = small_config(
            n_agents=1000, timesteps=1, runs=1, rate=1e-3, model=2,
            reliability=0.8, master_seed=7,
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 999_000 < 6

    def test_blocks_of_recorded_times_match_the_spec(self, monkeypatch):
        # Two snapshot rows per kernel call: the run continues across calls.
        monkeypatch.setattr(experiment, "_BLOCK_ROWS", 2)
        for schedule in ("ordered", "unordered"):
            config = small_config(timesteps=9, record_every=2, runs=2, schedule=schedule, model=2)
            assert experiment._block_rows(config) == 2
            assert_matches_spec(_run_stacked(config), config)

    def test_snapshot_blocks_stay_within_eight_megabytes(self):
        largest = ExperimentConfig(game=GameConfig(n_agents=46_341, timesteps=10**5), runs=1)
        assert experiment._block_rows(largest) == 2**23 // (8 * 46_341) == 22
        assert experiment._block_rows(small_config(timesteps=10**6)) == 2**16
        assert experiment._block_rows(small_config(timesteps=10, record_every=3)) == 5

    def test_a_finished_run_keeps_nothing_alive(self):
        # No pair table or other array outlives the call: what is still
        # traced once the result is dropped is small change, not 8 bytes
        # per dialogue of the population's size.
        config = small_config(n_agents=1000, timesteps=1, runs=1, master_seed=7)
        run_experiment(small_config(timesteps=1, runs=1))  # modules a run imports lazily
        tracemalloc.start()
        try:
            result = run_experiment(config)
            del result
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


EDGE_WEIGHTS = (0.0, 5e-324, 1e-17, 1.0 - 2.0**-53, 1.0)
# The labels the engine computes: canonical ones, on the unit interval or
# a wider one; a threshold width other than 1; a prototype off the edge;
# a city-block metric with a weight other than 1.
LABEL_KINDS = ("canonical", "width", "prototype", "city")


# Model-2 populations whose weights start near 0 or 1 and, at rates near 1,
# reach exactly 0 or 1 within the first timestep; each has its own
# reliabilities and observation box.  The populations are the first two
# COLLAPSE_CASES of tests/test_game.py; the master seeds, found by search,
# make run 0 reach an edge under each schedule.
COLLAPSING_RUNS = [
    (0.9989033723956832,
     (1.0846147220943166e-09, 0.9999999999666682, 0.9999999999997771),
     (0.4510313870011089, 0.9553145792212376, 0.8919016691830427),
     (0.27853429777937566, 0.27863302551894353), (0.004077724985988684, 0.4219995748472628),
     {"ordered": 2, "unordered": 3}),
    (0.9988162297568676,
     (3.7003548707621556e-11, 3.26799857913714e-11, 0.9999999999997793, 6.74222611516607e-11),
     (0.3020920366180293, 0.6088661044496464, 0.2922756613688998, 0.6239372372696742),
     (0.29922759715969116, 0.539945609476942), (0.5827000659736606, 0.6561332460538947),
     {"ordered": 101, "unordered": 22}),
]


class TestWholeRunSpec:
    @pytest.mark.parametrize("schedule", ["ordered", "unordered"])
    @pytest.mark.parametrize("rate,weights,rels,x1,x2,seeds", COLLAPSING_RUNS)
    def test_weights_that_land_on_zero_or_one_match_the_spec(self, schedule, rate, weights, rels, x1, x2, seeds):
        game = GameConfig(
            n_agents=len(weights), timesteps=1, rate=rate, model=2, reliability=rels,
            weight_init=weights, schedule=schedule,
        )
        config = ExperimentConfig(game=game, env=Environment((x1, x2)), runs=2, master_seed=seeds[schedule])
        records = run_experiment(config).run_records
        assert np.isin(records[0].final_weights, (0.0, 1.0)).any()
        assert_matches_spec(records, config)
        # The runs play on from the edge.
        config = replace(config, game=replace(game, timesteps=4))
        assert_matches_spec(run_experiment(config).run_records, config)

    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(
        n=st.integers(2, 6),
        runs=st.integers(1, 4),
        timesteps=st.integers(1, 5),
        every=st.integers(1, 5),
        model=st.sampled_from((1, 2)),
        schedule=st.sampled_from(("ordered", "unordered")),
        reliability=st.sampled_from(("one", "each")),
        weight_init=st.sampled_from(("drawn", "one", "each")),
        x1=st.sampled_from(("plain", "squeezed")),
        x2=st.sampled_from(("plain", "squeezed")),
        label1=st.sampled_from(LABEL_KINDS),
        label2=st.sampled_from(LABEL_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_experiment_equals_the_spec_run_by_run(
        self, n, runs, timesteps, every, model, schedule, reliability, weight_init, x1, x2,
        label1, label2, seed,
    ):
        # Hypothesis draws the shape; a seeded generator draws the values,
        # which hypothesis draws far more slowly.  A third of the weights
        # and reliabilities are edge values, and an interval is either
        # plain or squeezed to 1/2 +- eps, where memberships sit next to
        # the sign flip.
        values = np.random.default_rng(seed)

        def unit():
            return EDGE_WEIGHTS[values.integers(5)] if values.random() < 1 / 3 else values.random()

        def per_agent(kind):
            return unit() if kind == "one" else tuple(unit() for _ in range(n))

        def interval(kind):
            if kind == "plain":
                return tuple(sorted(values.random(2)))
            eps = 10.0 ** values.uniform(-15.5, -1.0)
            return (0.5 - eps, 0.5 + eps)

        def label(kind):
            if kind == "canonical":
                return canonical_label(1.0 if values.random() < 0.5 else 1.0 + values.random())
            if kind == "width":
                return Label((1.0,), Euclidean(), UniformThreshold(values.uniform(0.2, 3.0)), ConceptualSpace(1))
            if kind == "prototype":
                return Label((values.random(),), Euclidean(), UniformThreshold(), ConceptualSpace(1))
            metric = WeightedCityBlock((values.uniform(0.2, 3.0),))
            threshold = UniformThreshold(values.uniform(0.2, 3.0))
            return Label((values.random(),), metric, threshold, ConceptualSpace(1))

        game = GameConfig(
            n_agents=n,
            timesteps=timesteps,
            rate=values.uniform(1e-4, 0.999),
            model=model,
            reliability=per_agent(reliability),
            weight_init=None if weight_init == "drawn" else per_agent(weight_init),
            schedule=schedule,
            labels=(label(label1), label(label2)),
        )
        config = ExperimentConfig(
            game=game,
            env=Environment((interval(x1), interval(x2))),
            runs=runs,
            master_seed=int(values.integers(2**64, dtype=np.uint64)),
            record_every=min(every, timesteps),
        )
        assert_matches_spec(run_experiment(config).run_records, config)


class TestAggregate:
    def test_mean_of_means_is_the_grand_mean(self):
        result = run_experiment(small_config(runs=4))
        final_grand = np.concatenate(
            [rec.final_weights for rec in result.run_records]
        ).mean()
        assert result.aggregate.mean_of_means[-1] == pytest.approx(final_grand, abs=1e-12)

    def test_sem_matches_numpy(self):
        result = run_experiment(small_config(runs=4))
        means = np.vstack([rec.mean_weights for rec in result.run_records])
        want = np.std(means, axis=0, ddof=1) / 2.0
        assert result.aggregate.sem_of_means == pytest.approx(want, abs=1e-15)

    def test_single_run_sem_is_nan_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(small_config(runs=1))
        assert np.isnan(result.aggregate.sem_of_means).all()
        assert np.isfinite(result.aggregate.mean_of_means).all()

    def test_series_share_the_time_axis(self):
        result = run_experiment(small_config(record_every=3))
        agg = result.aggregate
        assert agg.times.tolist() == [0, 3, 6, 8]
        for rec in result.run_records:
            assert rec.times.tolist() == [0, 3, 6, 8]
            assert rec.mean_weights.shape == rec.sd_weights.shape == (4,)


class TestPersistence:
    def test_file_layout(self, tmp_path):
        config = small_config(runs=3, outputs=tmp_path / "out")
        run_experiment(config)
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == [
            "aggregate.csv",
            "final_lambdas.csv",
            "run_000.csv",
            "run_001.csv",
            "run_002.csv",
        ]

    def test_headers_and_shape(self, tmp_path):
        config = small_config(runs=2, outputs=tmp_path / "out")
        run_experiment(config)
        run_lines = (tmp_path / "out" / "run_000.csv").read_text().splitlines()
        assert run_lines[0] == RUN_CSV_HEADER == "timestep,mean_lambda,sd_lambda"
        assert len(run_lines) == 1 + 9
        agg_text = (tmp_path / "out" / "aggregate.csv").read_text()
        assert agg_text.startswith(AGGREGATE_CSV_HEADER + "\n")
        assert agg_text.endswith("\n")
        final_lines = (tmp_path / "out" / "final_lambdas.csv").read_text().splitlines()
        assert final_lines[0] == FINAL_CSV_HEADER == "run_id,agent_id,lambda"
        assert len(final_lines) == 1 + 2 * 6
        assert final_lines[1].startswith("0,0,")

    def test_values_round_trip_at_nine_digits(self, tmp_path):
        config = small_config(runs=2, outputs=tmp_path / "out")
        result = run_experiment(config)
        rows = (tmp_path / "out" / "run_001.csv").read_text().splitlines()[1:]
        record = result.run_records[1]
        for row, t, mean, sd in zip(rows, record.times, record.mean_weights, record.sd_weights):
            t_str, mean_str, sd_str = row.split(",")
            assert int(t_str) == int(t)
            assert float(mean_str) == pytest.approx(mean, rel=1e-8)
            assert float(sd_str) == pytest.approx(sd, rel=1e-8)
            assert mean_str == f"{mean:.9g}"

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run_experiment(small_config(runs=2, outputs=tmp_path / sub))
        for name in ("aggregate.csv", "final_lambdas.csv", "run_000.csv", "run_001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_output_dir_created_recursively(self, tmp_path):
        nested = tmp_path / "deep" / "er" / "out"
        run_experiment(small_config(runs=1, outputs=nested))
        assert (nested / "aggregate.csv").exists()
        assert not (nested / ".write_probe").exists()

    def test_unwritable_target_fails_before_computing(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory\n")
        with pytest.raises(OSError):
            prepare_output_dir(blocker)
        config = small_config(runs=1, outputs=blocker)
        with pytest.raises(OSError):
            run_experiment(config)


class TestSweep:
    def test_reliability_sweep(self, tmp_path):
        config = small_config(runs=2, outputs=tmp_path / "sweep")
        points = sweep(config, "w", [0.6, 1.0])
        assert [p.value for p in points] == [0.6, 1.0]
        assert all(isinstance(p, SweepPoint) for p in points)
        assert (tmp_path / "sweep" / "w_0.6" / "aggregate.csv").exists()
        assert (tmp_path / "sweep" / "w_1" / "aggregate.csv").exists()

    def test_point_matches_a_direct_run(self):
        config = small_config(runs=2)
        (point,) = sweep(config, "h", [0.05])
        direct = run_experiment(
            replace(config, game=replace(config.game, rate=0.05))
        )
        assert point.final_mean == direct.aggregate.mean_of_means[-1]
        assert point.final_sd == direct.aggregate.mean_sd[-1]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "q", [0.1])

    def test_empty_values_yield_no_points(self):
        assert sweep(small_config(), "w", []) == []

    def test_values_naming_one_subdirectory_are_rejected_before_running(self, tmp_path):
        config = small_config(outputs=tmp_path / "d")
        with pytest.raises(ValueError, match="both format as 0.1"):
            sweep(config, "w", [0.1, 0.1000001])
        with pytest.raises(ValueError, match="both format as 0.5"):
            compare_models(config, [0.5, 0.5])
        assert not (tmp_path / "d").exists()

    def test_invalid_value_is_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError, match="reliability must lie in"):
            sweep(small_config(outputs=tmp_path / "d"), "w", [0.5, 1.5])
        assert not (tmp_path / "d").exists()


class TestCompareModels:
    def test_rules_coincide_at_full_reliability(self, tmp_path):
        config = small_config(runs=2, outputs=tmp_path / "cmp")
        (row,) = compare_models(config, [1.0])
        assert isinstance(row, ModelComparison)
        assert row.reliability == 1.0
        # with w=1 any defined target updates under both rules
        assert row.model1_mean == row.model2_mean
        assert row.model1_sd == row.model2_sd
        assert (tmp_path / "cmp" / "model1_w_1" / "aggregate.csv").exists()
        assert (tmp_path / "cmp" / "model2_w_1" / "aggregate.csv").exists()

    def test_rules_differ_at_partial_reliability(self):
        config = small_config(runs=2, timesteps=15, rate=0.05)
        (row,) = compare_models(config, [0.6])
        assert row.model1_mean != row.model2_mean


class TestValidatePredictions:
    def test_requires_the_unconditional_rule(self):
        with pytest.raises(ValueError):
            validate_predictions(small_config(model=1), [0.01])
        with pytest.raises(ValueError):
            validate_predictions(
                small_config(model=2, schedule="unordered"), [0.01]
            )

    def test_per_agent_reliability_rejected_before_running(self, tmp_path):
        config = small_config(
            model=2, reliability=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
            outputs=tmp_path / "val",
        )
        with pytest.raises(ValueError, match="one reliability"):
            validate_predictions(config, [0.01])
        assert not (tmp_path / "val").exists()

    def test_zero_samples_rejected_before_running(self, tmp_path):
        config = small_config(model=2, outputs=tmp_path / "val")
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            validate_predictions(config, [0.01], n_samples=0)
        assert not (tmp_path / "val").exists()

    def test_rows_carry_consistent_curves(self, tmp_path):
        config = small_config(
            model=2, n_agents=30, timesteps=10, runs=3, outputs=tmp_path / "val"
        )
        rows = validate_predictions(config, [0.05, 0.02], n_samples=50_000)
        assert [row.rate for row in rows] == [0.05, 0.02]
        for row in rows:
            assert row.times.tolist() == list(range(11))
            assert np.array_equal(row.update_steps, row.times * 29)
            assert row.predicted_mean[0] == pytest.approx(row.empirical_mean[0], abs=1e-15)
            assert row.predicted_variance[0] == pytest.approx(row.empirical_variance[0], abs=1e-15)
            assert row.sup_mean_deviation == pytest.approx(
                float(np.max(np.abs(row.empirical_mean - row.predicted_mean))), abs=1e-15
            )
            assert row.sup_variance_deviation >= 0.0
        assert (tmp_path / "val" / "h_0.05" / "aggregate.csv").exists()
        assert (tmp_path / "val" / "h_0.02" / "aggregate.csv").exists()
