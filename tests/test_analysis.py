"""Region geometry, target moments, and closed-form convergence predictions."""

import math
from functools import partial

import numpy as np
import pytest

from labelgames import analysis
from labelgames.analysis import (
    Environment,
    EstimationError,
    NonConvergenceError,
    Prediction,
    RunningMoments,
    build_prediction,
    estimate_target_moments,
    mean_trajectory,
    positive_update_probability,
    positive_update_probability_mc,
    resting_variance,
    steps_to_mean_convergence,
    steps_to_variance_convergence,
    variance_trajectory,
)
from labelgames.experiment import mix_seed
from labelgames.game import (
    ASSERTION_ORDER,
    AssertionIndex,
    ConfigError,
    choose_assertion,
    implied_weight,
    update_directions,
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

LABELS = canonical_label_pair()


def random_box_envs(count, seed):
    """Axis-aligned boxes with sides of length at least 0.05."""
    rng = np.random.default_rng(seed)
    envs = []
    for _ in range(count):
        spans = []
        for _ in range(2):
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(rng.uniform(lo + 0.05, 1.0))
            spans.append((lo, hi))
        envs.append(Environment(tuple(spans)))
    return envs


def generator_state(rng):
    """The whole state of a numpy Generator, arrays included, to tell whether it drew; None for anything else."""
    return rng.bit_generator.state if isinstance(rng, np.random.Generator) else None


class TestClassifyRegion:
    """Quadrants through ``choose_assertion`` at weight 1/2, directions through ``update_directions``."""

    def test_quadrants(self):
        assert choose_assertion(0.5, LABELS, (0.8, 0.6)) is AssertionIndex.BOTH
        assert choose_assertion(0.5, LABELS, (0.8, 0.2)) is AssertionIndex.ONLY_FIRST
        assert choose_assertion(0.5, LABELS, (0.2, 0.8)) is AssertionIndex.ONLY_SECOND
        assert choose_assertion(0.5, LABELS, (0.2, 0.1)) is AssertionIndex.NEITHER

    def test_half_lines_count_as_positive_side(self):
        assert choose_assertion(0.5, LABELS, (0.5, 0.5)) is AssertionIndex.BOTH
        assert choose_assertion(0.5, LABELS, (0.5, 0.2)) is AssertionIndex.ONLY_FIRST

    def test_directions_within_quadrants(self):
        xs = np.array([
            (0.9, 0.6), (0.6, 0.9), (0.9, 0.3), (0.6, 0.1),
            (0.1, 0.6), (0.4, 0.9), (0.1, 0.3), (0.3, 0.1),
        ])
        assert update_directions(xs).tolist() == [1, -1, 1, -1, 1, -1, 1, -1]

    def test_boundaries(self):
        xs = np.array([(0.7, 0.7), (0.6, 0.4), (0.2, 0.2)])
        assert update_directions(xs).tolist() == [0, 0, 0]

    def test_vectorised_directions_agree(self):
        # The scalar route: the quadrant a speaker of weight 1/2 asserts and
        # the implied weight at full reliability, 1 for an upward pull, 0
        # for a downward one, and undefined on the boundary.
        rng = np.random.default_rng(31)
        xs = rng.random((500, 2))
        dirs = update_directions(xs)
        for (x1, x2), d in zip(xs.tolist(), dirs.tolist()):
            asserted = choose_assertion(0.5, LABELS, (x1, x2))
            assert asserted is ASSERTION_ORDER[2 * (x1 < 0.5) + (x2 < 0.5)]
            target = implied_weight(asserted, LABELS, (x1, x2), 1.0)
            assert d == (0 if target is None else 2 * target - 1)


class TestEnvironment:
    def test_defaults_to_the_unit_square(self):
        env = Environment()
        assert env.intervals == ((0.0, 1.0), (0.0, 1.0))
        assert env.area == 1.0

    def test_area(self, env_b):
        assert env_b.area == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            Environment(((0.5, 0.5), (0.0, 1.0)))
        with pytest.raises(ValueError):
            Environment(((0.8, 0.2), (0.0, 1.0)))
        with pytest.raises(ValueError):
            Environment(((0.0, 1.2), (0.0, 1.0)))
        with pytest.raises(ValueError):
            Environment(((-0.1, 0.5), (0.0, 1.0)))

    def test_needs_exactly_two_intervals(self):
        for intervals in (((0.0, 1.0),), ((0.0, 1.0),) * 3):
            with pytest.raises(ValueError, match="two intervals"):
                Environment(intervals)

    def test_samples_stay_inside_the_box(self, env_b):
        xs = env_b.sample_batch(np.random.default_rng(0), 1000)
        assert xs.shape == (1000, 2)
        assert xs[:, 0].min() >= 0.25 and xs[:, 0].max() < 0.75
        assert xs[:, 1].min() >= 0.0 and xs[:, 1].max() < 0.5

    def test_draws_one_dimension_at_a_time(self, env_b):
        got = env_b.sample_batch(np.random.default_rng(5), 16)
        rng = np.random.default_rng(5)
        want = np.empty((16, 2))
        want[:, 0] = 0.25 + 0.5 * rng.random(16)
        want[:, 1] = 0.5 * rng.random(16)
        assert np.array_equal(got, want)


class TestPositiveShare:
    def test_half_square_environment(self, env_a):
        assert positive_update_probability(env_a) == pytest.approx(0.5, abs=1e-12)

    def test_centred_band_environment(self, env_b):
        assert positive_update_probability(env_b) == pytest.approx(0.25, abs=1e-12)

    def test_unit_square_by_symmetry(self):
        assert positive_update_probability(Environment()) == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_agrees_for_random_boxes(self):
        for k, env in enumerate(random_box_envs(5, seed=200)):
            analytic = positive_update_probability(env)
            estimate, se = positive_update_probability_mc(
                env, 100_000, np.random.default_rng(300 + k)
            )
            assert abs(analytic - estimate) <= 3.0 * se + 1e-12

    def test_monte_carlo_validates_sample_count(self, env_a):
        with pytest.raises(ValueError):
            positive_update_probability_mc(env_a, 0, np.random.default_rng(0))


class TestRunningMoments:
    def test_matches_numpy_on_one_shot(self):
        data = np.random.default_rng(1).random(1000)
        acc = RunningMoments()
        acc.update(data)
        assert acc.count == 1000
        assert acc.mean == pytest.approx(float(data.mean()), abs=1e-14)
        assert acc.variance == pytest.approx(float(data.var(ddof=1)), rel=1e-12)

    def test_shard_order_does_not_matter(self):
        data = np.random.default_rng(2).random(999)
        shards = np.array_split(data, 7)
        forward = RunningMoments()
        for shard in shards:
            forward.update(shard)
        backward = RunningMoments()
        for shard in reversed(shards):
            backward.update(shard)
        assert forward.mean == pytest.approx(backward.mean, abs=1e-14)
        assert forward.variance == pytest.approx(backward.variance, rel=1e-12)
        assert forward.variance == pytest.approx(float(data.var(ddof=1)), rel=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 9, 129, 1001])
    def test_a_batch_keeps_the_bits_of_numpys_reduction(self, size):
        # The estimators' differential tests share RunningMoments with their
        # reference, so this pins its reduction: numpy's pairwise sum of the
        # squared deviations from the batch mean, in order.  Sizes reach
        # past the sum's 8-wide unrolling and its 128-element blocks.
        values = np.random.default_rng(size).random(size) * 3.0 - 1.0
        given = values.copy()
        acc = RunningMoments()
        acc.update(values)
        assert acc.mean.hex() == float(values.mean()).hex()
        assert acc.sum_sq_dev.hex() == float(np.square(values - values.mean()).sum()).hex()
        assert values.tobytes() == given.tobytes()  # the batch itself is left alone
        # Deviations written into a longer buffer the caller passes, off
        # its alignment, give the same bits.
        into = RunningMoments()
        into.update(values, np.empty(size + 3)[1:])
        assert (into.mean.hex(), into.sum_sq_dev.hex()) == (acc.mean.hex(), acc.sum_sq_dev.hex())

    def test_small_counts(self):
        acc = RunningMoments()
        assert acc.variance == 0.0
        acc.update(np.array([0.4]))
        assert acc.count == 1 and acc.variance == 0.0
        acc.update(np.array([]))
        assert acc.count == 1


# A label whose membership is 0 on [0, 0.9]: its negation fits every
# observation there fully.
FAR = Label((1.0,), WeightedCityBlock((10.0,)), UniformThreshold(), ConceptualSpace(1))


class TestTargetMoments:
    def test_full_reliability_band_environment(self, env_b):
        moments = estimate_target_moments(env_b, reliability=1.0, model=2, n_samples=200_000)
        assert moments.count == 200_000
        assert moments.mean == pytest.approx(0.25, abs=0.004)
        assert moments.variance == pytest.approx(0.1875, abs=0.004)

    def test_full_reliability_mean_matches_positive_share(self, env_a):
        moments = estimate_target_moments(env_a, reliability=1.0, model=2, n_samples=200_000)
        assert moments.mean == pytest.approx(positive_update_probability(env_a), abs=0.005)

    def test_degenerate_positive_point(self):
        # Every observation fits not-FAR fully and the second label by x2 < 1,
        # so every target is (1 - x2) / (1 - x2) = 1.
        env = Environment(((0.0, 0.5), (0.6, 1.0)))
        moments = estimate_target_moments(
            env, reliability=1.0, model=2, n_samples=10_000, labels=(FAR, LABELS[1])
        )
        assert moments.mean == 1.0
        assert moments.variance == 0.0

    def test_thin_box_behaves_like_a_point(self):
        env = Environment(((0.9, 0.9 + 1e-9), (0.6, 0.6 + 1e-9)))
        moments = estimate_target_moments(env, reliability=1.0, model=2, n_samples=10_000)
        assert moments.mean == 1.0
        assert moments.variance == 0.0

    def test_no_usable_samples_raises(self):
        # Both negations fit every observation fully, so no weight is implied.
        env = Environment(((0.0, 0.5), (0.0, 0.5)))
        for model in (1, 2):
            with pytest.raises(EstimationError):
                estimate_target_moments(
                    env, reliability=1.0, model=model, n_samples=1000, labels=(FAR, FAR)
                )

    def test_validation(self, env_a):
        with pytest.raises(ValueError):
            estimate_target_moments(env_a, model=3)
        with pytest.raises(ValueError):
            estimate_target_moments(env_a, n_samples=0)

    @pytest.mark.parametrize("model", [1, 2])
    @pytest.mark.parametrize("reliability", [math.nan, 1.5, -0.2])
    def test_bad_reliability_rejected_before_the_first_draw(self, env_b, model, reliability):
        for estimate in (estimate_target_moments, partial(build_prediction, rate=1e-3)):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            with pytest.raises(ConfigError, match="reliability must lie in"):
                estimate(env_b, reliability=reliability, model=model, n_samples=1000, rng=rng)
            assert rng.bit_generator.state == before

    # Each Monte Carlo entry point, its checked arguments and their valid values; unless
    # ``rng`` is the refused argument, a fresh PCG64 generator is passed as ``rng``.
    MC_ENTRY_POINTS = [
        (estimate_target_moments,
         {"reliability": 1.0, "model": 2, "n_samples": 1000, "labels": None, "rng": None}),
        (build_prediction,
         {"rate": 1e-3, "reliability": 1.0, "model": 2, "n_samples": 1000, "labels": None, "rng": None}),
        (positive_update_probability_mc, {"n_samples": 1000, "rng": np.random.default_rng(5)}),
    ]

    @pytest.mark.parametrize("field, value", [
        ("reliability", (1.0, 0.5)), ("reliability", [1.0]), ("reliability", "1"),
        ("reliability", True), ("reliability", np.array([1.0])),
        ("model", 2.0), ("model", 3), ("model", True), ("model", "2"),
        ("n_samples", 10.5), ("n_samples", 0), ("n_samples", True), ("n_samples", None),
        ("rate", "0.1"), ("rate", 0.0), ("rate", 1.0), ("rate", math.nan), ("rate", True),
        # A label space narrower than the box, labels that are not labels, one label, a label
        # whose membership the compiled loop cannot compute.
        ("labels", (canonical_label(0.5),) * 2), ("labels", (1, 2)), ("labels", (canonical_label(),)),
        ("labels", (FAR, Label((1.0,), Euclidean(), ThresholdDistribution(lambda t: 1.0 - t), ConceptualSpace(1)))),
        # No generator, where one is required, and generators the compiled library cannot step.
        ("rng", None), ("rng", 5),
        ("rng", np.random.Generator(np.random.MT19937(5))), ("rng", np.random.Generator(np.random.PCG64DXSM(5))),
    ])
    def test_refused_argument_leaves_the_generator_untouched(self, env_b, field, value):
        for estimate, valid in self.MC_ENTRY_POINTS:
            if field not in valid or value is None and valid[field] is None:
                continue  # None is the default there
            arguments = {**valid, "rng": np.random.default_rng(5), field: value}
            before = generator_state(arguments["rng"])
            with pytest.raises(ConfigError) as info:
                estimate(env_b, **arguments)
            assert info.value.field == field
            np.testing.assert_equal(generator_state(arguments["rng"]), before)

    def test_model_1_refuses_samples_past_physical_memory_before_any_draw(self, env_b, monkeypatch):
        # Model 1 holds 32 bytes per sample at once; model 2 streams its samples.
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 32 * 1000 - 1)
        for estimate in (estimate_target_moments, partial(build_prediction, rate=1e-3)):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            with pytest.raises(ConfigError, match="n_samples = 1000") as info:
                estimate(env_b, model=1, n_samples=1000, rng=rng)
            assert info.value.field == "n_samples"
            assert rng.bit_generator.state == before
        assert estimate_target_moments(env_b, model=1, n_samples=999).count > 0
        assert estimate_target_moments(env_b, model=2, n_samples=1000).count > 0

    def test_streaming_estimate_matches_direct_computation(self, env_b):
        from labelgames.game import batch_implied_weights
        from labelgames.labels import canonical_label_pair

        moments = estimate_target_moments(env_b, model=2, n_samples=30_000,
                                          rng=np.random.default_rng(9))
        xs = env_b.sample_batch(np.random.default_rng(9), 30_000)
        targets, usable, _, _ = batch_implied_weights(canonical_label_pair(), xs, 1.0)
        kept = targets[usable]
        assert moments.count == kept.size
        assert moments.mean == pytest.approx(float(kept.mean()), abs=1e-14)
        assert moments.variance == pytest.approx(float(kept.var(ddof=1)), rel=1e-12)


class TestRestrictedFixedPoint:
    def test_full_reliability_reduces_to_positive_share(self, env_a):
        moments = estimate_target_moments(
            env_a, reliability=1.0, model=1, n_samples=200_000, rng=np.random.default_rng(41)
        )
        assert moments.mean == pytest.approx(0.5, abs=0.005)

    def test_zero_reliability_never_updates(self, env_a):
        with pytest.raises(NonConvergenceError):
            estimate_target_moments(
                env_a, reliability=0.0, model=1, n_samples=10_000, rng=np.random.default_rng(0)
            )

    def test_restricted_moments_condition_on_the_resting_weight(self, env_b):
        moments = estimate_target_moments(
            env_b, reliability=0.8, model=1, n_samples=1_000_000,
            rng=np.random.default_rng(mix_seed(0, 1 << 32)),
        )
        assert moments.count == 800996
        assert moments.mean == pytest.approx(0.3647571364802597, abs=1e-12)
        # An independent numerical integration of the self-consistency
        # condition gives 0.36475583061225303.
        assert abs(moments.mean - 0.36475583061225303) < 5e-6
        assert moments.variance == pytest.approx(0.19295141594587348, abs=1e-12)
        assert moments.count < 1_000_000


class TestTrajectories:
    def test_mean_trajectory_example(self):
        got = mean_trajectory(0.5, 0.25, 1e-3, 2000)
        assert got == pytest.approx(0.28379998134937484, abs=1e-12)

    def test_variance_trajectory_example(self):
        got = variance_trajectory(1.0 / 12.0, 0.1875, 1e-3, 1000)
        assert got == pytest.approx(0.011347776014567993, abs=1e-12)

    def test_step_zero_returns_the_start(self):
        assert mean_trajectory(0.42, 0.25, 1e-3, 0) == 0.42
        assert variance_trajectory(0.07, 0.1875, 1e-3, 0) == pytest.approx(0.07, abs=1e-15)

    def test_long_run_limits(self):
        assert mean_trajectory(0.9, 0.25, 1e-2, 10_000) == pytest.approx(0.25, abs=1e-12)
        rest = resting_variance(1e-2, 0.1875)
        assert variance_trajectory(0.08, 0.1875, 1e-2, 10_000) == pytest.approx(rest, abs=1e-12)

    def test_mean_satisfies_the_one_step_recurrence(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            start, target = rng.random(2)
            rate = float(rng.uniform(1e-4, 0.5))
            t = int(rng.integers(0, 500))
            stepped = mean_trajectory(start, target, rate, t + 1)
            recurred = (1.0 - rate) * mean_trajectory(start, target, rate, t) + rate * target
            assert stepped == pytest.approx(recurred, rel=1e-12, abs=1e-15)

    def test_variance_satisfies_the_one_step_recurrence(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            start = float(rng.uniform(0.0, 0.25))
            tvar = float(rng.uniform(0.0, 0.25))
            rate = float(rng.uniform(1e-4, 0.5))
            t = int(rng.integers(0, 500))
            stepped = variance_trajectory(start, tvar, rate, t + 1)
            recurred = (1.0 - rate) ** 2 * variance_trajectory(start, tvar, rate, t) + rate**2 * tvar
            assert stepped == pytest.approx(recurred, rel=1e-10, abs=1e-15)

    def test_array_steps(self):
        ts = np.array([0, 10, 100])
        means = mean_trajectory(0.5, 0.25, 1e-3, ts)
        assert means.shape == (3,)
        assert means[0] == 0.5
        variances = variance_trajectory(0.08, 0.1875, 1e-3, ts)
        assert variances.shape == (3,)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            mean_trajectory(0.5, 0.25, 0.0, 10)
        with pytest.raises(ValueError):
            variance_trajectory(0.08, 0.1875, 1.0, 10)


class TestConvergenceCounts:
    def test_mean_step_count_example(self):
        assert steps_to_mean_convergence(0.5, 0.25, 1e-3, 0.01) == 3218

    def test_variance_step_count_example(self):
        start = 0.08 + resting_variance(1e-3, 0.1875)
        assert steps_to_variance_convergence(start, 0.1875, 1e-3, 1e-4) == 3341

    def test_counts_are_tight(self):
        t = steps_to_mean_convergence(0.5, 0.25, 1e-3, 0.01)
        assert abs(mean_trajectory(0.5, 0.25, 1e-3, t) - 0.25) <= 0.01
        assert abs(mean_trajectory(0.5, 0.25, 1e-3, t - 1) - 0.25) > 0.01
        start = 0.08 + resting_variance(1e-3, 0.1875)
        tv = steps_to_variance_convergence(start, 0.1875, 1e-3, 1e-4)
        rest = resting_variance(1e-3, 0.1875)
        assert abs(variance_trajectory(start, 0.1875, 1e-3, tv) - rest) <= 1e-4
        assert abs(variance_trajectory(start, 0.1875, 1e-3, tv - 1) - rest) > 1e-4

    def test_zero_steps_when_already_converged(self):
        assert steps_to_mean_convergence(0.251, 0.25, 1e-3, 0.01) == 0
        assert steps_to_variance_convergence(0.01, 0.1875, 1e-2, 1.0) == 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            steps_to_mean_convergence(0.5, 0.25, 1e-3, 0.0)
        with pytest.raises(ValueError):
            steps_to_variance_convergence(0.08, 0.1875, 1e-3, -1.0)


class TestRestingVariance:
    def test_formula(self):
        assert resting_variance(1e-3, 0.1875) == pytest.approx(1e-3 / 1.999 * 0.1875, abs=1e-18)

    def test_validation(self):
        with pytest.raises(ValueError):
            resting_variance(0.0, 0.1875)


class TestPrediction:
    def test_bundle_is_consistent(self, env_b):
        pred = build_prediction(env_b, rate=1e-3, model=2, n_samples=100_000)
        assert isinstance(pred, Prediction)
        assert pred.positive_share == pytest.approx(0.25, abs=1e-12)
        assert pred.resting_mean == pred.target_mean
        assert pred.resting_variance == pytest.approx(
            resting_variance(1e-3, pred.target_variance), abs=1e-18
        )
        assert pred.sample_count == 100_000

    def test_helpers_delegate(self, env_b):
        pred = build_prediction(env_b, rate=1e-3, model=2, n_samples=50_000)
        assert pred.mean_at(0.5, 0) == 0.5
        assert pred.mean_at(0.5, 100) == pytest.approx(
            mean_trajectory(0.5, pred.resting_mean, 1e-3, 100), abs=1e-15
        )
        assert pred.steps_to_mean(0.5, 0.01) == steps_to_mean_convergence(
            0.5, pred.resting_mean, 1e-3, 0.01
        )
        assert pred.steps_to_variance(1.0 / 12.0, 1e-4) == steps_to_variance_convergence(
            1.0 / 12.0, pred.target_variance, 1e-3, 1e-4
        )

    def test_repeated_default_builds_agree(self, env_b):
        a = build_prediction(env_b, rate=1e-2, model=2, n_samples=20_000)
        b = build_prediction(env_b, rate=1e-2, model=2, n_samples=20_000)
        assert a == b

    def test_model_one_uses_the_restricted_fixed_point(self, env_b):
        pred = build_prediction(env_b, rate=1e-3, reliability=1.0, model=1, n_samples=100_000)
        assert pred.resting_mean == pytest.approx(0.25, abs=0.01)

    def test_rate_validation(self, env_b):
        with pytest.raises(ValueError):
            build_prediction(env_b, rate=0.0)
