"""Dialogue mechanics, the sequential reference and the stacked kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import engine, game
from labelgames.analysis import Environment, update_directions
from labelgames.experiment import ExperimentConfig, run_experiment
from labelgames.game import (
    ASSERTION_ORDER,
    AssertionIndex,
    ConfigError,
    GameConfig,
    batch_implied_weights,
    choose_assertion,
    dialogues_per_timestep,
    implied_weight,
    run_dialogue,
)
from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    UniformThreshold,
    canonical_label_pair,
)
from spec import assert_matches_spec

LABELS = canonical_label_pair()


def reference_dialogue(w_speaker, w_listener, reliability, x, rate, model):
    """The listener's weight after one dialogue played by ``_apply_sequential``."""
    m1, m2 = game._memberships(LABELS, np.array([x]))
    after = game._apply_sequential(
        np.array([w_speaker, w_listener]), np.array([reliability, 0.0]),
        m1, m2, np.array([0]), np.array([1]), rate, model,
    )
    return after[1]


class TestAssertionIndex:
    def test_sign_table(self):
        assert AssertionIndex.BOTH.signs == (True, True)
        assert AssertionIndex.ONLY_FIRST.signs == (True, False)
        assert AssertionIndex.ONLY_SECOND.signs == (False, True)
        assert AssertionIndex.NEITHER.signs == (False, False)

    def test_tie_break_order(self):
        assert ASSERTION_ORDER[0] is AssertionIndex.BOTH
        assert len(ASSERTION_ORDER) == 4


class TestAgentState:
    """An agent is a weight and a reliability, both floats in [0, 1]."""

    def test_valid_state(self):
        # Both ends of [0, 1] are valid for every float the wrappers take.
        # At weight 0 or 1 one label decides, and ties go first.
        assert choose_assertion(0.0, LABELS, (0.8, 0.2)) is AssertionIndex.ONLY_FIRST
        assert choose_assertion(1.0, LABELS, (0.8, 0.2)) is AssertionIndex.BOTH
        after, _, target = run_dialogue(1.0, 0.0, 0.0, LABELS, (0.8, 0.6), 1e-3, 2)
        assert target == 0.0 and after == 0.0
        after, _, target = run_dialogue(0.0, 1.0, 1.0, LABELS, (0.8, 0.6), 1e-3, 1)
        assert target == 1.0 and after == 1.0

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match="weight"):
                choose_assertion(bad, LABELS, (0.8, 0.6))
            with pytest.raises(ValueError, match="w_speaker"):
                run_dialogue(bad, 0.5, 1.0, LABELS, (0.8, 0.6), 1e-3, 1)
            with pytest.raises(ValueError, match="w_listener"):
                run_dialogue(0.5, bad, 1.0, LABELS, (0.8, 0.6), 1e-3, 1)
            with pytest.raises(ValueError, match="reliability"):
                run_dialogue(0.5, 0.5, bad, LABELS, (0.8, 0.6), 1e-3, 1)
            with pytest.raises(ConfigError, match="reliability"):
                implied_weight(AssertionIndex.BOTH, LABELS, (0.3, 0.8), bad)
        for bad in (5.0, "1", True):
            with pytest.raises(ConfigError, match="reliability"):
                implied_weight(AssertionIndex.BOTH, LABELS, (0.3, 0.8), bad)
        for rate in (2.0, 1.0, 0.0, float("nan"), "0.1", True):
            with pytest.raises(ConfigError, match="rate") as info:
                run_dialogue(0.5, 0.5, 1.0, LABELS, (0.3, 0.8), rate, 2)
            assert info.value.field == "rate"
        for model in (3, 0, 2.0, True):
            with pytest.raises(ConfigError, match="model must be 1 or 2") as info:
                run_dialogue(0.5, 0.5, 1.0, LABELS, (0.3, 0.8), 0.1, model)
            assert info.value.field == "model"


class TestGameConfig:
    def test_defaults(self):
        cfg = GameConfig()
        assert cfg.n_agents == 10
        assert cfg.timesteps == 2000
        assert cfg.rate == pytest.approx(1e-3)
        assert cfg.model == 1
        assert cfg.schedule == "ordered"

    def test_validation(self):
        with pytest.raises(ValueError):
            GameConfig(n_agents=1)
        with pytest.raises(ValueError):
            GameConfig(rate=0.0)
        with pytest.raises(ValueError):
            GameConfig(rate=1.0)
        with pytest.raises(ValueError):
            GameConfig(model=3)
        with pytest.raises(ValueError):
            GameConfig(reliability=1.5)
        with pytest.raises(ValueError):
            GameConfig(reliability=(1.0,) * 3, n_agents=4)
        with pytest.raises(ValueError):
            GameConfig(weight_init=1.5)
        with pytest.raises(ValueError):
            GameConfig(weight_init=(0.5,) * 3, n_agents=4)
        with pytest.raises(ValueError):
            GameConfig(schedule="random")

    def test_rejects_labels_off_the_unit_square(self):
        two_dim = Label(
            prototype=(1.0, 1.0),
            metric=Euclidean(),
            threshold=UniformThreshold(2.0),
            space=ConceptualSpace(2),
        )
        with pytest.raises(ValueError):
            GameConfig(labels=(two_dim, two_dim))


class TestInitPopulation:
    def test_uniform_draw_is_reproducible(self):
        cfg = GameConfig(n_agents=5)
        weights, rels = game._initial_state(cfg, np.random.default_rng(3))
        assert weights.tolist() == np.random.default_rng(3).random(5).tolist()
        assert rels.tolist() == [1.0] * 5

    def test_fixed_and_per_agent_init(self):
        cfg = GameConfig(n_agents=3, weight_init=0.25)
        assert game._initial_state(cfg, np.random.default_rng(0))[0].tolist() == [0.25] * 3
        cfg = GameConfig(n_agents=3, weight_init=(0.1, 0.2, 0.3), reliability=(1.0, 0.5, 0.9))
        weights, rels = game._initial_state(cfg, np.random.default_rng(0))
        assert weights.tolist() == [0.1, 0.2, 0.3]
        assert rels.tolist() == [1.0, 0.5, 0.9]


class TestScheduleSize:
    def test_ordered_pair_count(self):
        assert dialogues_per_timestep(10) == 90
        assert dialogues_per_timestep(2) == 2
        assert dialogues_per_timestep(np.int64(3)) == 6

    @pytest.mark.parametrize("n_agents", [2.5, 2.0, 1, 0, -3, True, "10", None])
    def test_needs_an_integer_count_of_at_least_two(self, n_agents):
        for schedule in ("ordered", "unordered"):
            with pytest.raises(ConfigError) as info:
                dialogues_per_timestep(n_agents, schedule)
            assert info.value.field == "n_agents"

    def test_unordered_pair_count(self):
        assert dialogues_per_timestep(10, "unordered") == 45
        for schedule in ("weekly", None, ["ordered"], np.array(["ordered", "unordered"])):
            with pytest.raises(ConfigError) as info:
                dialogues_per_timestep(10, schedule)
            assert info.value.field == "schedule"


class TestScheduleDraw:
    @pytest.mark.parametrize("schedule", ["ordered", "unordered"])
    def test_every_size_draws_the_documented_pair_order(self, schedule):
        # Ordered pairs are speaker-major, listeners ascending; unordered
        # ones row-major i < j, and a coin below 1/2 keeps i as speaker.
        pairs_of = itertools.permutations if schedule == "ordered" else itertools.combinations
        for n in range(2, 151):
            flat = itertools.chain.from_iterable(pairs_of(range(n), 2))
            pairs = np.fromiter(flat, int).reshape(-1, 2)
            seeds = (n, 1000 + n)
            speakers, listeners = game._draw_schedule(
                n, schedule, [np.random.default_rng(seed) for seed in seeds]
            )
            for run, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                want = pairs[rng.permutation(len(pairs))]
                if schedule == "unordered":
                    tails = rng.random(len(pairs)) >= 0.5
                    want[tails] = want[tails, ::-1]
                block = slice(run * len(pairs), (run + 1) * len(pairs))
                assert speakers.dtype == listeners.dtype == np.int32
                assert np.array_equal(speakers[block], want[:, 0] + run * n), (n, run)
                assert np.array_equal(listeners[block], want[:, 1] + run * n), (n, run)


class TestChooseAssertion:
    def test_dominant_first_dimension(self):
        got = choose_assertion(0.5, LABELS, (0.8, 0.2))
        assert got is AssertionIndex.ONLY_FIRST

    def test_both_dimensions_high(self):
        got = choose_assertion(0.5, LABELS, (0.6, 0.7))
        assert got is AssertionIndex.BOTH

    def test_both_dimensions_low(self):
        got = choose_assertion(0.5, LABELS, (0.2, 0.3))
        assert got is AssertionIndex.NEITHER

    def test_centre_tie_goes_to_first_in_order(self):
        got = choose_assertion(0.5, LABELS, (0.5, 0.5))
        assert got is AssertionIndex.BOTH

    def test_interior_weight_does_not_change_the_assertion(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = tuple(rng.random(2))
            a = choose_assertion(0.25, LABELS, x)
            b = choose_assertion(0.75, LABELS, x)
            assert a is b

    def test_asserted_membership_at_least_one_half(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = tuple(rng.random(2))
            lam = float(rng.random())
            asserted = choose_assertion(lam, LABELS, x)
            s1, s2 = asserted.signs
            m1 = LABELS[0].membership(x[0])
            m2 = LABELS[1].membership(x[1])
            mu = lam * (m1 if s1 else 1.0 - m1) + (1.0 - lam) * (m2 if s2 else 1.0 - m2)
            assert mu >= 0.5 - 1e-15


class TestImpliedWeight:
    def test_clamped_to_one(self):
        got = implied_weight(AssertionIndex.BOTH, LABELS, (0.8, 0.6), 1.0)
        assert got == 1.0

    def test_clamped_to_zero(self):
        got = implied_weight(AssertionIndex.BOTH, LABELS, (0.6, 0.8), 1.0)
        assert got == 0.0

    def test_interior_solution(self):
        got = implied_weight(AssertionIndex.BOTH, LABELS, (0.8, 0.6), 0.7)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_undefined_on_equal_memberships(self):
        assert implied_weight(AssertionIndex.BOTH, LABELS, (0.6, 0.6), 1.0) is None

    def test_negated_signs_enter_the_solution(self):
        # ONLY_FIRST at (0.8, 0.6): mu pair is (0.8, 0.4)
        got = implied_weight(AssertionIndex.ONLY_FIRST, LABELS, (0.8, 0.6), 0.6)
        assert got == pytest.approx(0.5, abs=1e-12)


class TestApplyUpdate:
    """The update w + rate * (target - w), through ``run_dialogue`` and the reference."""

    def test_small_step_toward_one(self):
        after, _, target = run_dialogue(0.9, 0.4, 1.0, LABELS, (0.8, 0.6), 1e-3, 1)
        assert target == 1.0
        assert after == pytest.approx(0.4006, abs=1e-12)
        assert after == reference_dialogue(0.9, 0.4, 1.0, (0.8, 0.6), 1e-3, 1)

    def test_fixed_point(self):
        # BOTH at memberships (0.75, 0.5) with reliability 0.625 implies
        # exactly 0.5, and a listener at 0.5 fits it exactly, so model 1
        # updates and the weight stays put.
        after, asserted, target = run_dialogue(0.5, 0.5, 0.625, LABELS, (0.75, 0.5), 1e-3, 1)
        assert asserted is AssertionIndex.BOTH
        assert target == 0.5
        assert after == 0.5
        assert after == reference_dialogue(0.5, 0.5, 0.625, (0.75, 0.5), 1e-3, 1)

    def test_step_toward_zero(self):
        after, _, target = run_dialogue(0.9, 0.8, 1.0, LABELS, (0.6, 0.8), 0.01, 1)
        assert target == 0.0
        assert after == pytest.approx(0.792, abs=1e-12)
        assert after == reference_dialogue(0.9, 0.8, 1.0, (0.6, 0.8), 0.01, 1)


class TestRunDialogue:
    def test_model_one_updates_under_full_reliability(self):
        after, asserted, target = run_dialogue(0.9, 0.4, 1.0, LABELS, (0.8, 0.6), 1e-3, 1)
        assert asserted is AssertionIndex.BOTH
        assert target == 1.0
        assert after == pytest.approx(0.4006, abs=1e-12)

    def test_model_one_skips_when_listener_membership_exceeds_reliability(self):
        after, _, target = run_dialogue(0.9, 0.4, 0.0, LABELS, (0.8, 0.6), 1e-3, 1)
        assert target is None
        assert after == 0.4

    def test_model_two_skips_on_exact_membership_match(self):
        # listener membership 0.5 * 0.8 + 0.5 * 0.6 equals the reliability exactly
        after, _, target = run_dialogue(0.9, 0.5, 0.7, LABELS, (0.8, 0.6), 1e-3, 2)
        assert target is None
        assert after == 0.5

    def test_model_two_updates_on_any_mismatch(self):
        after, _, target = run_dialogue(0.9, 0.5, 1.0, LABELS, (0.8, 0.6), 1e-3, 2)
        assert target == 1.0
        assert after == reference_dialogue(0.9, 0.5, 1.0, (0.8, 0.6), 1e-3, 2)

    def test_undefined_target_never_updates(self):
        after, _, target = run_dialogue(0.9, 0.4, 1.0, LABELS, (0.6, 0.6), 1e-3, 1)
        assert target is None
        assert after == 0.4

    def test_speakers_own_reliability_is_granted(self):
        # The reliability passed in is the speaker's; the listener has none here.
        after, _, target = run_dialogue(0.9, 0.1, 0.7, LABELS, (0.8, 0.6), 1e-3, 1)
        assert target == pytest.approx(0.5, abs=1e-12)
        assert after == reference_dialogue(0.9, 0.1, 0.7, (0.8, 0.6), 1e-3, 1)


class TestBatchImpliedWeights:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(21)
        xs = rng.random((500, 2))
        targets, usable, mu_first, mu_second = batch_implied_weights(LABELS, xs, 0.8)
        for k in range(xs.shape[0]):
            x = (float(xs[k, 0]), float(xs[k, 1]))
            asserted = choose_assertion(0.37, LABELS, x)
            scalar = implied_weight(asserted, LABELS, x, 0.8)
            if scalar is None:
                assert not usable[k]
            else:
                assert usable[k]
                assert targets[k] == scalar

    def test_full_reliability_targets_are_binary(self):
        rng = np.random.default_rng(22)
        xs = rng.random((2000, 2))
        targets, usable, _, _ = batch_implied_weights(LABELS, xs, 1.0)
        assert usable.all()
        assert np.isin(targets, (0.0, 1.0)).all()

    def test_sign_law_against_region_classification(self):
        rng = np.random.default_rng(23)
        xs = rng.random((2000, 2))
        targets, usable, _, _ = batch_implied_weights(LABELS, xs, 1.0)
        dirs = update_directions(xs)
        assert (dirs[usable] != 0).all()
        assert (targets[usable & (dirs > 0)] == 1.0).all()
        assert (targets[usable & (dirs < 0)] == 0.0).all()


def kernel_timestep(weights, rels, env, rate, model, rng, schedule="ordered"):
    """One run's timestep on the array kernel, drawn in the engine's order."""
    n = len(weights)
    speakers, listeners = game._draw_schedule(n, schedule, [rng])
    m1, m2 = game._memberships(LABELS, env.sample_batch(rng, speakers.size))
    return engine._stacked_timestep(
        weights, rels, m1, m2, speakers, listeners, rate, model, 1
    ).tolist()


def reference_timestep(weights, rels, env, rate, model, seed, schedule):
    """Re-draw the identical schedule and replay it strictly sequentially."""
    rng = np.random.default_rng(seed)
    speakers, listeners = game._draw_schedule(len(weights), schedule, [rng])
    m1, m2 = game._memberships(LABELS, env.sample_batch(rng, speakers.size))
    return game._apply_sequential(weights, rels, m1, m2, speakers, listeners, rate, model).tolist()


class TestRunTimestep:
    """One run's timestep: the engine's draw, the kernel and the reference."""

    def test_needs_two_agents(self):
        with pytest.raises(ValueError, match="n_agents must be at least 2"):
            ExperimentConfig(game=GameConfig(n_agents=1))

    def test_same_seed_reproduces_weights_exactly(self):
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        weights, rels = game._initial_state(GameConfig(n_agents=6), np.random.default_rng(5))
        first = kernel_timestep(weights, rels, env, 1e-3, 1, np.random.default_rng(9))
        second = kernel_timestep(weights, rels, env, 1e-3, 1, np.random.default_rng(9))
        assert first == second
        third = kernel_timestep(weights, rels, env, 1e-3, 1, np.random.default_rng(10))
        assert first != third

    @pytest.mark.parametrize("model", [1, 2])
    @pytest.mark.parametrize("schedule", ["ordered", "unordered"])
    @pytest.mark.parametrize("n_agents,reliability,seed", [
        (2, 1.0, 101),
        (5, 0.8, 102),
        (10, 1.0, 103),
        (7, 0.6, 104),
    ])
    def test_fast_path_matches_sequential_reference(self, model, schedule, n_agents, reliability, seed):
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        cfg = GameConfig(n_agents=n_agents, reliability=reliability, schedule=schedule, model=model)
        weights, rels = game._initial_state(cfg, np.random.default_rng(seed))
        got = kernel_timestep(weights, rels, env, 0.05, model, np.random.default_rng(seed + 1), schedule)
        want = reference_timestep(weights, rels, env, 0.05, model, seed + 1, schedule)
        assert got == want

    def test_weights_at_zero_and_one_match_the_reference(self):
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        weights, rels = np.array([0.0, 1.0, 0.5, 0.25]), np.ones(4)
        got = kernel_timestep(weights, rels, env, 1e-2, 1, np.random.default_rng(42))
        want = reference_timestep(weights, rels, env, 1e-2, 1, 42, "ordered")
        assert got == want

    def test_extreme_rate_near_the_upper_edge_stays_exact(self):
        # weights one ulp under 1 and a large rate put updates next to 1,
        # where the kernel must round as the reference does
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        edge = 1.0 - 2.0 ** -53
        weights, rels = np.array([edge, 0.5, edge, 1e-12, 0.9]), np.ones(5)
        got = kernel_timestep(weights, rels, env, 0.6, 1, np.random.default_rng(77))
        want = reference_timestep(weights, rels, env, 0.6, 1, 77, "ordered")
        assert got == want

    def test_chained_timesteps_share_one_generator(self):
        env = Environment(((0.25, 0.75), (0.0, 0.5)))
        w_fast, rels = game._initial_state(GameConfig(n_agents=6, model=2), np.random.default_rng(88))
        w_ref = w_fast
        rng_fast = np.random.default_rng(99)
        rng_ref = np.random.default_rng(99)
        for _ in range(3):
            w_fast = np.array(kernel_timestep(w_fast, rels, env, 0.02, 2, rng_fast))
            speakers, listeners = game._draw_schedule(6, "ordered", [rng_ref])
            m1, m2 = game._memberships(LABELS, env.sample_batch(rng_ref, speakers.size))
            w_ref = game._apply_sequential(w_ref, rels, m1, m2, speakers, listeners, 0.02, 2)
        assert w_fast.tolist() == w_ref.tolist()


# Weights at and within rounding distance of 0 and 1, log-uniform weights
# toward either end, and uniform weights.
EDGE_WEIGHTS = (0.0, 5e-324, 1e-17, 1.0 - 2.0**-53, 1.0)
WEIGHTS = st.one_of(
    st.sampled_from(EDGE_WEIGHTS),
    st.floats(-40.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-16.0, -0.5).map(lambda e: 1.0 - 10.0**e),
    st.floats(0.0, 1.0),
)
# Weights log-uniform within 1e-14 to 1e-9 of 0 or 1: at rates near 1
# under model 2 they often collapse onto 0 or 1 within the timestep, as
# in the COLLAPSE_CASES below.
NEAR_EDGE = st.floats(-14.0, -9.0).map(lambda e: 10.0**e)
COLLAPSING = st.one_of(NEAR_EDGE, NEAR_EDGE.map(lambda d: 1.0 - d))
# Observation intervals, including ones squeezed to 1/2 +- eps with eps
# down to about 3e-16, where memberships sit next to the sign flip.
PLAIN_INTERVALS = (
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .filter(lambda ends: ends[0] != ends[1])
    .map(sorted)
)
INTERVALS = st.one_of(
    PLAIN_INTERVALS,
    st.floats(-15.5, -1.0).map(lambda e: (0.5 - 10.0**e, 0.5 + 10.0**e)),
)
# Intervals on one side of 1/2, or across it, where edge weights with
# reliability 0 or 1 often keep their value all timestep.
HELD_INTERVALS = st.sampled_from(((0.0, 0.5), (0.5, 1.0), (0.0, 1.0), (0.1, 0.4)))


# Model-2 runs whose weights start near 0 or 1 and collapse toward them
# within the timestep at rates near 1 (found by random search).
COLLAPSE_CASES = [
    (43, "ordered", 0.9989033723956832,
     (1.0846147220943166e-09, 0.9999999999666682, 0.9999999999997771),
     (0.4510313870011089, 0.9553145792212376, 0.8919016691830427),
     (0.27853429777937566, 0.27863302551894353), (0.004077724985988684, 0.4219995748472628)),
    (80, "ordered", 0.9988162297568676,
     (3.7003548707621556e-11, 3.26799857913714e-11, 0.9999999999997793, 6.74222611516607e-11),
     (0.3020920366180293, 0.6088661044496464, 0.2922756613688998, 0.6239372372696742),
     (0.29922759715969116, 0.539945609476942), (0.5827000659736606, 0.6561332460538947)),
    (370, "unordered", 0.9982993000164456,
     (0.99999999995341, 4.196166588200647e-14, 1.1396345797848785e-14),
     (0.20200629573551543, 0.04339249970186865, 0.3396987300118618),
     (0.007027833514284043, 0.22707378084311336), (0.04089647182081013, 0.46197319066362197)),
]


def counting_sequential_calls(monkeypatch):
    """Record every call of ``_apply_sequential``, the Python reference.

    The loop is built first, so that its check is not counted.
    """
    engine._loop()
    calls = []
    replay = game._apply_sequential

    def counted(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(game, "_apply_sequential", counted)
    return calls


class TestStackedKernel:
    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(data=st.data())
    def test_matches_a_sequential_replay_of_every_run(self, data):
        runs = data.draw(st.integers(1, 3), label="runs")
        n = data.draw(st.integers(2, 5), label="n")
        per_lane = lambda values: st.lists(values, min_size=runs * n, max_size=runs * n)
        # A held stack gives each run one edge weight and every lane
        # reliability 0 or 1, so that speakers at 0 or 1 often keep their
        # weight, where rounding ties compounds.  A collapsing one plays
        # model 2 at rates near 1 from weights next to 0 or 1, so that
        # weights often reach 0 or 1 within the timestep.
        kind = data.draw(st.sampled_from(("free", "held", "collapse")), label="kind")
        collapse = kind == "collapse"
        if kind == "held":
            per_run = st.lists(st.sampled_from(EDGE_WEIGHTS), min_size=runs, max_size=runs)
            weights = np.repeat(data.draw(per_run, label="weights"), n)
            rels = np.array(data.draw(per_lane(st.sampled_from((0.0, 1.0))), label="rels"))
            intervals = HELD_INTERVALS
        else:
            weights = np.array(data.draw(per_lane(COLLAPSING if collapse else WEIGHTS), label="weights"))
            rels = np.array(data.draw(per_lane(st.floats(0.0, 1.0)), label="rels"))
            # Squeezed intervals would pin a collapsing lane on entry.
            intervals = PLAIN_INTERVALS if collapse else INTERVALS
        rate = data.draw(st.floats(0.99, 0.999) if collapse else st.floats(1e-4, 0.999), label="rate")
        model = 2 if collapse else data.draw(st.sampled_from((1, 2)), label="model")
        schedule = data.draw(st.sampled_from(("ordered", "unordered")), label="schedule")
        env = Environment((data.draw(intervals, label="x1"), data.draw(intervals, label="x2")))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        blocks = []
        for _ in range(runs):
            speakers, listeners = game._draw_schedule(n, schedule, [rng])
            blocks.append((speakers, listeners, env.sample_batch(rng, speakers.size)))
        got = engine._stacked_timestep(
            weights,
            rels,
            *game._memberships(LABELS, np.concatenate([xs for _, _, xs in blocks])),
            np.concatenate([s + r * n for r, (s, _, _) in enumerate(blocks)]),
            np.concatenate([l + r * n for r, (_, l, _) in enumerate(blocks)]),
            rate,
            model,
            runs,
        )

        # The float reference on each run's lanes, and a replay of each run
        # one dialogue at a time through the public API, which takes its
        # memberships from the scalar Label.membership.
        want, replayed = [], []
        for r, (speakers, listeners, xs) in enumerate(blocks):
            run = slice(r * n, (r + 1) * n)
            want += game._apply_sequential(
                weights[run], rels[run], *game._memberships(LABELS, xs),
                speakers, listeners, rate, model,
            ).tolist()
            pop, rel = weights[run].tolist(), rels[run].tolist()
            for s, l, x in zip(speakers.tolist(), listeners.tolist(), xs.tolist()):
                pop[l], _, _ = run_dialogue(pop[s], pop[l], rel[s], LABELS, tuple(x), rate, model)
            replayed += pop
        assert got.tolist() == want
        assert replayed == want

    def test_held_boundary_weights_stay_on_the_array_path(self, monkeypatch):
        # Every weight is 1 and every x2 lies below 1/2: a speaker at weight
        # 1 asserts the second label positive, every target clamps to 1 and
        # no weight moves.  The compiled loop plays it all; the Python
        # reference is never called.
        config = ExperimentConfig(
            game=GameConfig(n_agents=5, timesteps=4, rate=1e-3, model=1, reliability=1.0, weight_init=1.0),
            env=Environment(((0.0, 1.0), (0.0, 0.5))),
            runs=3,
            master_seed=5,
        )
        calls = counting_sequential_calls(monkeypatch)
        result = run_experiment(config)
        assert calls == []
        assert_matches_spec(result, config)

    def test_a_lane_at_one_moves_while_the_other_run_holds(self):
        # Run 0 is held at weight 1 as above.  In run 1 a lane at weight 1
        # listens to speakers at 1/2, whose majority-sign assertions can
        # imply a target of 0, so it moves while run 0 holds.
        n, rate = 3, 1e-2
        weights = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        rels = np.ones(2 * n)
        rng = np.random.default_rng(4)
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        speakers, listeners = game._draw_schedule(n, "ordered", [rng, rng])
        per_run = speakers.size // 2
        xs = np.concatenate([env.sample_batch(rng, per_run) for _ in range(2)])
        got = engine._stacked_timestep(
            weights, rels, *game._memberships(LABELS, xs), speakers, listeners, rate, 1, 2
        )
        m1, m2 = game._memberships(LABELS, xs)
        want = []
        for r in range(2):
            run, block = slice(r * n, (r + 1) * n), slice(r * per_run, (r + 1) * per_run)
            want += game._apply_sequential(
                weights[run], rels[run], m1[block], m2[block],
                speakers[block] - r * n, listeners[block] - r * n, rate, 1,
            ).tolist()
        assert want[:n] == [1.0] * n and want[n] != 1.0
        assert got.tolist() == want

    @pytest.mark.parametrize("seed,schedule,rate,weights,rels,x1,x2", COLLAPSE_CASES)
    def test_collapsing_weights_match_the_reference(self, seed, schedule, rate, weights, rels, x1, x2):
        rng = np.random.default_rng(seed)
        speakers, listeners = game._draw_schedule(len(weights), schedule, [rng])
        xs = Environment((x1, x2)).sample_batch(rng, speakers.size)
        weights, rels = np.array(weights), np.array(rels)
        got = engine._stacked_timestep(
            weights, rels, *game._memberships(LABELS, xs), speakers, listeners, rate, 2, 1
        )
        want = game._apply_sequential(
            weights, rels, *game._memberships(LABELS, xs), speakers, listeners, rate, 2
        )
        assert got.tolist() == want.tolist()

    def test_collapsing_held_and_interior_runs_share_one_stack(self):
        # Run 0 collapses toward 0 or 1 within the timestep (the first case above),
        # run 1 is held at weight 1 with every x2 below 1/2, and run 2 keeps
        # interior weights.  Each lane has its own reliability.
        seed, schedule, rate, weights, rels, x1, x2 = COLLAPSE_CASES[0]
        n = len(weights)
        half = Environment(((0.0, 1.0), (0.0, 0.5)))
        stack = [
            (seed, weights, rels, Environment((x1, x2))),
            (5, (1.0,) * n, (1.0,) * n, half),
            (6, (0.3, 0.5, 0.7), (0.6, 0.8, 0.9), half),
        ]
        blocks = []
        for r, (run_seed, _, _, env) in enumerate(stack):
            rng = np.random.default_rng(run_seed)
            speakers, listeners = game._draw_schedule(n, schedule, [rng])
            m1, m2 = game._memberships(LABELS, env.sample_batch(rng, speakers.size))
            blocks.append((m1, m2, speakers + r * n, listeners + r * n))
        weights = np.concatenate([w for _, w, _, _ in stack])
        rels = np.concatenate([rel for _, _, rel, _ in stack])
        replay = game._apply_sequential
        want = []
        for r, (m1, m2, speakers, listeners) in enumerate(blocks):
            run = slice(r * n, (r + 1) * n)
            want += replay(
                weights[run], rels[run], m1, m2, speakers - r * n, listeners - r * n, rate, 2
            ).tolist()
        got = engine._stacked_timestep(
            weights, rels, *(np.concatenate(column) for column in zip(*blocks)),
            rate, 2, len(stack),
        )
        assert want[n:2 * n] == [1.0] * n
        assert got.tolist() == want

    @pytest.mark.parametrize("schedule", ["ordered", "unordered"])
    @pytest.mark.parametrize("seed", [30, 45])
    def test_blocks_of_rounds_match_per_run_replays(self, schedule, seed):
        # Three runs of five agents, each run's block of dialogues drawn in
        # turn from one generator.  Lane 5 starts at weight 1 and every
        # lane has its own reliability.
        n, runs = 5, 3
        rng = np.random.default_rng(seed)
        weights = rng.random(runs * n)
        weights[n] = 1.0
        rels = rng.random(runs * n)
        speakers, listeners = game._draw_schedule(n, schedule, [rng] * runs)
        per_run = speakers.size // runs
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        xs = np.concatenate([env.sample_batch(rng, per_run) for _ in range(runs)])
        m1, m2 = game._memberships(LABELS, xs)
        got = engine._stacked_timestep(weights, rels, m1, m2, speakers, listeners, 0.3, 2, runs)
        want = []
        for r in range(runs):
            run, block = slice(r * n, (r + 1) * n), slice(r * per_run, (r + 1) * per_run)
            want += game._apply_sequential(
                weights[run], rels[run], m1[block], m2[block],
                speakers[block] - r * n, listeners[block] - r * n, 0.3, 2,
            ).tolist()
        assert got.tolist() == want

    @pytest.mark.parametrize("schedule,n,runs", [("ordered", 2, 32769), ("unordered", 3, 21846)])
    def test_matches_per_run_replays_past_the_uint16_lane_ids(self, schedule, n, runs):
        # 65538 lanes, past what 16-bit lane ids could address.  An
        # unordered run needs three agents for a lane to listen twice.  A
        # few runs start at the boundary weights.
        rng = np.random.default_rng(65538)
        weights = rng.random(runs * n)
        weights[[0, 7, runs, 2 * runs - 1]] = (0.0, 1.0, 1.0, 0.0)
        rels = rng.random(runs * n)
        # Every run draws from the one generator in turn.
        speakers, listeners = game._draw_schedule(n, schedule, [rng] * runs)
        per_run = speakers.size // runs
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        xs = np.concatenate([env.sample_batch(rng, per_run) for _ in range(runs)])
        got = engine._stacked_timestep(
            weights, rels, *game._memberships(LABELS, xs), speakers, listeners, 0.3, 1, runs
        )
        m1, m2 = game._memberships(LABELS, xs)
        want = []
        for r in range(runs):
            run, block = slice(r * n, (r + 1) * n), slice(r * per_run, (r + 1) * per_run)
            want += game._apply_sequential(
                weights[run], rels[run], m1[block], m2[block],
                speakers[block] - r * n, listeners[block] - r * n, 0.3, 1,
            ).tolist()
        assert got.tolist() == want


class TestRunPlayer:
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
    def test_a_generator_other_than_pcg64_is_refused_before_any_draw(self, bit_generator):
        # play_run steps PCG64 itself, so any other generator's state is refused
        # before C runs: the weights and the generator are left as they were.
        config = GameConfig(n_agents=4, timesteps=2)
        player = engine._RunPlayer(engine._loop().play_run, config, ((0.0, 1.0), (0.0, 0.5)), 3)
        rng, twin = np.random.Generator(bit_generator(0)), np.random.Generator(bit_generator(0))
        weights, rels = game._initial_state(config, rng)
        before = game._initial_state(config, twin)[0]
        with pytest.raises(ValueError, match="PCG64"):
            player(rng, weights, rels, 0, [0, 1, 2])
        assert weights.tolist() == before.tolist()
        assert rng.random(8).tolist() == twin.random(8).tolist()
