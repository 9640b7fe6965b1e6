"""Dialogue mechanics, the sequential reference and the stacked kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import game
from labelgames.analysis import Environment, update_directions
from labelgames.game import (
    ASSERTION_ORDER,
    AgentState,
    AssertionIndex,
    DialogueOutcome,
    GameConfig,
    apply_update,
    batch_implied_weights,
    choose_assertion,
    dialogues_per_timestep,
    implied_weight,
    init_population,
    run_dialogue,
    run_timestep,
)
from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    UniformThreshold,
    canonical_label_pair,
)

LABELS = canonical_label_pair()


def agent(weight, reliability=1.0, agent_id=0):
    return AgentState(agent_id=agent_id, weight=weight, reliability=reliability)


class CountingEnv:
    """Unit-square sampler that records how many observations were requested."""

    def __init__(self):
        self.requests = []

    def sample_batch(self, rng, count):
        self.requests.append(count)
        return rng.random((count, 2))


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
    def test_valid_state(self):
        a = agent(0.5, 0.8)
        assert a.weight == 0.5 and a.reliability == 0.8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            agent(-0.1)
        with pytest.raises(ValueError):
            agent(0.5, 1.1)


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


class TestDialogueOutcome:
    def test_update_requires_target(self):
        with pytest.raises(ValueError):
            DialogueOutcome(AssertionIndex.BOTH, True, None, 0.5)


class TestInitPopulation:
    def test_uniform_draw_is_reproducible(self):
        cfg = GameConfig(n_agents=5)
        pop = init_population(cfg, np.random.default_rng(3))
        expected = np.random.default_rng(3).random(5)
        assert [a.weight for a in pop] == list(expected)
        assert [a.agent_id for a in pop] == [0, 1, 2, 3, 4]

    def test_fixed_and_per_agent_init(self):
        cfg = GameConfig(n_agents=3, weight_init=0.25)
        assert [a.weight for a in init_population(cfg, np.random.default_rng(0))] == [0.25] * 3
        cfg = GameConfig(n_agents=3, weight_init=(0.1, 0.2, 0.3), reliability=(1.0, 0.5, 0.9))
        pop = init_population(cfg, np.random.default_rng(0))
        assert [a.weight for a in pop] == [0.1, 0.2, 0.3]
        assert [a.reliability for a in pop] == [1.0, 0.5, 0.9]


class TestScheduleSize:
    def test_ordered_pair_count(self):
        assert dialogues_per_timestep(10) == 90
        assert dialogues_per_timestep(2) == 2

    def test_unordered_pair_count(self):
        assert dialogues_per_timestep(10, "unordered") == 45
        with pytest.raises(ValueError):
            dialogues_per_timestep(10, "weekly")


class TestChooseAssertion:
    def test_dominant_first_dimension(self):
        got = choose_assertion(agent(0.5), LABELS, (0.8, 0.2))
        assert got is AssertionIndex.ONLY_FIRST

    def test_both_dimensions_high(self):
        got = choose_assertion(agent(0.5), LABELS, (0.6, 0.7))
        assert got is AssertionIndex.BOTH

    def test_both_dimensions_low(self):
        got = choose_assertion(agent(0.5), LABELS, (0.2, 0.3))
        assert got is AssertionIndex.NEITHER

    def test_centre_tie_goes_to_first_in_order(self):
        got = choose_assertion(agent(0.5), LABELS, (0.5, 0.5))
        assert got is AssertionIndex.BOTH

    def test_interior_weight_does_not_change_the_assertion(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = tuple(rng.random(2))
            a = choose_assertion(agent(0.25), LABELS, x)
            b = choose_assertion(agent(0.75), LABELS, x)
            assert a is b

    def test_asserted_membership_at_least_one_half(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = tuple(rng.random(2))
            lam = float(rng.random())
            speaker = agent(lam)
            asserted = choose_assertion(speaker, LABELS, x)
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
    def test_small_step_toward_one(self):
        moved = apply_update(agent(0.4), 1.0, 1e-3)
        assert moved.weight == pytest.approx(0.4006, abs=1e-12)

    def test_fixed_point(self):
        moved = apply_update(agent(0.4), 0.4, 1e-3)
        assert moved.weight == 0.4

    def test_step_toward_zero(self):
        moved = apply_update(agent(0.8), 0.0, 0.01)
        assert moved.weight == pytest.approx(0.792, abs=1e-12)


class TestRunDialogue:
    def test_model_one_updates_under_full_reliability(self):
        listener, outcome = run_dialogue(agent(0.9), agent(0.4, agent_id=1), LABELS, (0.8, 0.6), 1e-3, 1)
        assert outcome.asserted is AssertionIndex.BOTH
        assert outcome.updated and outcome.target == 1.0
        assert listener.weight == pytest.approx(0.4006, abs=1e-12)
        assert outcome.listener_weight_after == listener.weight

    def test_model_one_skips_when_listener_membership_exceeds_reliability(self):
        speaker = agent(0.9, reliability=0.0)
        listener, outcome = run_dialogue(speaker, agent(0.4, agent_id=1), LABELS, (0.8, 0.6), 1e-3, 1)
        assert not outcome.updated
        assert listener.weight == 0.4

    def test_model_two_skips_on_exact_membership_match(self):
        # listener membership 0.5 * 0.8 + 0.5 * 0.6 equals the reliability exactly
        speaker = agent(0.9, reliability=0.7)
        listener, outcome = run_dialogue(speaker, agent(0.5, agent_id=1), LABELS, (0.8, 0.6), 1e-3, 2)
        assert not outcome.updated
        assert listener.weight == 0.5

    def test_model_two_updates_on_any_mismatch(self):
        speaker = agent(0.9, reliability=1.0)
        listener, outcome = run_dialogue(speaker, agent(0.5, agent_id=1), LABELS, (0.8, 0.6), 1e-3, 2)
        assert outcome.updated and outcome.target == 1.0

    def test_undefined_target_never_updates(self):
        listener, outcome = run_dialogue(agent(0.9), agent(0.4, agent_id=1), LABELS, (0.6, 0.6), 1e-3, 1)
        assert not outcome.updated
        assert outcome.target is None
        assert listener.weight == 0.4

    def test_speakers_own_reliability_is_granted(self):
        speaker = agent(0.9, reliability=0.7)
        quiet_listener = agent(0.1, reliability=0.2, agent_id=1)
        _, outcome = run_dialogue(speaker, quiet_listener, LABELS, (0.8, 0.6), 1e-3, 1)
        assert outcome.updated
        assert outcome.target == pytest.approx(0.5, abs=1e-12)


class TestBatchImpliedWeights:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(21)
        xs = rng.random((500, 2))
        targets, usable, mu_first, mu_second = batch_implied_weights(LABELS, xs, 0.8)
        speaker = agent(0.37, reliability=0.8)
        for k in range(xs.shape[0]):
            x = (float(xs[k, 0]), float(xs[k, 1]))
            asserted = choose_assertion(speaker, LABELS, x)
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


def lanes(population):
    """The weights and reliabilities of a population as float arrays."""
    return (
        np.array([a.weight for a in population]),
        np.array([a.reliability for a in population]),
    )


def reference_timestep(population, labels, env, rate, model, seed, schedule):
    """Re-draw the identical schedule and replay it strictly sequentially."""
    rng = np.random.default_rng(seed)
    speakers, listeners = game._draw_schedule(len(population), schedule, rng)
    xs = env.sample_batch(rng, speakers.size)
    weights, rels = lanes(population)
    return game._apply_sequential(weights, rels, labels, xs, speakers, listeners, rate, model).tolist()


class TestRunTimestep:
    def test_ordered_schedule_samples_one_observation_per_pair(self):
        env = CountingEnv()
        pop = init_population(GameConfig(n_agents=10), np.random.default_rng(0))
        out = run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(1))
        assert env.requests == [90]
        assert [a.agent_id for a in out] == list(range(10))
        assert all(0.0 <= a.weight <= 1.0 for a in out)

    def test_two_agent_and_unordered_counts(self):
        env = CountingEnv()
        pop = init_population(GameConfig(n_agents=2), np.random.default_rng(0))
        run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(1))
        assert env.requests == [2]
        env = CountingEnv()
        pop = init_population(GameConfig(n_agents=10), np.random.default_rng(0))
        run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(1), schedule="unordered")
        assert env.requests == [45]

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            run_timestep([agent(0.5)], LABELS, Environment(), 1e-3, 1, np.random.default_rng(0))

    def test_same_seed_reproduces_weights_exactly(self):
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        pop = init_population(GameConfig(n_agents=6), np.random.default_rng(5))
        first = run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(9))
        second = run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(9))
        assert [a.weight for a in first] == [a.weight for a in second]
        third = run_timestep(pop, LABELS, env, 1e-3, 1, np.random.default_rng(10))
        assert [a.weight for a in first] != [a.weight for a in third]

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
        pop = init_population(cfg, np.random.default_rng(seed))
        got = run_timestep(pop, LABELS, env, 0.05, model, np.random.default_rng(seed + 1), schedule=schedule)
        want = reference_timestep(pop, LABELS, env, 0.05, model, seed + 1, schedule)
        assert [a.weight for a in got] == want

    def test_boundary_weights_fall_back_to_the_reference(self):
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        cfg = GameConfig(n_agents=4, weight_init=(0.0, 1.0, 0.5, 0.25))
        pop = init_population(cfg, np.random.default_rng(0))
        got = run_timestep(pop, LABELS, env, 1e-2, 1, np.random.default_rng(42))
        want = reference_timestep(pop, LABELS, env, 1e-2, 1, 42, "ordered")
        assert [a.weight for a in got] == want

    def test_extreme_rate_near_the_upper_edge_stays_exact(self):
        # weights one ulp under 1 with a large rate exercise the decline path
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        edge = 1.0 - 2.0 ** -53
        cfg = GameConfig(n_agents=5, weight_init=(edge, 0.5, edge, 1e-12, 0.9), rate=0.6)
        pop = init_population(cfg, np.random.default_rng(0))
        got = run_timestep(pop, LABELS, env, 0.6, 1, np.random.default_rng(77))
        want = reference_timestep(pop, LABELS, env, 0.6, 1, 77, "ordered")
        assert [a.weight for a in got] == want

    def test_chained_timesteps_share_one_generator(self):
        env = Environment(((0.25, 0.75), (0.0, 0.5)))
        cfg = GameConfig(n_agents=6, model=2)
        pop_fast = init_population(cfg, np.random.default_rng(88))
        w_ref, rels = lanes(pop_fast)
        rng_fast = np.random.default_rng(99)
        rng_ref = np.random.default_rng(99)
        for _ in range(3):
            pop_fast = run_timestep(pop_fast, LABELS, env, 0.02, 2, rng_fast)
            speakers, listeners = game._draw_schedule(6, "ordered", rng_ref)
            xs = env.sample_batch(rng_ref, speakers.size)
            w_ref = game._apply_sequential(w_ref, rels, LABELS, xs, speakers, listeners, 0.02, 2)
        assert [a.weight for a in pop_fast] == w_ref.tolist()


# Weights at and within rounding distance of 0 and 1, log-uniform weights
# toward either end, and uniform weights.
EDGE_WEIGHTS = (0.0, 5e-324, 1e-17, 1.0 - 2.0**-53, 1.0)
WEIGHTS = st.one_of(
    st.sampled_from(EDGE_WEIGHTS),
    st.floats(-40.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-16.0, -0.5).map(lambda e: 1.0 - 10.0**e),
    st.floats(0.0, 1.0),
)
# Observation intervals, including ones squeezed to 1/2 +- eps with eps
# down to about 3e-16, where memberships sit next to the sign flip.
INTERVALS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .filter(lambda ends: ends[0] != ends[1])
    .map(sorted),
    st.floats(-15.5, -1.0).map(lambda e: (0.5 - 10.0**e, 0.5 + 10.0**e)),
)


class TestStackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_a_sequential_replay_of_every_run(self, data):
        runs = data.draw(st.integers(1, 3), label="runs")
        n = data.draw(st.integers(2, 5), label="n")
        per_lane = lambda values: st.lists(values, min_size=runs * n, max_size=runs * n)
        weights = np.array(data.draw(per_lane(WEIGHTS), label="weights"))
        rels = np.array(data.draw(per_lane(st.floats(0.0, 1.0)), label="rels"))
        rate = data.draw(st.floats(1e-4, 0.999), label="rate")
        model = data.draw(st.sampled_from((1, 2)), label="model")
        schedule = data.draw(st.sampled_from(("ordered", "unordered")), label="schedule")
        env = Environment((data.draw(INTERVALS, label="x1"), data.draw(INTERVALS, label="x2")))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        blocks = []
        for _ in range(runs):
            speakers, listeners = game._draw_schedule(n, schedule, rng)
            blocks.append((speakers, listeners, env.sample_batch(rng, speakers.size)))
        got = game._stacked_timestep(
            weights,
            rels,
            LABELS,
            np.concatenate([xs for _, _, xs in blocks]),
            np.concatenate([s + r * n for r, (s, _, _) in enumerate(blocks)]),
            np.concatenate([l + r * n for r, (_, l, _) in enumerate(blocks)]),
            rate,
            model,
            schedule,
            runs,
            n,
        )

        # The float reference on each run's lanes, and a replay of each run
        # one dialogue at a time through the public API, which takes its
        # memberships from the scalar Label.membership.
        want, replayed = [], []
        for r, (speakers, listeners, xs) in enumerate(blocks):
            run = slice(r * n, (r + 1) * n)
            want += game._apply_sequential(
                weights[run], rels[run], LABELS, xs, speakers, listeners, rate, model
            ).tolist()
            pop = [
                agent(float(weights[r * n + i]), float(rels[r * n + i]), agent_id=i)
                for i in range(n)
            ]
            for s, l, x in zip(speakers, listeners, xs):
                pop[l], _ = run_dialogue(pop[s], pop[l], LABELS, (float(x[0]), float(x[1])), rate, model)
            replayed += [a.weight for a in pop]
        assert got.tolist() == want
        assert replayed == want
