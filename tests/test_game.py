"""Dialogue mechanics, the sequential reference and the stacked kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import game
from labelgames.analysis import Environment, update_directions
from labelgames.experiment import ExperimentConfig, run_experiment, run_single
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
    speakers, listeners = game._draw_schedule(len(population), schedule, [rng])
    m1, m2 = game._memberships(labels, env.sample_batch(rng, speakers.size))
    weights, rels = lanes(population)
    return game._apply_sequential(weights, rels, m1, m2, speakers, listeners, rate, model).tolist()


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
            speakers, listeners = game._draw_schedule(6, "ordered", [rng_ref])
            m1, m2 = game._memberships(LABELS, env.sample_batch(rng_ref, speakers.size))
            w_ref = game._apply_sequential(w_ref, rels, m1, m2, speakers, listeners, 0.02, 2)
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
# Intervals on one side of 1/2, or across it, where edge weights with
# reliability 0 or 1 often keep their value all timestep.
HELD_INTERVALS = st.sampled_from(((0.0, 0.5), (0.5, 1.0), (0.0, 1.0), (0.1, 0.4)))


def counting_fallbacks(monkeypatch):
    """Record the runs the kernel replays through ``_apply_sequential``."""
    calls = []
    replay = game._apply_sequential

    def counted(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(game, "_apply_sequential", counted)
    return calls


class TestStackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_a_sequential_replay_of_every_run(self, data):
        runs = data.draw(st.integers(1, 3), label="runs")
        n = data.draw(st.integers(2, 5), label="n")
        per_lane = lambda values: st.lists(values, min_size=runs * n, max_size=runs * n)
        # A held stack gives each run one edge weight and every lane
        # reliability 0 or 1, so that pinned speakers often keep their
        # weight and their runs stay on the array path.
        held = data.draw(st.booleans(), label="held")
        if held:
            per_run = st.lists(st.sampled_from(EDGE_WEIGHTS), min_size=runs, max_size=runs)
            weights = np.repeat(data.draw(per_run, label="weights"), n)
            rels = np.array(data.draw(per_lane(st.sampled_from((0.0, 1.0))), label="rels"))
            intervals = HELD_INTERVALS
        else:
            weights = np.array(data.draw(per_lane(WEIGHTS), label="weights"))
            rels = np.array(data.draw(per_lane(st.floats(0.0, 1.0)), label="rels"))
            intervals = INTERVALS
        rate = data.draw(st.floats(1e-4, 0.999), label="rate")
        model = data.draw(st.sampled_from((1, 2)), label="model")
        schedule = data.draw(st.sampled_from(("ordered", "unordered")), label="schedule")
        env = Environment((data.draw(intervals, label="x1"), data.draw(intervals, label="x2")))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        blocks = []
        for _ in range(runs):
            speakers, listeners = game._draw_schedule(n, schedule, [rng])
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
                weights[run], rels[run], *game._memberships(LABELS, xs),
                speakers, listeners, rate, model,
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

    def test_held_boundary_weights_stay_on_the_array_path(self, monkeypatch):
        # Every weight is 1 and every x2 lies below 1/2: a speaker at weight
        # 1 asserts the second label positive, every target clamps to 1 and
        # no weight moves, so no run needs the reference.
        config = ExperimentConfig(
            game=GameConfig(n_agents=5, timesteps=4, rate=1e-3, model=1, reliability=1.0, weight_init=1.0),
            env=Environment(((0.0, 1.0), (0.0, 0.5))),
            runs=3,
            master_seed=5,
        )
        calls = counting_fallbacks(monkeypatch)
        records = run_experiment(config).run_records
        assert calls == []
        for record in records:
            want = run_single(config, record.run_id)
            assert record.mean_weights.tolist() == want.mean_weights.tolist()
            assert record.sd_weights.tolist() == want.sd_weights.tolist()
            assert record.final_weights.tolist() == want.final_weights.tolist()

    def test_pinned_lane_that_moves_sends_only_its_run_to_the_reference(self, monkeypatch):
        # Run 0 is held at weight 1 as above.  In run 1 a lane at weight 1
        # listens to speakers at 1/2, whose majority-sign assertions can
        # imply a target of 0, so it moves and run 1 alone is replayed.
        n, rate = 3, 1e-2
        weights = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        rels = np.ones(2 * n)
        rng = np.random.default_rng(4)
        env = Environment(((0.0, 1.0), (0.0, 0.5)))
        speakers, listeners = game._draw_schedule(n, "ordered", [rng, rng])
        per_run = speakers.size // 2
        xs = env.sample_runs([rng, rng], per_run)
        calls = counting_fallbacks(monkeypatch)
        got = game._stacked_timestep(
            weights, rels, LABELS, xs, speakers, listeners, rate, 1, "ordered", 2, n
        )
        assert [args[0].tolist() for args in calls] == [[1.0, 0.5, 0.5]]
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

    # Model-2 runs whose weights pass the margin on entry but collapse
    # toward 0 or 1 within the timestep at rates near 1, so that only the
    # per-round check sends them to the reference (found by random search).
    @pytest.mark.parametrize("seed,schedule,rate,weights,rels,x1,x2", [
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
    ])
    def test_margin_lost_within_the_timestep_falls_back(self, seed, schedule, rate, weights, rels, x1, x2):
        rng = np.random.default_rng(seed)
        speakers, listeners = game._draw_schedule(len(weights), schedule, [rng])
        xs = Environment((x1, x2)).sample_batch(rng, speakers.size)
        weights, rels = np.array(weights), np.array(rels)
        got = game._stacked_timestep(
            weights, rels, LABELS, xs, speakers, listeners, rate, 2, schedule, 1, len(weights)
        )
        want = game._apply_sequential(
            weights, rels, *game._memberships(LABELS, xs), speakers, listeners, rate, 2
        )
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("schedule,n,runs", [("ordered", 2, 32769), ("unordered", 3, 21846)])
    def test_matches_per_run_replays_past_the_uint16_lane_ids(self, schedule, n, runs):
        # 65538 lanes, so the listener keys no longer fit in 16 bits.  An
        # unordered run needs three agents for a lane to listen twice.  A
        # few runs start at the boundary weights.
        rng = np.random.default_rng(65538)
        weights = rng.random(runs * n)
        weights[[0, 7, runs, 2 * runs - 1]] = (0.0, 1.0, 1.0, 0.0)
        rels = rng.random(runs * n)
        # Every run draws from the one generator in turn.
        speakers, listeners = game._draw_schedule(n, schedule, [rng] * runs)
        per_run = speakers.size // runs
        xs = Environment(((0.0, 1.0), (0.0, 0.5))).sample_runs([rng] * runs, per_run)
        got = game._stacked_timestep(
            weights, rels, LABELS, xs, speakers, listeners, 0.3, 1, schedule, runs, n
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
