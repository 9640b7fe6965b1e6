"""Acceptance suite: every shipped guarantee, one pass/fail line each.

The expensive population runs are session fixtures shared by several
criteria: the two 25-run convergence experiments double as determinism
and positive-share checks, and the 1000-agent validation rows feed the
steady-state mean, variance, and trajectory criteria.
"""

import itertools
import time

import numpy as np
import pytest
from conftest import report_criterion

from labelgames.analysis import (
    Environment,
    estimate_target_moments,
    positive_update_probability,
    positive_update_probability_mc,
    resting_variance,
    update_directions,
)
from labelgames.combine import (
    Compound,
    Polarity,
    WeightVector,
    binary_space_oracle,
    compound_membership,
    conjoin_compounds,
)
from labelgames.experiment import (
    ExperimentConfig,
    mix_seed,
    run_experiment,
    validate_predictions,
)
from labelgames.game import GameConfig, batch_implied_weights
from labelgames.labels import canonical_label, canonical_label_pair


def convergence_config(env, outputs):
    return ExperimentConfig(
        game=GameConfig(
            n_agents=10, timesteps=2000, rate=1e-3, model=1, reliability=1.0
        ),
        env=env,
        runs=25,
        master_seed=0,
        outputs=outputs,
    )


@pytest.fixture(scope="session")
def halfband_runs(env_a, tmp_path_factory):
    """Criterion 1 configuration, timed, with CSVs kept for criterion 10."""
    out = tmp_path_factory.mktemp("convergence_a") / "out"
    config = convergence_config(env_a, out)
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result, elapsed, out, config


@pytest.fixture(scope="session")
def band_runs(env_b, tmp_path_factory):
    """Criterion 2 configuration over the centred band environment."""
    out = tmp_path_factory.mktemp("convergence_b") / "out"
    config = convergence_config(env_b, out)
    return run_experiment(config), out


@pytest.fixture(scope="session")
def validation_rows(env_b):
    """1000-agent model 2 runs at both rates, against their predictions."""
    config = ExperimentConfig(
        game=GameConfig(
            n_agents=1000, timesteps=15, rate=1e-2, model=2, reliability=1.0
        ),
        env=env_b,
        runs=1,
        master_seed=0,
    )
    return validate_predictions(config, [1e-2, 1e-3], n_samples=1_000_000)


def test_criterion_1_convergence_to_one_half(halfband_runs):
    result, elapsed, _, _ = halfband_runs
    mean = float(result.aggregate.mean_of_means[-1])
    sd = float(result.aggregate.mean_sd[-1])
    ok = 0.47 <= mean <= 0.53 and sd <= 0.05 and elapsed < 10.0
    report_criterion(
        1, ok, f"mean={mean:.4f} in [0.47, 0.53], sd={sd:.4f} <= 0.05, "
        f"runtime={elapsed:.2f}s < 10s",
    )
    assert 0.47 <= mean <= 0.53
    assert sd <= 0.05
    assert elapsed < 10.0


def test_criterion_2_convergence_to_one_quarter(band_runs):
    result, _ = band_runs
    mean = float(result.aggregate.mean_of_means[-1])
    ok = 0.22 <= mean <= 0.28
    report_criterion(2, ok, f"mean={mean:.4f} in [0.22, 0.28]")
    assert ok


def test_criterion_3_positive_share(halfband_runs, band_runs, env_a, env_b):
    envs = [env_a, env_b]
    rng = np.random.default_rng(mix_seed(0, 777))
    for _ in range(20):
        spans = []
        for _ in range(2):
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(rng.uniform(lo + 0.05, 1.0))
            spans.append((lo, hi))
        envs.append(Environment(tuple(spans)))

    worst = 0.0
    for k, env in enumerate(envs):
        analytic = positive_update_probability(env)
        estimate, se = positive_update_probability_mc(
            env, 1_000_000, np.random.default_rng(mix_seed(0, 2000 + k))
        )
        # the 1e-9 slack covers zero-variance corner cases where the box
        # sits entirely inside one region
        gap = abs(analytic - estimate) - 3.0 * se
        worst = max(worst, gap)
        assert gap <= 1e-9, f"env {env.intervals}: |{analytic} - {estimate}| > 3se"

    sim_a = float(halfband_runs[0].aggregate.mean_of_means[-1])
    sim_b = float(band_runs[0].aggregate.mean_of_means[-1])
    dev_a = abs(sim_a - positive_update_probability(env_a))
    dev_b = abs(sim_b - positive_update_probability(env_b))
    ok = worst <= 1e-9 and dev_a <= 0.03 and dev_b <= 0.03
    report_criterion(
        3, ok, f"22 environments within 3se at 1e6 samples; "
        f"simulated means off by {dev_a:.4f} and {dev_b:.4f} <= 0.03",
    )
    assert dev_a <= 0.03
    assert dev_b <= 0.03


def test_criterion_4_steady_state_mean(env_b, validation_rows):
    devs = {}
    for index, reliability in enumerate((0.6, 0.8)):
        config = ExperimentConfig(
            game=GameConfig(
                n_agents=1000, timesteps=5, rate=1e-2, model=2,
                reliability=reliability,
            ),
            env=env_b,
            runs=1,
            master_seed=0,
            record_every=5,
        )
        sim_mean = float(run_experiment(config).aggregate.mean_of_means[-1])
        moments = estimate_target_moments(
            env_b, reliability=reliability, model=2, n_samples=1_000_000,
            rng=np.random.default_rng(mix_seed(0, (1 << 32) + 100 + index)),
        )
        devs[reliability] = abs(sim_mean - moments.mean)

    # the rate 1e-2 validation run is this same setting at w=1
    sim_full = float(validation_rows[0].empirical_mean[-1])
    moments_full = estimate_target_moments(
        env_b, reliability=1.0, model=2, n_samples=1_000_000,
        rng=np.random.default_rng(mix_seed(0, (1 << 32) + 102)),
    )
    devs[1.0] = abs(sim_full - moments_full.mean)

    ok = all(dev <= 0.02 for dev in devs.values())
    detail = ", ".join(f"w={w:g}: {dev:.4f}" for w, dev in sorted(devs.items()))
    report_criterion(4, ok, f"|sim mean - E(target)| <= 0.02 at {detail}")
    assert ok, devs


def test_criterion_5_steady_state_variance(validation_rows):
    slow = validation_rows[1]
    assert slow.rate == pytest.approx(1e-3)
    observed = float(slow.empirical_variance[-1])
    predicted = resting_variance(1e-3, 0.1875)
    ratio = observed / predicted
    ok = 0.7 <= ratio <= 1.3
    report_criterion(
        5, ok, f"Var={observed:.3e} vs rate/(2-rate)*0.1875={predicted:.3e}, "
        f"ratio={ratio:.3f} in [0.7, 1.3]",
    )
    assert ok, ratio


def test_criterion_6_trajectory_prediction(validation_rows):
    devs = {
        row.rate: (row.sup_mean_deviation, row.sup_variance_deviation)
        for row in validation_rows
    }
    ok = all(m <= 0.02 and v <= 0.005 for m, v in devs.values())
    detail = ", ".join(
        f"h={rate:g}: mean {m:.4f} <= 0.02, var {v:.5f} <= 0.005"
        for rate, (m, v) in sorted(devs.items(), reverse=True)
    )
    report_criterion(6, ok, detail)
    assert ok, devs


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(mix_seed(0, 31337))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        weights = tuple(float(v) for v in rng.random(n) + 1e-6)
        signs = Polarity(tuple(bool(b) for b in rng.integers(0, 2, n)))
        xs = tuple(float(v) for v in rng.random(n))
        comp = Compound(
            labels=tuple(canonical_label() for _ in range(n)),
            polarity=signs,
            weights=WeightVector(weights),
        )
        closed = compound_membership(comp, xs)
        memberships = tuple(lab.membership(x) for lab, x in zip(comp.labels, xs))
        oracle = binary_space_oracle(comp, memberships)
        worst = max(worst, abs(closed - oracle))
    exhaustive_worst = 0.0
    for n in (1, 2, 3):
        weights = tuple(float(k + 1) for k in range(n))
        xs = tuple((k + 1.0) / (n + 2.0) for k in range(n))
        labels = tuple(canonical_label() for _ in range(n))
        for signs in itertools.product((True, False), repeat=n):
            comp = Compound(
                labels=labels, polarity=Polarity(signs),
                weights=WeightVector(weights),
            )
            closed = compound_membership(comp, xs)
            memberships = tuple(lab.membership(x) for lab, x in zip(labels, xs))
            exhaustive_worst = max(
                exhaustive_worst,
                abs(closed - binary_space_oracle(comp, memberships)),
            )
    ok = worst <= 1e-12 and exhaustive_worst <= 1e-12
    report_criterion(
        7, ok, f"1000 random instances (n <= 10) worst gap {worst:.2e}, "
        f"all polarities (n <= 3) worst gap {exhaustive_worst:.2e} <= 1e-12",
    )
    assert ok, (worst, exhaustive_worst)


def test_criterion_8_conjunction_weights():
    labels = canonical_label_pair()

    def comp(weights):
        return Compound(
            labels=labels, polarity=Polarity.parse("++"),
            weights=WeightVector(weights),
        )

    rng = np.random.default_rng(mix_seed(0, 424242))
    worst_sum = 0.0
    for _ in range(200):
        a = comp(tuple(float(v) for v in rng.random(2) + 1e-3))
        b = comp(tuple(float(v) for v in rng.random(2) * 4 + 1e-3))
        w1, w2 = (float(v) for v in rng.random(2) + 0.05)
        merged = conjoin_compounds(a, b, w1, w2)
        worst_sum = max(worst_sum, abs(sum(merged.weights.components) - 1.0))

    idempotent = conjoin_compounds(comp((1.0, 1.0)), comp((1.0, 1.0)), 1.0, 1.0)
    self_merge = conjoin_compounds(comp((2.0, 6.0)), comp((2.0, 6.0)), 1.0, 1.0)
    exact_idempotence = (
        idempotent.weights.components == (0.5, 0.5)
        and self_merge.weights.components == (0.25, 0.75)
    )

    left = comp((0.3, 0.7))
    right = comp((0.9, 0.1))
    exact_symmetry = (
        conjoin_compounds(left, right, 0.7, 0.2).weights.components
        == conjoin_compounds(right, left, 0.2, 0.7).weights.components
    )

    ok = worst_sum <= 1e-12 and exact_idempotence and exact_symmetry
    report_criterion(
        8, ok, f"coefficient sums off by at most {worst_sum:.2e} <= 1e-12; "
        f"idempotence exact: {exact_idempotence}; symmetry exact: {exact_symmetry}",
    )
    assert ok


def test_criterion_9_sign_law():
    rng = np.random.default_rng(mix_seed(0, 90909))
    xs = rng.random((100_000, 2))
    lams = rng.random(100_000)
    targets, usable, _, _ = batch_implied_weights(canonical_label_pair(), xs, 1.0)
    dirs = update_directions(xs)
    off_boundary = usable & (dirs != 0)
    signs = np.sign(targets[off_boundary] - lams[off_boundary])
    violations = int(np.count_nonzero(signs != dirs[off_boundary]))
    binary = bool(np.isin(targets[usable], (0.0, 1.0)).all())
    ok = violations == 0 and binary and int(off_boundary.sum()) == 100_000
    report_criterion(
        9, ok, f"{off_boundary.sum()} samples off boundaries, "
        f"{violations} sign violations, targets all in {{0, 1}}: {binary}",
    )
    assert violations == 0
    assert binary


def test_criterion_10_byte_identical_reruns(halfband_runs, env_a, tmp_path_factory):
    _, _, first_dir, config = halfband_runs
    second_dir = tmp_path_factory.mktemp("convergence_a_again") / "out"
    run_experiment(convergence_config(env_a, second_dir))
    names = sorted(p.name for p in first_dir.iterdir())
    assert names == sorted(p.name for p in second_dir.iterdir())
    assert len(names) == 25 + 2
    mismatched = [
        name for name in names
        if (first_dir / name).read_bytes() != (second_dir / name).read_bytes()
    ]
    ok = not mismatched
    report_criterion(
        10, ok, f"{len(names)} CSV files byte-identical across re-executions"
        + ("" if ok else f"; mismatched: {mismatched}"),
    )
    assert ok, mismatched
