"""The compiled Monte Carlo loops give the numpy reference's bytes.

``mc_targets`` must keep exactly ``batch_implied_weights``' usable
targets and signed memberships, in order; ``mc_select`` the targets at
which a listener of a given weight updates under model 1; ``mc_upward``
the count of observations ``update_directions`` gives +1.  Hypothesis
draws boxes, labels the loop computes (prototypes off the box, metric
scales, threshold widths other than 1) and reliabilities through 0 and
1; fixed edge points add ties, targets of -0.0, clips at both ends and
observations on the quadrant lines and diagonals.  The estimators built
on the loops must equal the numpy code they replaced, chunk boundaries
included, and leave the generator, which they step in C, in the whole
state numpy's draws would, its spare half-word included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgames import analysis, engine
from labelgames.analysis import (
    Environment,
    EstimationError,
    NonConvergenceError,
    RunningMoments,
    TargetMoments,
    update_directions,
)
from labelgames.game import batch_implied_weights
from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    UniformThreshold,
    WeightedCityBlock,
    canonical_label_pair,
)

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))
CANONICAL = canonical_label_pair()
BELOW_ONE = 1.0 - 2.0**-53


def observations(intervals, a, b) -> np.ndarray:
    """The (count, 2) observations ``Environment.sample_batch`` makes of the uniforms."""
    return np.column_stack([u * (hi - lo) + lo for u, (lo, hi) in zip((a, b), intervals)])


def assert_loops_match(labels, intervals, rel, resting, a, b):
    a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
    xs = observations(intervals, a, b)
    targets, usable, m1, m2 = batch_implied_weights(labels, xs, rel)
    updating = usable & (resting * m1 + (1.0 - resting) * m2 <= rel)
    lib, dims = engine._loop(), engine._dims(labels, intervals)

    assert engine._mc_upward(lib, dims, a, b) == np.count_nonzero(update_directions(xs) > 0)
    t, out = np.empty((2, a.size))
    kept = engine._mc_targets(lib, dims, rel, a, b, t)
    assert t[:kept].tobytes() == targets[usable].tobytes()
    assert a[:kept].tobytes() == m1[usable].tobytes()
    assert b[:kept].tobytes() == m2[usable].tobytes()
    count = engine._mc_select(lib, resting, rel, a[:kept], b[:kept], t[:kept], out)
    assert out[:count].tobytes() == targets[updating].tobytes()


# (id, labels, reliability, listener weight, dimension-one and -two observations)
# on the unit square, where each uniform is its own observation.
EDGES = [
    # Signed memberships of exactly 1/2, and equal ones elsewhere: no target.
    ("ties", CANONICAL, 0.9, 0.5, [0.5, 0.3, 0.7, 0.5], [0.5, 0.3, 0.7, 0.0]),
    # rel == m2 with m1 < m2: (0.7 - 0.7) / (0.6 - 0.7) is -0.0, which the clip keeps.
    ("negative-zero", CANONICAL, 0.7, 0.5, [0.6, 0.4, 0.55], [0.7, 0.7, 0.7]),
    # Targets below 0 and above 1 before the clip.
    ("clips", CANONICAL, 0.7, 0.2, [0.9, 0.6, 0.0, 0.55], [0.8, 0.5, 0.95, 0.52]),
    # On the quadrant lines, the diagonals and the anti-diagonal.
    ("lines", CANONICAL, 1.0, 0.5,
     [0.5, 0.5, 0.5, 0.2, 0.6, 0.6, 0.3, 0.2, 0.8, 0.0, BELOW_ONE],
     [0.5, 0.2, 0.8, 0.5, 0.5, 0.6, 0.3, 0.8, 0.2, BELOW_ONE, 0.0]),
    ("reliability-zero", CANONICAL, 0.0, 0.0, [0.9, 0.1, 0.5], [0.1, 0.9, 0.2]),
]


@pytest.mark.parametrize("_, labels, rel, resting, a, b", EDGES, ids=[e[0] for e in EDGES])
def test_edge_points(_, labels, rel, resting, a, b):
    assert_loops_match(labels, UNIT_BOX, rel, resting, a, b)


def test_the_edge_points_reach_the_edges():
    """The edge points hold what they claim: ties, a -0.0 target, both clips."""
    targets, usable, _, _ = batch_implied_weights(CANONICAL, np.array([[0.5, 0.5], [0.6, 0.7]]), 0.7)
    assert not usable[0] and np.signbit(targets[1]) and targets[1] == 0.0
    xs = observations(UNIT_BOX, *np.array([EDGES[2][4], EDGES[2][5]]))
    m1, m2 = np.maximum(xs, 1.0 - xs).T
    raw = (0.7 - m2) / (m1 - m2)
    assert raw.min() < 0.0 and raw.max() > 1.0


interval = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda p: p[0] != p[1]).map(sorted)
label = st.builds(
    lambda prototype, scale, width: Label(
        (prototype,), Euclidean() if scale is None else WeightedCityBlock((scale,)),
        UniformThreshold(width=width), ConceptualSpace(1),
    ),
    st.floats(0.0, 1.0),
    st.none() | st.floats(0.1, 4.0),
    st.floats(0.05, 2.0),
)
uniform = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.25, 0.5, 0.75, BELOW_ONE])
reliability = st.sampled_from([0.0, 1.0, 0.5, 0.9]) | st.floats(0.0, 1.0)


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(
    intervals=st.tuples(interval, interval),
    labels=st.tuples(label, label) | st.just(CANONICAL),
    rel=reliability,
    resting=st.floats(0.0, 1.0),
    pairs=st.lists(st.tuples(uniform, uniform), max_size=40),
)
def test_loops_match_the_reference(intervals, labels, rel, resting, pairs):
    a, b = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    assert_loops_match(labels, intervals, rel, resting, a, b)


def reference_moments(env, reliability, model, n_samples, rng, labels):
    """``estimate_target_moments`` as numpy computed it before the compiled loops."""
    moments = RunningMoments()
    if model == 2:
        for done in range(0, n_samples, analysis._MOMENTS_CHUNK):
            xs = env.sample_batch(rng, min(analysis._MOMENTS_CHUNK, n_samples - done))
            targets, usable, _, _ = batch_implied_weights(labels, xs, reliability)
            moments.update(targets[usable])
        if moments.count == 0:
            raise EstimationError("none usable")
    else:
        targets, usable, m1, m2 = batch_implied_weights(labels, env.sample_batch(rng, n_samples), reliability)
        if not usable.any():
            raise EstimationError("none usable")
        resting = 0.5
        for _ in range(100):
            updating = usable & (resting * m1 + (1.0 - resting) * m2 <= reliability)
            if not updating.any():
                raise NonConvergenceError("none updating")
            revised = float(targets[updating].mean())
            converged = abs(revised - resting) < 1e-4
            resting = revised
            if converged:
                break
        moments.update(targets[usable & (resting * m1 + (1.0 - resting) * m2 <= reliability)])
    return TargetMoments(mean=moments.mean, variance=moments.variance, count=moments.count)


def reference_share(env, n_samples, rng):
    """``positive_update_probability_mc``'s estimate as numpy computed it before the compiled loops."""
    hits = 0
    for done in range(0, n_samples, analysis._MC_CHUNK):
        xs = env.sample_batch(rng, min(analysis._MC_CHUNK, n_samples - done))
        hits += np.count_nonzero(update_directions(xs) > 0)
    return hits / n_samples


def outcome(call):
    """The moments' bits, or the kind of error raised."""
    try:
        moments = call()
    except (EstimationError, NonConvergenceError) as err:
        return type(err)
    return moments.mean.hex(), moments.variance.hex(), moments.count


def twin_generators(seed):
    """Two generators in one state, holding a spare half-word, which drawing uniforms leaves alone."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        rng.integers(10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rngs


def assert_estimators_match(env, rel, model, n_samples, labels, seed):
    rngs = twin_generators(seed)
    got = outcome(lambda: analysis.estimate_target_moments(env, rel, model, n_samples, rngs[0], labels))
    want = outcome(lambda: reference_moments(env, rel, model, n_samples, rngs[1], labels))
    assert got == want
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    estimate, _ = analysis.positive_update_probability_mc(env, n_samples, rngs[0])
    assert estimate == reference_share(env, n_samples, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    intervals=st.tuples(interval, interval),
    labels=st.tuples(label, label) | st.just(CANONICAL),
    rel=reliability,
    model=st.sampled_from([1, 2]),
    n_samples=st.integers(1, 700),
    seed=st.integers(0, 2**32),
)
def test_estimators_match_the_numpy_code_they_replace(intervals, labels, rel, model, n_samples, seed):
    # Chunks of 64 observations, so most draws span several.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_MOMENTS_CHUNK", 64)
        patch.setattr(analysis, "_MC_CHUNK", 64)
        assert_estimators_match(Environment(intervals), rel, model, n_samples, labels, seed)


@pytest.mark.parametrize("model", [1, 2])
def test_estimators_match_the_numpy_code_at_the_real_chunk_sizes(model):
    # Three past a whole chunk of one estimator, so that draws jump the
    # real chunks' distances and a short last chunk follows a full one;
    # model 1's moments draw all their samples in one chunk.
    env = Environment(((0.1, 0.9), (0.05, 0.6)))
    n_samples = (analysis._MOMENTS_CHUNK if model == 2 else analysis._MC_CHUNK) + 3
    assert_estimators_match(env, 0.9, model, n_samples, CANONICAL, 17)
