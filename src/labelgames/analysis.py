"""Predictions for where the weight game settles and how fast it gets there.

Everything in this module is about the canonical label pair on the unit
square, where membership in each dimension is the coordinate itself.  The
square splits into four quadrants, one per assertion, and each quadrant
splits again into a half that pulls listener weights up and a half that
pulls them down.  From that geometry we get the exact share of upward
pulls under a product-uniform environment, Monte Carlo moments of the
update target, the resting mean and variance of the population, and
closed-form trajectories with convergence-step counts.

Time here is counted in updates of a single agent's weight.  A simulation
timestep gives every agent one update per dialogue it listens to, so one
conversion, ``experiment._updates_per_timestep``, turns updates into
timesteps at the mean number of those, dialogues_per_timestep(n,
schedule) / n: n - 1 under the ordered schedule, (n - 1) / 2 under the
unordered one.  Every value argument is checked by ``game``'s rules, and
a refused one raises ``ConfigError``, naming it, before any draw.

The Monte Carlo estimators, ``positive_update_probability_mc`` and
``estimate_target_moments`` (and so ``build_prediction``), run in the
engine's compiled library, ``engine._loop()``, which needs a C compiler.
Its loops step the generator's ``PCG64``, drawing the uniforms
``sample_batch`` would a block at a time on the C stack, and do the
per-observation work on each block, so the estimators refuse, as ``rng``,
anything but a numpy ``Generator`` over ``PCG64``; the means, variances
and counts are numpy's.  ``game.update_directions`` and
``game.batch_implied_weights`` stay as their numpy reference.  The exact
share, the trajectories and the convergence counts need no compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _dims, _generator, _loop, _mc_select, _mc_targets, _mc_upward, _physical_memory
from .game import ConfigError, _integer, _label_pair, _model, _real, update_directions  # noqa: F401
from .labels import Label, canonical_label_pair


class EstimationError(RuntimeError):
    """A Monte Carlo estimate ended up with no usable samples."""


class NonConvergenceError(RuntimeError):
    """The restricted-update fixed point ran out of updating samples."""


@dataclass(frozen=True)
class Environment:
    """Product-uniform distribution over an axis-aligned box in the square.

    Each dimension draws independently from U[lo, hi).  Batches are drawn
    one dimension at a time, which is part of the determinism contract:
    reproducing a run requires consuming the generator in the same order.
    """

    intervals: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, 1.0),
        (0.0, 1.0),
    )

    def __post_init__(self) -> None:
        intervals = self.intervals
        if not isinstance(intervals, (tuple, list)) or len(intervals) != 2:
            raise ConfigError(f"an environment has two intervals, got {intervals!r}", "intervals")
        cleaned = []
        for dim, interval in enumerate(intervals):
            name = f"intervals[{dim}]"
            if not isinstance(interval, (tuple, list)) or len(interval) != 2:
                raise ConfigError(f"{name} must be a (lo, hi) pair, got {interval!r}", name)
            lo, hi = (_real(end, name) for end in interval)
            if not lo < hi:
                raise ConfigError(f"interval ({lo}, {hi}) must have lo < hi", name)
            cleaned.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(cleaned))

    @property
    def area(self) -> float:
        (lo1, hi1), (lo2, hi2) = self.intervals
        return (hi1 - lo1) * (hi2 - lo2)

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` observations as a (count, 2) array, each column contiguous in memory.

        ``rng`` draws dimension one's uniforms, then dimension two's, each
        mapped onto its interval.
        """
        return np.array([rng.random(count) * (hi - lo) + lo for lo, hi in self.intervals]).T


# The four triangles of the unit square where updates pull weights up,
# one per quadrant, each of area 1/8.
_POSITIVE_TRIANGLES = (
    ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0)),
    ((0.5, 0.5), (1.0, 0.0), (1.0, 0.5)),
    ((0.0, 0.5), (0.5, 0.5), (0.0, 1.0)),
    ((0.0, 0.0), (0.5, 0.5), (0.0, 0.5)),
)


def _clip_half_plane(points, axis, bound, keep_below):
    """One Sutherland-Hodgman pass against an axis-aligned half plane."""
    clipped = []
    count = len(points)
    for i in range(count):
        a = points[i]
        b = points[(i + 1) % count]
        a_in = a[axis] <= bound if keep_below else a[axis] >= bound
        b_in = b[axis] <= bound if keep_below else b[axis] >= bound
        if a_in:
            clipped.append(a)
        if a_in != b_in:
            t = (bound - a[axis]) / (b[axis] - a[axis])
            clipped.append(
                (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            )
    return clipped


def _clip_to_box(points, interval1, interval2):
    lo1, hi1 = interval1
    lo2, hi2 = interval2
    for axis, bound, keep_below in (
        (0, lo1, False),
        (0, hi1, True),
        (1, lo2, False),
        (1, hi2, True),
    ):
        points = _clip_half_plane(points, axis, bound, keep_below)
        if not points:
            return []
    return points


def _polygon_area(points) -> float:
    total = 0.0
    count = len(points)
    for i in range(count):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % count]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def positive_update_probability(env: Environment) -> float:
    """Exact probability that an observation pulls listener weights up.

    Clips each upward triangle to the environment's box and divides the
    surviving area by the box area.  The boundary lines carry no mass
    under a product-uniform environment, so this is also the probability
    that the implied target is 1 for a fully reliable speaker.
    """
    covered = 0.0
    for triangle in _POSITIVE_TRIANGLES:
        clipped = _clip_to_box(list(triangle), *env.intervals)
        if clipped:
            covered += _polygon_area(clipped)
    return covered / env.area


# Observations per call into the Monte Carlo loops.  Each call draws its
# chunk dimension by dimension, so the sizes are part of their output.
_MC_CHUNK = 1 << 20
_MOMENTS_CHUNK = 1 << 19
# Bytes model 1's target moments hold per sample, all at once: the two
# signed memberships, the target and the selected target.
_HELD_BYTES_PER_SAMPLE = 32


def _environment(env) -> Environment:
    """``env``, which the estimators sample by its intervals, when it is an ``Environment``."""
    if not isinstance(env, Environment):
        raise ConfigError(f"env must be an Environment, got {env!r}", "env")
    return env


def positive_update_probability_mc(
    env: Environment,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the upward-pull probability.

    Returns the estimate together with its binomial standard error, so a
    caller can check the analytic value against estimate +- 3 se.  The
    compiled ``mc_upward`` draws, ``_MC_CHUNK`` per call, the observations
    ``sample_batch`` would, and counts those ``update_directions`` gives +1.
    """
    env, n_samples, rng = _environment(env), _integer(n_samples, "n_samples", 1), _generator(rng)
    # mc_upward reads only the intervals from dims; the labels play no part.
    lib, dims = _loop(), _dims(canonical_label_pair(), env.intervals)
    hits = sum(_mc_upward(lib, rng, min(_MC_CHUNK, n_samples - done), dims) for done in range(0, n_samples, _MC_CHUNK))
    estimate = hits / n_samples
    se = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return estimate, se


@dataclass
class RunningMoments:
    """Streaming count, mean, and sum of squared deviations.

    ``update`` folds in one batch of samples at a time by merging its
    moments into the running ones, so Monte Carlo sampling can stream
    through fixed-size chunks without holding every sample.
    """

    count: int = 0
    mean: float = 0.0
    sum_sq_dev: float = 0.0

    def update(self, values: np.ndarray, out: np.ndarray | None = None) -> None:
        """Fold in ``values``, whose deviations go to the front of ``out`` when it is given."""
        values = np.asarray(values, dtype=np.float64).ravel()
        count = values.size
        if count == 0:
            return
        mean = float(values.mean())
        deviations = np.subtract(values, mean, out=None if out is None else out[:count])
        np.square(deviations, out=deviations)
        sum_sq_dev = float(deviations.sum())
        if self.count == 0:
            # The first batch is taken as it is: mean * count / count need not be mean.
            self.count, self.mean, self.sum_sq_dev = count, mean, sum_sq_dev
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * count / total
        self.sum_sq_dev += sum_sq_dev + delta * delta * self.count * count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance; zero when fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self.sum_sq_dev / (self.count - 1)


@dataclass(frozen=True)
class TargetMoments:
    """Moments of the implied update target over usable observations."""

    mean: float
    variance: float
    count: int


def _check_held(model: int, n_samples: int) -> None:
    """Refuse a model-1 ``n_samples`` whose samples, held at once, would not fit in physical memory."""
    have = _physical_memory() if model == 1 else None  # model 2 streams its samples
    if have is not None and n_samples * _HELD_BYTES_PER_SAMPLE > have:
        raise ConfigError(
            f"model 1 holds every sample at once: n_samples = {n_samples} needs about "
            f"{n_samples * _HELD_BYTES_PER_SAMPLE / 2**30:.1f} GiB; physical memory is {have / 2**30:.1f} GiB",
            "n_samples",
        )


def estimate_target_moments(
    env: Environment,
    reliability: float = 1.0,
    model: int = 2,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
    labels: tuple[Label, Label] | None = None,
) -> TargetMoments:
    """Monte Carlo moments of the clamped update target.

    With the mismatch update rule (model 2) every observation with a
    defined target counts, and sampling streams through fixed-size chunks
    into one buffer of targets, so the sample count can be large.  With
    the threshold rule (model 1)
    a listener only moves when the asserted compound already fits the
    observation at least as well as the speaker's reliability, and how
    well it fits depends on the listener's own weight.  So the samples'
    signed memberships and targets are kept, filled in one pass through
    the compiled loop, and conditioned on the resting weight, the
    self-consistent population mean: lam <- mean of targets over samples
    that would update a listener holding lam, iterated from a neutral
    start of 0.5 until successive iterates differ by less than 1e-4 (or
    100 iterations pass, keeping the last iterate).  Raises
    EstimationError when no sample has a defined target, and
    NonConvergenceError when an iterate has no updating samples, which is
    what happens when reliability is so low that no assertion ever fits
    well enough.  ``labels`` defaults to the canonical pair; other labels
    must be two that the compiled loop computes, each over a space holding
    its dimension's interval, or a ``ConfigError`` naming them is raised
    before any draw.  So is one naming ``n_samples`` when model 1's
    samples would not fit in physical memory.
    """
    env, reliability, model = _environment(env), _real(reliability, "reliability"), _model(model)
    n_samples = _integer(n_samples, "n_samples", 1)
    labels = _label_pair(canonical_label_pair() if labels is None else labels, env.intervals)
    rng = np.random.default_rng(0) if rng is None else _generator(rng)
    _check_held(model, n_samples)
    lib, dims = _loop(), _dims(labels, env.intervals)

    moments = RunningMoments()
    if model == 2:
        targets, deviations = np.empty((2, min(_MOMENTS_CHUNK, n_samples)))
        for done in range(0, n_samples, _MOMENTS_CHUNK):
            kept = _mc_targets(lib, rng, min(_MOMENTS_CHUNK, n_samples - done), dims, reliability, None, None, targets)
            moments.update(targets[:kept], deviations)
        if moments.count == 0:
            raise EstimationError(
                "every sampled observation fit both labels equally well"
            )
    else:
        a, b, targets, updating = np.empty((4, n_samples))
        kept = _mc_targets(lib, rng, n_samples, dims, reliability, a, b, targets)
        if kept == 0:
            raise EstimationError(
                "every sampled observation fit both labels equally well"
            )
        mu_first, mu_second, targets = a[:kept], b[:kept], targets[:kept]

        def select(resting: float) -> np.ndarray:
            """The targets at which a listener of weight ``resting`` updates."""
            count = _mc_select(lib, resting, reliability, mu_first, mu_second, targets, updating)
            return updating[:count]

        resting = 0.5
        for _ in range(100):
            selected = select(resting)
            if selected.size == 0:
                raise NonConvergenceError(
                    "no observation would trigger an update at weight "
                    f"{resting:.6g} with reliability {reliability:.6g}"
                )
            revised = float(selected.mean())
            converged = abs(revised - resting) < 1e-4
            resting = revised
            if converged:
                break
        moments.update(select(resting), targets)
    return TargetMoments(
        mean=moments.mean, variance=moments.variance, count=moments.count
    )


def resting_variance(rate: float, target_variance: float) -> float:
    """Steady-state cross-agent variance for update rate ``rate``.

    Each agent's weight is an independent chain pulled toward iid targets,
    and the geometric averaging leaves a residual variance of
    rate / (2 - rate) times the target variance.
    """
    rate = _real(rate, "rate", closed=False)
    return rate / (2.0 - rate) * _real(target_variance, "target_variance")


def mean_trajectory(start_mean, target_mean, rate, steps):
    """Expected weight after ``steps`` updates of one agent.

    The update is an exponential moving average, so the mean decays
    geometrically from its start toward the target mean.  ``steps`` may
    be a scalar or an array; arrays come back as arrays.
    """
    start_mean, target_mean = _real(start_mean, "start_mean"), _real(target_mean, "target_mean")
    rate = _real(rate, "rate", closed=False)
    steps_arr = np.asarray(steps, dtype=np.float64)
    decay = np.power(1.0 - rate, steps_arr)
    value = target_mean + (start_mean - target_mean) * decay
    if steps_arr.ndim == 0:
        return float(value)
    return value


def variance_trajectory(start_variance, target_variance, rate, steps):
    """Cross-agent weight variance after ``steps`` updates per agent.

    The one-step recurrence is v' = (1-rate)^2 v + rate^2 Var(target),
    whose solution decays from the starting variance toward the resting
    value of resting_variance(rate, target_variance) at rate (1-rate)^2
    per step.  ``steps`` may be a scalar or an array.
    """
    rest = resting_variance(rate, target_variance)
    steps_arr = np.asarray(steps, dtype=np.float64)
    decay = np.power(1.0 - rate, 2.0 * steps_arr)
    value = _real(start_variance, "start_variance") * decay + rest * (1.0 - decay)
    if steps_arr.ndim == 0:
        return float(value)
    return value


def _rate(rate) -> float:
    """``rate`` in (0, 1); one at which 1 - rate rounds to 1 never closes a gap and is refused."""
    rate = _real(rate, "rate", closed=False)
    if 1.0 - rate == 1.0:
        raise ConfigError(f"rate {rate!r} is too small: 1 - rate rounds to 1", "rate")
    return rate


def steps_to_mean_convergence(start_mean, target_mean, rate, tol) -> int:
    """Smallest update count bringing the expected weight within ``tol``.

    Zero when the start is already within tolerance of the target.
    """
    start_mean, target_mean = _real(start_mean, "start_mean"), _real(target_mean, "target_mean")
    decay, tol = math.log(1.0 - _rate(rate)), _real(tol, "tol", 0, math.inf, closed=False)
    gap = abs(start_mean - target_mean)
    if gap <= tol:
        return 0
    return math.ceil((math.log(tol) - math.log(gap)) / decay)


def steps_to_variance_convergence(
    start_variance, target_variance, rate, tol
) -> int:
    """Smallest update count bringing the variance within ``tol`` of rest.

    The variance gap closes at the squared decay rate, so this is the
    mean-convergence count with twice the log-decay in the denominator.
    """
    decay, tol = math.log(1.0 - _rate(rate)), _real(tol, "tol", 0, math.inf, closed=False)
    rest = resting_variance(rate, target_variance)
    gap = abs(_real(start_variance, "start_variance") - rest)
    if gap <= tol:
        return 0
    return math.ceil((math.log(tol) - math.log(gap)) / (2.0 * decay))


@dataclass(frozen=True)
class Prediction:
    """Resting-state summary for one environment and update rule.

    Bundles the analytic upward-pull share, the Monte Carlo target
    moments, and the implied resting mean and variance, with helpers for
    trajectory values and convergence counts at this prediction's rate.
    Steps are per-agent updates throughout.
    """

    rate: float
    reliability: float
    model: int
    positive_share: float
    target_mean: float
    target_variance: float
    resting_mean: float
    resting_variance: float
    sample_count: int

    def mean_at(self, start_mean: float, steps):
        return mean_trajectory(start_mean, self.resting_mean, self.rate, steps)

    def variance_at(self, start_variance: float, steps):
        return variance_trajectory(
            start_variance, self.target_variance, self.rate, steps
        )

    def steps_to_mean(self, start_mean: float, tol: float) -> int:
        return steps_to_mean_convergence(
            start_mean, self.resting_mean, self.rate, tol
        )

    def steps_to_variance(self, start_variance: float, tol: float) -> int:
        return steps_to_variance_convergence(
            start_variance, self.target_variance, self.rate, tol
        )


def build_prediction(
    env: Environment,
    rate: float,
    reliability: float = 1.0,
    model: int = 2,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
    labels: tuple[Label, Label] | None = None,
) -> Prediction:
    """Assemble the full resting-state prediction for one configuration.

    The resting mean is the target mean under the mismatch rule and the
    restricted fixed point under the threshold rule; the resting variance
    is rate / (2 - rate) times the target variance in both cases.  The
    default generator is seeded to zero so repeated calls agree; pass an
    explicit generator to control the stream.
    """
    rate, reliability, model = _rate(rate), _real(reliability, "reliability"), _model(model)
    if rng is None:
        rng = np.random.default_rng(0)
    moments = estimate_target_moments(
        env,
        reliability=reliability,
        model=model,
        n_samples=n_samples,
        rng=rng,
        labels=labels,
    )
    return Prediction(
        rate=rate,
        reliability=reliability,
        model=model,
        positive_share=positive_update_probability(env),
        target_mean=moments.mean,
        target_variance=moments.variance,
        resting_mean=moments.mean,
        resting_variance=resting_variance(rate, moments.variance),
        sample_count=moments.count,
    )
