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
timestep gives every agent one update per speaker it listens to, so the
caller converts with steps = timestep * (n_agents - 1) before comparing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .game import ASSERTION_ORDER, AssertionIndex, batch_implied_weights
from .labels import Label, canonical_label_pair


class EstimationError(RuntimeError):
    """A Monte Carlo estimate ended up with no usable samples."""


class NonConvergenceError(RuntimeError):
    """The restricted-update fixed point ran out of updating samples."""


class UpdateDirection(enum.Enum):
    """Which way an observation pushes a listener's weight."""

    POSITIVE = 1
    NEGATIVE = -1
    BOUNDARY = 0


@dataclass(frozen=True)
class Region:
    """Quadrant and push direction of one observation on the unit square."""

    quadrant: AssertionIndex
    direction: UpdateDirection


def classify_region(x: tuple[float, float]) -> Region:
    """Classify an observation by asserted quadrant and update direction.

    The quadrant is decided by comparing each coordinate to 0.5, with ties
    counted as the positive side, matching how a speaker with an interior
    weight picks its assertion.  The direction is ``update_directions``'s.
    """
    x1, x2 = float(x[0]), float(x[1])
    if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):
        raise ValueError(f"observation {x!r} lies outside the unit square")
    # ASSERTION_ORDER lists BOTH, ONLY_FIRST, ONLY_SECOND, NEITHER.
    quadrant = ASSERTION_ORDER[2 * (x1 < 0.5) + (x2 < 0.5)]
    direction = int(update_directions(np.array([[x1, x2]]))[0])
    return Region(quadrant=quadrant, direction=UpdateDirection(direction))


def update_directions(xs: np.ndarray) -> np.ndarray:
    """Push directions, +1, -1, or 0 per row of observations.

    Within a quadrant the direction is the sign of the difference between
    the two signed memberships: when the first dimension fits the
    assertion better than the second, the implied target saturates at 1
    and the update pulls upward.
    """
    xs = np.asarray(xs, dtype=np.float64)
    x1, x2 = xs[:, 0], xs[:, 1]
    first_high = x1 >= 0.5
    second_high = x2 >= 0.5
    same_side = first_high == second_high
    diff = np.where(first_high, x1 - x2, x2 - x1)
    fringe = np.where(first_high, x1 + x2 - 1.0, 1.0 - x1 - x2)
    discriminant = np.where(same_side, diff, fringe)
    return np.sign(discriminant).astype(np.int8)


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
        cleaned = tuple(
            (float(lo), float(hi)) for lo, hi in self.intervals
        )
        for lo, hi in cleaned:
            if not lo < hi:
                raise ValueError(f"interval ({lo}, {hi}) must have lo < hi")
            if lo < 0.0 or hi > 1.0:
                raise ValueError(
                    f"interval ({lo}, {hi}) must lie within the unit square"
                )
        object.__setattr__(self, "intervals", cleaned)

    @property
    def area(self) -> float:
        (lo1, hi1), (lo2, hi2) = self.intervals
        return (hi1 - lo1) * (hi2 - lo2)

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` observations as a (count, 2) array."""
        return self.sample_runs([rng], count)

    def sample_runs(self, rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
        """Draw ``count`` observations from each generator, stacked run by run.

        Returns a (len(rngs) * count, 2) array whose r-th block of rows
        comes from ``rngs[r]``, which draws dimension one, then dimension
        two.  Each column is contiguous in memory.
        """
        out = np.empty((2, len(rngs), count))
        for r, rng in enumerate(rngs):
            rng.random(out=out[0, r])
            rng.random(out=out[1, r])
        for dim, (lo, hi) in enumerate(self.intervals):
            out[dim] *= hi - lo
            out[dim] += lo
        return out.reshape(2, -1).T


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


def positive_update_probability_mc(
    env: Environment,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 1 << 20,
) -> tuple[float, float]:
    """Monte Carlo estimate of the upward-pull probability.

    Returns the estimate together with its binomial standard error, so a
    caller can check the analytic value against estimate +- 3 se.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    hits = 0
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        xs = env.sample_batch(rng, take)
        hits += int(np.count_nonzero(update_directions(xs) > 0))
        done += take
    estimate = hits / n_samples
    se = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return estimate, se


@dataclass
class RunningMoments:
    """Streaming count, mean, and sum of squared deviations.

    ``update`` folds in one batch of samples at a time by merging its
    moments, so Monte Carlo sampling can stream through fixed-size chunks
    without holding every sample.
    """

    count: int = 0
    mean: float = 0.0
    sum_sq_dev: float = 0.0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        batch_mean = float(values.mean())
        batch = RunningMoments(
            count=values.size,
            mean=batch_mean,
            sum_sq_dev=float(np.square(values - batch_mean).sum()),
        )
        self.merge(batch)

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.sum_sq_dev = other.sum_sq_dev
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.sum_sq_dev += (
            other.sum_sq_dev + delta * delta * self.count * other.count / total
        )
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


def _materialized_targets(
    env: Environment,
    labels: tuple[Label, Label],
    reliability: float,
    n_samples: int,
    rng: np.random.Generator,
):
    xs = env.sample_batch(rng, n_samples)
    return batch_implied_weights(labels, xs, reliability)


def model1_resting_mean(
    env: Environment,
    reliability: float,
    n_samples: int,
    rng: np.random.Generator,
    labels: tuple[Label, Label] | None = None,
) -> float:
    """Self-consistent population mean when updates require fitting speech.

    Under the threshold update rule a listener only moves when the
    asserted compound already fits the observation at least as well as
    the speaker's reliability, and how well it fits depends on the
    listener's own weight.  This solves that circularity by iterating
    lam <- mean of targets over samples that would update a listener
    holding lam, from a neutral start of 0.5, until successive iterates
    differ by less than 1e-4 (or 100 iterations pass, returning the last
    iterate).  An iterate with no updating samples raises
    NonConvergenceError, which is what happens when reliability is so low
    that no assertion ever fits well enough.
    """
    if labels is None:
        labels = canonical_label_pair()
    targets, usable, mu_first, mu_second = _materialized_targets(
        env, labels, reliability, n_samples, rng
    )
    return _resting_mean_from_samples(
        targets, usable, mu_first, mu_second, reliability
    )


def _resting_mean_from_samples(
    targets, usable, mu_first, mu_second, reliability, tol=1e-4, max_iter=100
):
    current = 0.5
    for _ in range(max_iter):
        fit = current * mu_first + (1.0 - current) * mu_second
        updating = usable & (fit <= reliability)
        if not updating.any():
            raise NonConvergenceError(
                "no observation would trigger an update at weight "
                f"{current:.6g} with reliability {reliability:.6g}"
            )
        revised = float(targets[updating].mean())
        if abs(revised - current) < tol:
            return revised
        current = revised
    return current


def estimate_target_moments(
    env: Environment,
    reliability: float = 1.0,
    model: int = 2,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
    labels: tuple[Label, Label] | None = None,
    chunk: int = 1 << 19,
) -> TargetMoments:
    """Monte Carlo moments of the clamped update target.

    With the mismatch update rule (model 2) every observation with a
    defined target counts, and sampling streams through fixed-size chunks
    so the sample count can be large.  With the threshold rule (model 1)
    the updating set depends on the listener's weight, so the samples are
    materialized once and conditioned on the resting weight found by
    model1_resting_mean.  Raises EstimationError when no sample has a
    defined target.
    """
    if model not in (1, 2):
        raise ValueError("model must be 1 or 2")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if labels is None:
        labels = canonical_label_pair()

    if model == 2:
        moments = RunningMoments()
        done = 0
        while done < n_samples:
            take = min(chunk, n_samples - done)
            xs = env.sample_batch(rng, take)
            targets, usable, _, _ = batch_implied_weights(
                labels, xs, reliability
            )
            moments.update(targets[usable])
            done += take
        if moments.count == 0:
            raise EstimationError(
                "every sampled observation fit both labels equally well"
            )
        return TargetMoments(
            mean=moments.mean, variance=moments.variance, count=moments.count
        )

    targets, usable, mu_first, mu_second = _materialized_targets(
        env, labels, reliability, n_samples, rng
    )
    if not usable.any():
        raise EstimationError(
            "every sampled observation fit both labels equally well"
        )
    resting = _resting_mean_from_samples(
        targets, usable, mu_first, mu_second, reliability
    )
    fit = resting * mu_first + (1.0 - resting) * mu_second
    updating = usable & (fit <= reliability)
    moments = RunningMoments()
    moments.update(targets[updating])
    return TargetMoments(
        mean=moments.mean, variance=moments.variance, count=moments.count
    )


def resting_variance(rate: float, target_variance: float) -> float:
    """Steady-state cross-agent variance for update rate ``rate``.

    Each agent's weight is an independent chain pulled toward iid targets,
    and the geometric averaging leaves a residual variance of
    rate / (2 - rate) times the target variance.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    return rate / (2.0 - rate) * target_variance


def mean_trajectory(start_mean, target_mean, rate, steps):
    """Expected weight after ``steps`` updates of one agent.

    The update is an exponential moving average, so the mean decays
    geometrically from its start toward the target mean.  ``steps`` may
    be a scalar or an array; arrays come back as arrays.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
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
    value = start_variance * decay + rest * (1.0 - decay)
    if steps_arr.ndim == 0:
        return float(value)
    return value


def steps_to_mean_convergence(start_mean, target_mean, rate, tol) -> int:
    """Smallest update count bringing the expected weight within ``tol``.

    Zero when the start is already within tolerance of the target.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    gap = abs(start_mean - target_mean)
    if gap <= tol:
        return 0
    return math.ceil((math.log(tol) - math.log(gap)) / math.log(1.0 - rate))


def steps_to_variance_convergence(
    start_variance, target_variance, rate, tol
) -> int:
    """Smallest update count bringing the variance within ``tol`` of rest.

    The variance gap closes at the squared decay rate, so this is the
    mean-convergence count with twice the log-decay in the denominator.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rest = resting_variance(rate, target_variance)
    gap = abs(start_variance - rest)
    if gap <= tol:
        return 0
    return math.ceil(
        (math.log(tol) - math.log(gap)) / (2.0 * math.log(1.0 - rate))
    )


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
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
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
