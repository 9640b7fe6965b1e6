"""Graded labels over bounded conceptual spaces.

A label is a prototype point together with a distance metric and a random
acceptance threshold.  An element of the space is judged to fall under the
label whenever its distance to the prototype does not exceed the threshold,
so membership is the probability of that event:

    membership(x) = P(distance(x, prototype) <= threshold)
                  = survival(distance(x, prototype))

where ``survival(t) = P(threshold >= t)`` is the survival function of the
threshold distribution.  For a uniform threshold on ``(0, width)`` this is
the familiar ramp ``clip(1 - t / width, 0, 1)``.

Membership of the negated label is the complementary probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ConceptualSpace",
    "Euclidean",
    "WeightedCityBlock",
    "DistanceMetric",
    "ThresholdDistribution",
    "UniformThreshold",
    "Label",
    "canonical_label",
    "canonical_label_pair",
]

Point = Union[float, Sequence[float]]


@dataclass(frozen=True)
class ConceptualSpace:
    """A product of closed real intervals, one per quality dimension."""

    dims: int
    bounds: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError(f"space needs at least one dimension, got {self.dims}")
        if not self.bounds:
            object.__setattr__(self, "bounds", ((0.0, 1.0),) * self.dims)
        if len(self.bounds) != self.dims:
            raise ValueError(
                f"expected {self.dims} bound pairs, got {len(self.bounds)}"
            )
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")

    def contains(self, x: tuple[float, ...]) -> bool:
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self.bounds))


@dataclass(frozen=True)
class Euclidean:
    """Straight-line distance."""

    def distance(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        if len(a) == 1:
            return abs(a[0] - b[0])
        return float(np.sqrt(sum((u - v) ** 2 for u, v in zip(a, b))))

    def distances(self, xs: np.ndarray, ref: tuple[float, ...]) -> np.ndarray:
        """Distances from each row of ``xs`` to ``ref``; 1-d spaces accept a flat array."""
        if len(ref) == 1:
            d = np.asarray(xs).reshape(-1) - ref[0]
            return np.abs(d, out=d)
        return np.sqrt(((np.asarray(xs) - np.asarray(ref)) ** 2).sum(axis=-1))


@dataclass(frozen=True)
class WeightedCityBlock:
    """Sum of per-dimension absolute differences scaled by positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("city-block metric needs at least one weight")
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"city-block weights must be positive, got {self.weights}")

    def distance(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        if len(a) != len(self.weights):
            raise ValueError(
                f"metric has {len(self.weights)} weights but points have {len(a)} dimensions"
            )
        return float(sum(w * abs(u - v) for w, u, v in zip(self.weights, a, b)))

    def distances(self, xs: np.ndarray, ref: tuple[float, ...]) -> np.ndarray:
        if len(ref) == 1:
            d = np.asarray(xs).reshape(-1) - ref[0]
            return self.weights[0] * np.abs(d, out=d)
        diffs = np.abs(np.asarray(xs) - np.asarray(ref))
        return diffs @ np.asarray(self.weights)


DistanceMetric = Union[Euclidean, WeightedCityBlock]


@dataclass(frozen=True)
class ThresholdDistribution:
    """Distribution of the random acceptance threshold, held as its survival function.

    ``survival(t)`` must equal ``P(threshold >= t)``; in particular
    ``survival(0) == 1``.  It must accept scalars and numpy arrays alike.
    """

    survival: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if float(self.survival(0.0)) != 1.0:
            raise ValueError("survival(0) must equal 1")


@dataclass(frozen=True)
class UniformThreshold(ThresholdDistribution):
    """Threshold drawn uniformly from ``(0, width)``: survival is a linear ramp."""

    survival: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    width: float = 1.0

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError(f"threshold width must be positive, got {self.width}")
        object.__setattr__(self, "survival", self._survival)

    def _survival(self, t: np.ndarray) -> np.ndarray:
        s = np.divide(t, self.width)
        if not isinstance(s, np.ndarray):
            # A scalar distance, as in Label.membership.
            return np.clip(1.0 - s, 0.0, 1.0)
        np.subtract(1.0, s, out=s)
        return np.clip(s, 0.0, 1.0, out=s)


@dataclass(frozen=True)
class Label:
    """A graded label: prototype, metric and acceptance-threshold distribution.

    The prototype must lie inside the space, and every membership query is
    validated against the space bounds; out-of-range points are rejected
    rather than clamped.
    """

    prototype: tuple[float, ...]
    metric: DistanceMetric
    threshold: ThresholdDistribution
    space: ConceptualSpace

    def __post_init__(self) -> None:
        proto = self.prototype
        if isinstance(proto, (int, float)):
            proto = (float(proto),)
            object.__setattr__(self, "prototype", proto)
        if len(proto) != self.space.dims:
            raise ValueError(
                f"prototype has {len(proto)} dimensions, space has {self.space.dims}"
            )
        if not self.space.contains(proto):
            raise ValueError(f"prototype {proto} lies outside the space bounds")

    def _as_point(self, x: Point) -> tuple[float, ...]:
        if isinstance(x, (int, float)):
            x = (float(x),)
        else:
            x = tuple(float(v) for v in x)
        if len(x) != self.space.dims:
            raise ValueError(
                f"point has {len(x)} dimensions, space has {self.space.dims}"
            )
        if not self.space.contains(x):
            raise ValueError(f"point {x} lies outside the space bounds")
        return x

    def membership(self, x: Point) -> float:
        """Probability that ``x`` falls within the acceptance threshold of the prototype."""
        pt = self._as_point(x)
        return float(self.threshold.survival(self.metric.distance(pt, self.prototype)))

    def negated_membership(self, x: Point) -> float:
        """Membership of the complement label: ``1 - membership(x)``."""
        return 1.0 - self.membership(x)

    def membership_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership for many points at once.

        For a 1-d space ``xs`` is a flat array of coordinates; otherwise one
        point per row.  Bounds are checked for the whole batch.
        """
        xs = np.asarray(xs, dtype=np.float64)
        cols = xs.reshape(-1, 1) if xs.ndim == 1 else xs
        if cols.shape[-1] != self.space.dims:
            raise ValueError(
                f"points have {cols.shape[-1]} dimensions, space has {self.space.dims}"
            )
        for k, (lo, hi) in enumerate(self.space.bounds):
            col = cols[:, k]
            if col.size and (col.min() < lo or col.max() > hi):
                raise ValueError("batch contains points outside the space bounds")
        return np.asarray(self.threshold.survival(self.metric.distances(xs, self.prototype)))


def canonical_label(space_width: float = 1.0) -> Label:
    """The 1-d label with prototype at the upper bound and a full-width uniform threshold.

    On ``[0, 1]`` its membership is the identity map, which makes a pair of
    these labels the standard testbed for dimension-weight games.
    """
    space = ConceptualSpace(dims=1, bounds=((0.0, space_width),))
    return Label(
        prototype=(space_width,),
        metric=Euclidean(),
        threshold=UniformThreshold(width=space_width),
        space=space,
    )


def canonical_label_pair() -> tuple[Label, Label]:
    """Two canonical unit-interval labels, one per dimension of the unit square."""
    lab = canonical_label()
    return (lab, lab)
