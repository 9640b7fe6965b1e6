"""Weighted combination of labels into compound concepts.

A compound conjoins one label per dimension, each taken either positively or
negated, with a non-negative weight per dimension.  Its membership is the
weight-normalised sum of the constituent memberships:

    membership(x) = sum_i (weight_i / total) * signed_membership_i(x_i)

The same value arises from a construction inside the binary space {0, 1}^n:
place the compound's prototype at the corner selected by the polarity, measure
distances with the weighted city-block metric, draw the acceptance threshold
uniformly from (0, total), and push each dimension's membership through as an
independent Bernoulli coordinate.  ``binary_space_oracle`` evaluates that
construction by brute-force enumeration of all 2^n corners and provides an
independent check of the closed form.

``conjoin_compounds`` combines two compounds over the same signed labels into
one, averaging their normalised weights with the reliability attached to each
operand.  The resulting weights always sum to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .labels import Label, UniformThreshold

__all__ = [
    "Polarity",
    "WeightVector",
    "Compound",
    "weighted_hamming",
    "compound_membership",
    "binary_space_oracle",
    "conjoin_compounds",
]

# Enumeration above this size is pointless as an oracle and can exhaust memory.
MAX_ORACLE_DIMS = 20


@dataclass(frozen=True)
class Polarity:
    """One sign per dimension: ``True`` keeps the label, ``False`` negates it."""

    signs: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.signs:
            raise ValueError("polarity needs at least one sign")
        object.__setattr__(self, "signs", tuple(bool(s) for s in self.signs))

    @staticmethod
    def parse(text: str) -> "Polarity":
        """Build from a string of ``+`` and ``-`` characters."""
        if not text or any(c not in "+-" for c in text):
            raise ValueError(f"polarity string must be non-empty over '+-', got {text!r}")
        return Polarity(tuple(c == "+" for c in text))

    def corner(self) -> tuple[int, ...]:
        """The binary-space prototype corner selected by the signs."""
        return tuple(1 if s else 0 for s in self.signs)

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-dimension weights with a strictly positive total."""

    components: tuple[float, ...]
    total: float = field(init=False)

    def __post_init__(self) -> None:
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("weight vector needs at least one component")
        if any(c < 0 for c in comps):
            raise ValueError(f"weights must be non-negative, got {comps}")
        total = float(sum(comps))
        if not total > 0:
            raise ValueError("weight vector must have a positive total")
        object.__setattr__(self, "total", total)

    def normalized(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Compound:
    """A conjunction of signed labels, one per dimension, with dimension weights."""

    labels: tuple[Label, ...]
    polarity: Polarity
    weights: WeightVector

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.polarity) == len(self.weights)):
            raise ValueError(
                "labels, polarity and weights must agree in length, got "
                f"{len(self.labels)}/{len(self.polarity)}/{len(self.weights)}"
            )


def weighted_hamming(y: tuple[int, ...], z: tuple[int, ...], weights: WeightVector) -> float:
    """Weighted city-block distance between two binary vectors."""
    if len(y) != len(z) or len(y) != len(weights):
        raise ValueError("binary vectors and weights must agree in length")
    return float(sum(w * abs(a - b) for w, a, b in zip(weights.components, y, z)))


def compound_membership(compound: Compound, x: tuple) -> float:
    """Closed-form membership of a compound: the normalised weighted sum.

    ``x`` supplies one point per dimension, each passed to the label living on
    that dimension.
    """
    if len(x) != len(compound.labels):
        raise ValueError(
            f"expected {len(compound.labels)} coordinates, got {len(x)}"
        )
    shares = compound.weights.normalized()
    acc = 0.0
    for share, label, sign, xi in zip(shares, compound.labels, compound.polarity, x):
        m = label.membership(xi) if sign else label.negated_membership(xi)
        acc += share * m
    return acc


def binary_space_oracle(compound: Compound, memberships: tuple[float, ...]) -> float:
    """Membership evaluated inside the binary space by exhaustive enumeration.

    Each coordinate becomes an independent Bernoulli variable with the given
    (un-signed) membership as its success probability.  The compound sits at
    the corner named by its polarity, distances are weighted city-block, and
    the acceptance threshold is uniform on ``(0, total weight)``.  The result
    equals ``compound_membership`` up to floating-point error, but is computed
    by a completely different route.
    """
    n = len(compound.labels)
    if n > MAX_ORACLE_DIMS:
        raise ValueError(f"oracle enumeration capped at {MAX_ORACLE_DIMS} dimensions")
    if len(memberships) != n:
        raise ValueError(f"expected {n} membership values, got {len(memberships)}")
    if any(not 0.0 <= m <= 1.0 for m in memberships):
        raise ValueError("membership values must lie in [0, 1]")

    corner = compound.polarity.corner()
    ramp = UniformThreshold(width=compound.weights.total)
    acc = 0.0
    for y in itertools.product((0, 1), repeat=n):
        mass = 1.0
        for m, yi in zip(memberships, y):
            mass *= m if yi else 1.0 - m
        if mass == 0.0:
            continue
        dist = weighted_hamming(y, corner, compound.weights)
        acc += mass * float(ramp.survival(dist))
    return acc


def conjoin_compounds(first: Compound, second: Compound, w_first: float, w_second: float) -> Compound:
    """Conjoin two compounds over identical signed labels into one compound.

    The operands' normalised weights are averaged, each weighted by the
    reliability attached to its source; the resulting weight vector sums to
    one.  The operation is symmetric in its (compound, reliability) pairs, and
    conjoining a compound with itself returns its own normalised weights.
    """
    if not w_first > 0 or not w_second > 0:
        raise ValueError("reliabilities must be positive")
    if first.labels != second.labels:
        raise ValueError("compounds must share the same constituent labels")
    if first.polarity != second.polarity:
        raise ValueError("compounds must share the same polarity")

    w_total = w_first + w_second
    t_first = first.weights.total
    t_second = second.weights.total
    coeffs = tuple(
        (w_first * t_second * a + w_second * t_first * b) / (w_total * t_first * t_second)
        for a, b in zip(first.weights.components, second.weights.components)
    )
    return Compound(labels=first.labels, polarity=first.polarity, weights=WeightVector(coeffs))
