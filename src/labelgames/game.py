"""Language games in which agents negotiate a shared dimension weight.

Each agent carries a single weight in [0, 1]: the share of dimension one in
the two-dimension compounds it asserts (dimension two receives the
complement).  In a dialogue the speaker observes a point of the unit square,
asserts the signed conjunction it judges most apt, and the listener nudges its
own weight toward the weight implied by that assertion.

Each kind of input value has one checking rule, written once here:
``_integer`` (an int of at least a minimum), ``_real`` (a float in a
closed or open range), ``_per_agent`` (one value in [0, 1], or one per
agent, kept as a tuple) and ``_model`` (the int 1 or 2).  Bools,
strings, NaN and arrays are refused where a number belongs.
``GameConfig``, the single-agent API and the experiment and analysis
entry points check every value through them and keep plain ints, floats
and tuples; a refusal raises ``ConfigError``, which names the field.

Model 1 listeners update only when their current membership for the asserted
compound does not exceed the speaker's reliability; model 2 listeners update
whenever the two differ.

A timestep visits every speaker/listener pair once in a freshly shuffled
order, sampling a fresh observation per dialogue, and applies updates
sequentially.  An agent's state is two floats, its weight and its
reliability, and a population's is two float arrays.  The dialogue
arithmetic is written once in Python, on plain floats, in ``_dialogue``
and its helpers, and mirrored in the engine's C (``engine``);
``choose_assertion``, ``implied_weight`` and ``run_dialogue`` wrap them
for single agents and take floats.  ``batch_implied_weights`` and
``update_directions`` are the Monte Carlo loops' numpy references, and
``_label_pair`` the one check of the labels they and the game are given.

The per-timestep Python path stays for the tests and the benchmark's
hooks: ``_draw_schedule`` reads one timestep's pairs for any number of
runs from the pair table, which ``engine._stacked_timestep`` plays
stacked lane by lane, and ``_apply_sequential`` is the reference that
plays them one at a time through ``_dialogue``.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labels import Euclidean, Label, UniformThreshold, WeightedCityBlock, canonical_label_pair

__all__ = [
    "ConfigError",
    "AssertionIndex",
    "ASSERTION_ORDER",
    "GameConfig",
    "choose_assertion",
    "implied_weight",
    "run_dialogue",
    "dialogues_per_timestep",
    "batch_implied_weights",
    "update_directions",
]


class AssertionIndex(enum.Enum):
    """The four signed conjunctions over two labels, in tie-break order."""

    BOTH = 1
    ONLY_FIRST = 2
    ONLY_SECOND = 3
    NEITHER = 4

    @property
    def signs(self) -> tuple[bool, bool]:
        return _SIGNS[self]


_SIGNS = {
    AssertionIndex.BOTH: (True, True),
    AssertionIndex.ONLY_FIRST: (True, False),
    AssertionIndex.ONLY_SECOND: (False, True),
    AssertionIndex.NEITHER: (False, False),
}

ASSERTION_ORDER = (
    AssertionIndex.BOTH,
    AssertionIndex.ONLY_FIRST,
    AssertionIndex.ONLY_SECOND,
    AssertionIndex.NEITHER,
)


class ConfigError(ValueError):
    """A parameter value the library refuses, before any compute.

    ``field`` names the refused parameter, where one is to blame, and
    ``line`` the configuration-file line that set it, where a file did.
    """

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.message = message
        self.field = field
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        return self.message if self.line is None else f"line {self.line}: {self.message}"


def _integer(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` as an int in [least, most]; numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}", name)
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}", name)
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}, got {value}", name)
    return int(value)


def _real(value, name: str, lo=0, hi=1, closed: bool = True) -> float:
    """``value`` as a float in [lo, hi], or in (lo, hi) when not ``closed``.

    Python and numpy reals pass; bools, strings, arrays and NaN do not.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and (lo <= value <= hi if closed else lo < value < hi):
        return float(value)
    span = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
    raise ConfigError(f"{name} must lie in {span}, got {value!r}", name)


def _per_agent(value, name: str, n: int) -> float | tuple[float, ...]:
    """One value in [0, 1] for all agents, or n as a tuple, list or 1-d array, kept as a tuple."""
    if not isinstance(value, (tuple, list, np.ndarray)):
        return _real(value, name)
    if isinstance(value, np.ndarray) and value.ndim != 1 or len(value) != n:
        raise ConfigError(f"{name} must be one value or {n}, one per agent", name)
    return tuple(_real(v, name) for v in value)


def _model(value) -> int:
    """The update rule, the int 1 or 2."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value in (1, 2):
        return int(value)
    raise ConfigError(f"model must be 1 or 2, got {value!r}", "model")


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of a population game."""

    n_agents: int = 10
    timesteps: int = 2000
    rate: float = 1e-3
    model: int = 1
    labels: tuple[Label, Label] = canonical_label_pair()
    reliability: float | tuple[float, ...] = 1.0
    # None draws initial weights uniformly; a float fixes them; a tuple sets each agent.
    weight_init: float | tuple[float, ...] | None = None
    schedule: str = "ordered"

    def __post_init__(self) -> None:
        n = _integer(self.n_agents, "n_agents", 2, 46_341)  # int32 pair ids: n(n-1) < 2**31
        dialogues_per_timestep(n, self.schedule)  # refuses an unknown schedule
        init = self.weight_init
        for name, value in (
            ("n_agents", n),
            ("timesteps", _integer(self.timesteps, "timesteps", 1)),
            ("rate", _real(self.rate, "rate", closed=False)),
            ("model", _model(self.model)),
            ("reliability", _per_agent(self.reliability, "reliability", n)),
            ("weight_init", None if init is None else _per_agent(init, "weight_init", n)),
        ):
            object.__setattr__(self, name, value)
        _label_pair(self.labels)


def _label_pair(labels, intervals=None) -> tuple[Label, Label]:
    """``labels`` as two labels ``_label_terms`` accepts, each space containing its interval.

    The containment is checked only when ``intervals``, one (lo, hi) per
    label, are given.  Refuses anything else with a ``ConfigError`` naming
    ``labels``.
    """
    if not (isinstance(labels, tuple) and len(labels) == 2) or any(
        _label_terms(label) is None for label in labels
    ):
        raise ConfigError(
            "the game is played over exactly two 1-d labels, each with a Euclidean or "
            "one-weight WeightedCityBlock metric and a UniformThreshold",
            "labels",
        )
    for label, (lo, hi) in zip(labels, intervals or ()):
        (low, high), = label.space.bounds
        if lo < low or hi > high:
            raise ConfigError(
                f"label space [{low}, {high}] does not contain the "
                f"environment's interval [{lo}, {hi}]",
                "labels",
            )
    return labels


def _label_terms(label) -> tuple[float, float, float] | None:
    """(prototype, metric scale, threshold width) of a label the engine computes, else None.

    Its membership at x is then ``clip(1 - scale * |x - prototype| / width,
    0, 1)``, as ``Label.membership_batch`` computes it; a ``Euclidean``
    metric has scale 1, by which multiplying is exact.
    """
    if not isinstance(label, Label) or label.space.dims != 1:
        return None
    metric, threshold = label.metric, label.threshold
    if type(metric) is Euclidean:
        scale = 1.0
    elif type(metric) is WeightedCityBlock and len(metric.weights) == 1:
        scale = float(metric.weights[0])
    else:
        return None
    if type(threshold) is not UniformThreshold:
        return None
    return float(label.prototype[0]), scale, float(threshold.width)


def _initial_state(config: GameConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Initial weights and reliabilities of one run, one array entry per agent."""
    n = config.n_agents
    if config.weight_init is None:
        weights = rng.random(n)
    else:
        weights = np.full(n, config.weight_init, dtype=np.float64)
    return weights, np.full(n, config.reliability, dtype=np.float64)


def dialogues_per_timestep(n_agents: int, schedule: str = "ordered") -> int:
    """Dialogues in one timestep: one per ordered pair of agents, or per unordered pair."""
    n = _integer(n_agents, "n_agents", 2)
    if isinstance(schedule, str) and schedule in ("ordered", "unordered"):
        return n * (n - 1) // (1 if schedule == "ordered" else 2)
    raise ConfigError(f"schedule must be 'ordered' or 'unordered', got {schedule!r}", "schedule")


def _assertion(share: float, m1: float, m2: float) -> AssertionIndex:
    """The signed conjunction with maximal membership at weight ``share``; ties go first."""
    compounds = (
        share * m1 + (1.0 - share) * m2,
        share * m1 + (1.0 - share) * (1.0 - m2),
        share * (1.0 - m1) + (1.0 - share) * m2,
        share * (1.0 - m1) + (1.0 - share) * (1.0 - m2),
    )
    return ASSERTION_ORDER[compounds.index(max(compounds))]


def _signed(asserted: AssertionIndex, m1: float, m2: float) -> tuple[float, float]:
    """The memberships of the asserted compound's two signed labels."""
    s1, s2 = asserted.signs
    return (m1 if s1 else 1.0 - m1), (m2 if s2 else 1.0 - m2)


def _solve(mu_first: float, mu_second: float, reliability: float) -> float | None:
    """The weight, clamped to [0, 1], at which the signed compound's membership is ``reliability``."""
    denom = mu_first - mu_second
    if denom == 0.0:
        return None
    return min(1.0, max(0.0, (reliability - mu_second) / denom))


def _dialogue(
    w_speaker: float, w_listener: float, rel: float, m1: float, m2: float, model: int
) -> tuple[AssertionIndex, float | None]:
    """The speaker's assertion and the listener's target, or None when it keeps its weight.

    Under model 1 the listener updates when its membership for the asserted
    compound is at most the speaker's reliability; under model 2, whenever
    the two differ.  A dialogue whose implied weight is undefined never
    updates.
    """
    asserted = _assertion(w_speaker, m1, m2)
    mu_first, mu_second = _signed(asserted, m1, m2)
    mu_listener = w_listener * mu_first + (1.0 - w_listener) * mu_second
    wants_update = (mu_listener <= rel) if model == 1 else (mu_listener != rel)
    return asserted, (_solve(mu_first, mu_second, rel) if wants_update else None)


def choose_assertion(weight: float, labels: tuple[Label, Label], x: tuple[float, float]) -> AssertionIndex:
    """The signed conjunction with maximal membership for a speaker of weight ``weight``; ties go to the earliest in ``ASSERTION_ORDER``."""
    weight = _real(weight, "weight")
    return _assertion(weight, labels[0].membership(x[0]), labels[1].membership(x[1]))


def implied_weight(
    asserted: AssertionIndex,
    labels: tuple[Label, Label],
    x: tuple[float, float],
    reliability: float,
) -> float | None:
    """The dimension weight at which the asserted compound's membership equals the reliability.

    Solved from ``share * mu_first + (1 - share) * mu_second = reliability``
    and clamped to [0, 1].  Returns None when both signed memberships coincide,
    in which case no weight is implied.
    """
    reliability = _real(reliability, "reliability")
    signed = _signed(asserted, labels[0].membership(x[0]), labels[1].membership(x[1]))
    return _solve(*signed, reliability)


def run_dialogue(
    w_speaker: float,
    w_listener: float,
    reliability: float,
    labels: tuple[Label, Label],
    x: tuple[float, float],
    rate: float,
    model: int,
) -> tuple[float, AssertionIndex, float | None]:
    """One dialogue: the speaker asserts, the listener may move toward the implied weight.

    ``reliability`` is the speaker's own, granted to its assertion; the
    update rule is ``_dialogue``'s, and an update moves the listener's
    weight a fraction ``rate`` of the way toward the target, as in
    ``_apply_sequential``.  Returns the listener's weight after the
    dialogue, the assertion, and the target, or None when the listener
    kept its weight.
    """
    w_speaker, w_listener = _real(w_speaker, "w_speaker"), _real(w_listener, "w_listener")
    reliability, rate = _real(reliability, "reliability"), _real(rate, "rate", closed=False)
    model = _model(model)
    m1, m2 = labels[0].membership(x[0]), labels[1].membership(x[1])
    asserted, target = _dialogue(w_speaker, w_listener, reliability, m1, m2, model)
    if target is not None:
        w_listener = w_listener + rate * (target - w_listener)
    return w_listener, asserted, target


def batch_implied_weights(
    labels: tuple[Label, Label],
    xs: np.ndarray,
    reliability: float | np.ndarray,
):
    """Vectorised implied weights for many observations at once; the numpy reference of ``mc_targets``.

    Signs are chosen per dimension by majority membership (ties count as
    positive).  That is the assertion ``choose_assertion(w, labels, x)``
    makes away from the ends of [0, 1]; near them rounding can tie the
    majority compound with one that ``ASSERTION_ORDER`` puts first, for
    example weight 1e-17 asserts BOTH at memberships (0.3, 0.8), where the
    majority signs give ONLY_SECOND.  Returns ``(targets, usable, mu_first,
    mu_second)`` where ``usable`` flags observations whose implied weight is
    defined; the target is clamped to [0, 1] and zero-filled where unusable.
    """
    return _signed_targets(*_memberships(labels, xs), reliability)


def update_directions(xs: np.ndarray) -> np.ndarray:
    """Push directions, +1, -1, or 0 per row of observations on the canonical labels.

    The numpy reference of the compiled ``mc_upward``.  Within a quadrant
    the direction is the sign of the difference between the two signed
    memberships: when the first dimension fits the assertion better than
    the second, the implied target saturates at 1 and the update pulls
    upward.
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


def _memberships(labels: tuple[Label, Label], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each observation's membership in the two labels, in row order.

    Returned as writable float64 arrays, whatever a threshold's survival
    function returns, since ``_signed_targets`` works in place.
    """
    return tuple(
        np.require(label.membership_batch(xs[:, dim]), np.float64, "W")
        for dim, label in enumerate(labels)
    )


def _signed_targets(m1: np.ndarray, m2: np.ndarray, reliability):
    """Targets, usable flags and signed memberships, elementwise, under the majority signs.

    ``m1`` and ``m2`` are overwritten with the signed memberships
    ``mu_first`` and ``mu_second``, which are returned.  fl(1 - m) is exact
    for m >= 1/2 and at least 1/2 otherwise, so the larger of m and
    fl(1 - m) is m where m >= 1/2 and fl(1 - m) elsewhere.
    """
    np.maximum(m1, 1.0 - m1, out=m1)
    np.maximum(m2, 1.0 - m2, out=m2)
    denom = m1 - m2
    usable = denom != 0.0
    targets = np.subtract(reliability, m2)
    np.divide(targets, denom, out=targets, where=usable)
    np.copyto(targets, 0.0, where=~usable)
    np.clip(targets, 0.0, 1.0, out=targets)
    return targets, usable, m1, m2


def _draw_schedule(n: int, schedule: str, rngs: Sequence[np.random.Generator]):
    """Speaker and listener lane ids for one timestep of every run, freshly shuffled.

    Run r draws from ``rngs[r]`` alone; its agents are lanes r*n to r*n + n-1 and
    its dialogues fill the r-th block of the int32 arrays.  Each generator draws
    a permutation of the pair table, ``itertools.permutations`` or, unordered,
    ``combinations`` over ``range(n)``, then (unordered only) one coin per pair,
    a coin below 1/2 keeping the first agent as speaker.
    """
    unordered = schedule == "unordered"
    table = np.array(list((itertools.combinations if unordered else itertools.permutations)(range(n), 2)))
    blocks = []
    for r, rng in enumerate(rngs):
        block = table[rng.permutation(len(table))] + r * n
        if unordered:
            tails = rng.random(len(table)) >= 0.5
            block[tails] = block[tails, ::-1]
        blocks.append(block)
    return tuple(np.ascontiguousarray(np.concatenate(blocks).T, dtype=np.int32))


def _apply_sequential(weights, rels, m1, m2, speakers, listeners, rate, model):
    """Reference path: dialogues strictly in shuffled order, one at a time.

    ``weights`` and ``rels`` hold one entry per agent, ``m1`` and ``m2``
    each dialogue's memberships in the two labels; every dialogue runs
    ``_dialogue`` on plain floats.  Returns the weights after the last
    dialogue.
    """
    w = weights.tolist()
    rel = rels.tolist()
    for s, l, a, b in zip(speakers.tolist(), listeners.tolist(), m1.tolist(), m2.tolist()):
        _, target = _dialogue(w[s], w[l], rel[s], a, b, model)
        if target is not None:
            w[l] = w[l] + rate * (target - w[l])
    return np.asarray(w)


# Kept, though the engine no longer calls it: the benchmark's tracer hooks it
# by name until the benchmark drops that hook.
def _group_by_listener(listeners, runs, n, schedule):
    """Dialogue ids on a (round, lane) grid, and the grid's padding.

    Row r holds, for every lane, the id of the r-th dialogue (in dialogue
    order) in which it listens.  Under the ordered schedule every lane
    listens n-1 times and the padding is None.  Under the unordered one
    the rows are as many as the busiest lane's dialogues; the slots past a
    lane's last dialogue hold dialogue 0 and are flagged True.
    """
    total = runs * n
    keys = listeners.astype(np.uint16) if total < 65536 else listeners
    order = np.argsort(keys, kind="stable")
    if schedule == "ordered":
        return np.ascontiguousarray(order.reshape(total, n - 1).T), None
    counts = np.bincount(listeners, minlength=total)
    rounds = int(counts.max())
    slots = np.arange(listeners.size) - np.repeat(np.cumsum(counts) - counts, counts)
    take = np.zeros((rounds, total), dtype=order.dtype)
    take[slots, listeners[order]] = order
    return take, np.arange(rounds)[:, np.newaxis] >= counts
