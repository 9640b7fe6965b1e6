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
arithmetic is written once, on plain floats, in ``_dialogue`` and its
helpers; ``choose_assertion``, ``implied_weight`` and ``run_dialogue``
wrap them for single agents and take floats.  ``_apply_sequential`` is the
reference: it plays the dialogues one at a time through ``_dialogue`` on a
float array of weights, given each dialogue's memberships.
``_draw_schedule`` shuffles and decodes one timestep's pairs for any number
of runs in one pass, each from its own generator.  ``_stacked_timestep`` is
the one array kernel: given the dialogues' memberships, it advances
those runs at once, stacked lane by lane, on a (round, lane) grid of
dialogues sorted by listener, which it builds one block of rounds at a
time, and is bit-identical to the reference.  One per-lane guard keeps
it exact.  Speakers assert the majority-sign compound, which rounding
cannot change while a weight keeps a margin from 0 and 1; a lane without
that margin on entry, such as one at weight 0 or 1, is pinned, and its
assertions are computed exactly from its entry weight.  Only the lanes
that could fall to the margin within the timestep, the pinned ones among
them, are checked after each round, and a run is replayed through the
reference only when a pinned weight moves or another lane loses its
margin.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labels import Label, canonical_label_pair

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
        n = _integer(self.n_agents, "n_agents", 2, 46_341)  # n(n-1) < _INT32_IDS
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
        if not (isinstance(self.labels, tuple) and len(self.labels) == 2) or any(
            not isinstance(l, Label) or l.space.dims != 1 for l in self.labels
        ):
            raise ConfigError("the game is played over exactly two 1-d labels", "labels")


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
    """Vectorised implied weights for many observations at once.

    Signs are chosen per dimension by majority membership (ties count as
    positive).  That is the assertion ``choose_assertion(w, labels, x)``
    makes when min(w, 1 - w) * |2m - 1| exceeds 2**-50 for both
    memberships m other than exactly 1/2 (see ``_stacked_timestep``); nearer
    the ends of [0, 1] rounding can pick another compound, for example
    weight 1e-17 asserts BOTH at memberships (0.3, 0.8), where the majority
    signs give ONLY_SECOND.  Returns ``(targets, usable, mu_first, mu_second)``
    where ``usable`` flags observations whose implied weight is defined; the
    target is clamped to [0, 1] and zero-filled where unusable.
    """
    return _signed_targets(*_memberships(labels, xs), reliability)


def _memberships(labels: tuple[Label, Label], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each observation's membership in the two labels, in row order.

    Returned as writable float64 arrays, whatever a threshold's survival
    function returns, since ``_signed_targets`` works in place.
    """
    return tuple(
        np.require(label.membership_batch(xs[:, dim]), np.float64, "W")
        for dim, label in enumerate(labels)
    )


def _signed_targets(m1: np.ndarray, m2: np.ndarray, reliability, signs=None):
    """Targets, usable flags and signed memberships, elementwise.

    ``m1`` and ``m2`` are overwritten with the signed memberships
    ``mu_first`` and ``mu_second``, which are returned; any array shape
    works, so the kernel calls it on its (round, lane) grid.  ``signs``,
    when given, holds two boolean arrays of the same shape that say where
    each label is asserted positive; m stays where positive and becomes
    fl(1 - m) elsewhere.  By default the signs are the majority ones:
    fl(1 - m) is exact for m >= 1/2 and at least 1/2 otherwise, so the
    larger of m and fl(1 - m) is m where m >= 1/2 and fl(1 - m) elsewhere.
    """
    if signs is None:
        np.maximum(m1, 1.0 - m1, out=m1)
        np.maximum(m2, 1.0 - m2, out=m2)
    else:
        for m, positive in zip((m1, m2), signs):
            np.subtract(1.0, m, out=m, where=~positive)
    denom = m1 - m2
    usable = denom != 0.0
    targets = np.subtract(reliability, m2)
    np.divide(targets, denom, out=targets, where=usable)
    np.copyto(targets, 0.0, where=~usable)
    np.clip(targets, 0.0, 1.0, out=targets)
    return targets, usable, m1, m2


def _pairs(q, n: int, schedule: str):
    """The two agents of each int32 pair id ``q``, speaker-major or row-major i < j.

    Ordered: speaker s = q // (n-1), listener k + (k >= s) with k = q mod (n-1).
    Unordered: c = n(n-1)/2 - 1 - q counts back from the last pair; i = n-2-r and
    j = n-1 - (c - r(r+1)/2) with r = floor((sqrt(8c+1) - 1) / 2), exact since
    8c+1 < 2**35 is an exact double and sqrt is correctly rounded; r(r+1) < 2**31.
    """
    if schedule == "ordered":
        first = q // (n - 1)  # np.divmod is slower on int32 arrays
        second = q - first * (n - 1)
        return first, second + (second >= first)
    c = (n * (n - 1) // 2 - 1) - q
    r = ((np.sqrt(8.0 * c + 1.0) - 1.0) * 0.5).astype(np.int32)  # truncation is floor here
    return (n - 2) - r, (n - 1) - (c - (r * (r + 1) >> 1))


def _draw_schedule(n: int, schedule: str, rngs: Sequence[np.random.Generator]):
    """Speaker and listener lane ids for one timestep of every run, freshly shuffled.

    Run r draws from ``rngs[r]`` alone; its agents are lanes r*n to r*n + n-1 and
    its dialogues fill the r-th block of the int32 arrays.  Each generator draws
    the pair permutation, then (unordered only) the role coins, a coin below 1/2
    keeping the first agent as speaker; the caller then draws the observations.
    Shuffling an intp ``arange`` (twice as fast as int32) in place and
    ``rng.random(out=row)`` consume exactly the draws of ``rng.permutation`` and
    ``rng.random(row.size)``; ``_pairs`` and the lane offsets run once per stack.
    """
    picks = np.empty((len(rngs), dialogues_per_timestep(n, schedule)), dtype=np.intp)
    picks[:] = np.arange(picks.shape[1])
    coins = np.empty(picks.shape) if schedule == "unordered" else None
    for r, rng in enumerate(rngs):
        rng.shuffle(picks[r])
        if coins is not None:
            rng.random(out=coins[r])
    speakers, listeners = _pairs(picks.astype(np.int32), n, schedule)
    offsets = np.arange(0, len(rngs) * n, n, dtype=np.int32)[:, np.newaxis]
    speakers += offsets
    listeners += offsets
    if coins is not None:
        heads = coins < 0.5
        speakers, listeners = (
            np.where(heads, speakers, listeners),
            np.where(heads, listeners, speakers),
        )
    return speakers.reshape(-1), listeners.reshape(-1)


def _apply_sequential(weights, rels, m1, m2, speakers, listeners, rate, model):
    """Reference path: dialogues strictly in shuffled order, one at a time.

    ``weights`` and ``rels`` hold one entry per agent, ``m1`` and ``m2``
    each dialogue's memberships in the two labels; every dialogue runs
    ``_dialogue`` on plain floats.  The dialogues are converted to Python
    objects ``_CHUNK`` at a time, since a whole block of them takes about
    110 bytes per dialogue.  Returns the weights after the last dialogue.
    """
    w = weights.tolist()
    rel = rels.tolist()
    for lo in range(0, speakers.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        block = (speakers[part], listeners[part], m1[part], m2[part])
        for s, l, a, b in zip(*(column.tolist() for column in block)):
            _, target = _dialogue(w[s], w[l], rel[s], a, b, model)
            if target is not None:
                w[l] = w[l] + rate * (target - w[l])
    return np.asarray(w)


def _assertions(share, m1, m2):
    """Elementwise ``_assertion``: the signs of the first maximal compound.

    Each compound is computed in ``_assertion``'s operation order,
    fl(fl(share * p1) + fl(fl(1 - share) * p2)), and compared with the best
    so far in ``ASSERTION_ORDER``; only a strictly larger one replaces it,
    so ties go first, as in the scalar call.  Returns the two boolean sign
    arrays.
    """
    rest = 1.0 - share
    # Indexed by sign: [False] is the negated label's term, [True] the label's.
    terms = ((share * (1.0 - m1), share * m1), (rest * (1.0 - m2), rest * m2))
    best = np.full(share.shape, -np.inf)
    first = np.empty(share.shape, dtype=bool)
    second = np.empty(share.shape, dtype=bool)
    for asserted in ASSERTION_ORDER:
        s1, s2 = asserted.signs
        compound = terms[0][s1] + terms[1][s2]
        won = compound > best
        first[won] = s1
        second[won] = s2
        np.maximum(best, compound, out=best)
    return first, second


def _pinned_signs(m1, m2, by_speaker, weights, pinned):
    """Assertion signs on the grid: exact where the speaker is pinned, majority elsewhere.

    ``m1``, ``m2`` and ``by_speaker`` are a grid's memberships and speaker
    lane ids, ``pinned`` flags the pinned lanes.  A pinned speaker's
    assertion is computed from its entry weight by ``_assertions``,
    ``_CHUNK`` cells at a time, so the temporaries stay bounded.
    """
    signs = (m1 >= 0.5, m2 >= 0.5)
    f1, f2, spk, s1, s2 = (a.reshape(-1) for a in (m1, m2, by_speaker, *signs))
    for lo in range(0, spk.size, _CHUNK):
        cells = lo + np.flatnonzero(pinned[spk[lo:lo + _CHUNK]])
        s1[cells], s2[cells] = _assertions(weights[spk[cells]], f1[cells], f2[cells])
    return signs


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


# Least margin min(w, 1 - w) * |2m - 1| at which rounding cannot make a
# speaker's assertion differ from the majority-sign compound.
_MARGIN = 2.0**-50

# Elements that one step of a chunked loop converts or computes at once.
_CHUNK = 1 << 16

# Pair and lane ids are int32: below 2**31 of each, so at most 46,341 agents.
_INT32_IDS = 2**31

# Bytes one stacked timestep holds per dialogue at its peak: the drawn
# schedule, the memberships, the take-index and one block of the (round,
# lane) grid with its temporaries.  Measured peaks (ru_maxrss of
# two-timestep runs, above the RSS after imports): 58 bytes for 1000
# agents with no pinned lane, 59 with every lane pinned at weight 1 and 67
# when the run falls back; for 2000 unordered runs of 20 agents, whose
# padded take-index has about twice as many slots as dialogues, 100 with
# no pinned lane and 94 with every lane pinned.  The constant is the
# largest of these plus about a quarter.
_STACK_BYTES_PER_DIALOGUE = 125


def _sign_margin(m: np.ndarray, runs: int) -> np.ndarray:
    """Per run, the least |2m - 1| over its memberships other than exactly 1/2.

    Doubling is exact, so 2 * |m - 1/2| is |2m - 1| to the bit.
    """
    d = m - 0.5
    np.abs(d, out=d)
    d[d == 0.0] = 0.5
    return 2.0 * d.reshape(runs, -1).min(axis=1)


def _stacked_timestep(
    weights, rels, m1, m2, speakers, listeners, rate, model, schedule, runs, n
):
    """Advance every run one timestep on stacked per-run state.

    Agent i of run r occupies lane r*n + i, speakers and listeners carry
    lane ids, and run r's dialogues fill the r-th block of the arrays.
    Each run ends bit-identical to replaying its block through
    ``_apply_sequential``.  ``bench/tracing.py`` reads this function's name
    and its ``runs`` and ``speakers`` parameters: they are a benchmark interface.

    Layout.  ``m1`` and ``m2`` are each dialogue's memberships in dialogue
    order, where the sign margin and the fallback read them.
    ``_group_by_listener`` sorts the listeners once into a (round, lane)
    grid of dialogue ids, the take-index.  The value grids are built from
    it one block of ``max(1, _CHUNK // lanes)`` rounds at a time: the
    block's memberships and, where needed, its speaker ids and
    reliabilities are gathered, its signs and targets computed and its
    padding masked, and then its rounds run, so round r reads contiguous
    rows.  Only the take-index and the padding mask span the whole
    timestep.  Under the unordered schedule lanes listen unevenly often;
    their missing slots are padding, inactive like dialogues with no
    implied weight.  Signed
    memberships, targets and the margin are elementwise operations or
    min-reductions, so computing them before or after the gather, and in
    any blocks, gives the same bits.

    The round loop advances every listener by one of its dialogues per
    round with the reference's arithmetic.  Listener chains are independent
    because no assertion depends on a weight the loop computes: the
    listener's update is the same arithmetic whatever its weight, and only
    the speaker's weight decides what it asserts.  A speaker is taken to
    assert the majority-sign compound (positive where m >= 1/2), whatever
    its weight, unless its lane is pinned.

    The exactness guard works lane by lane.  The reference computes a
    compound as fl(fl(w*p1) + fl(fl(1-w)*p2)) with p in {m, fl(1-m)}.
    Rounding is monotone, so the majority compound never comes out below
    another one, but it can tie one that ``ASSERTION_ORDER`` puts first.
    Exactly, it leads by at least min(w, 1-w) * |2m-1|.  A computed
    compound is off by at most 7 * 2**-54: 2**-54 each for fl(1-w), the two
    fl(1-m) and the two products, and 2**-53 for the sum.  A lane's margin
    is min(w, 1-w) times its run's least |2m-1| (a membership of exactly
    1/2 ties exactly and takes the positive sign on both paths, so it is
    left out), and above 2**-50 = 16 * 2**-54 it rules a tie out, with
    room for rounding the margin itself.  A lane whose margin is at most
    2**-50 on entry, as any lane at weight 0 or 1, is pinned: where it
    speaks, its assertion is computed from its entry weight exactly as the
    reference does (``_assertions``) and the cell's memberships take that
    compound's signs; speaker ids are gathered for every block only when
    some lane is pinned.  One update toward a target in [0, 1] leaves
    min(w, 1-w) at least (1-rate) * min(w, 1-w) * (1-c) - 2**-54, where
    rounding keeps c below 4 * 2**-53 / (1-rate).  So a lane whose entry
    margin, times half of (1-rate)**rounds, exceeds 2**-50 + rounds *
    2**-53 keeps its margin through every round: the half covers
    (1-c)**rounds and the rounding of the test itself (the test passes
    only if (1-rate)**rounds > 2**-49, which keeps rounds * c below 1/4).
    Every other lane is watched, every pinned lane among them.  A speaker
    holds its lane's weight on entry or after some round, so after every
    round the watched lanes are checked: one whose bits differ from its
    entry bits fails if it is pinned or has lost its margin.  While no
    lane of a run fails, every assertion in it is the reference's; a run
    with a failing lane is replayed from its entry state through
    ``_apply_sequential`` on its block's memberships, and the round loop
    stops once every run is to be replayed.
    """
    total = runs * n
    per_run = speakers.size // runs
    scale = np.repeat(np.minimum(_sign_margin(m1, runs), _sign_margin(m2, runs)), n)
    margin = np.minimum(weights, 1.0 - weights) * scale
    take, padding = _group_by_listener(listeners, runs, n, schedule)
    rounds = take.shape[0]
    pinned = margin <= _MARGIN
    any_pinned = pinned.any()
    watched = np.flatnonzero(
        margin * (0.5 * (1.0 - rate) ** rounds) <= _MARGIN + rounds * 2.0**-53
    )
    held = weights[watched].view(np.uint64)
    fast = np.ones(runs, dtype=bool)
    updated = weights.copy()

    one_rel = rels.min() == rels.max()
    moves = np.less_equal if model == 1 else np.not_equal
    mu = np.empty(total)
    step = np.empty(total)
    moving = np.empty(total, dtype=bool)
    span = max(1, _CHUNK // total)
    for r in range(rounds):
        row = r % span
        if row == 0:
            ids = take[r:r + span]
            first, second = m1[ids], m2[ids]
            by_speaker = speakers[ids] if any_pinned or not one_rel else None
            if one_rel:
                # One reliability for every lane needs no gather by speaker.
                rel = np.broadcast_to(rels[:1], first.shape)
            else:
                rel = rels[by_speaker]
            signs = None
            if any_pinned:
                signs = _pinned_signs(first, second, by_speaker, weights, pinned)
            target, active, first, second = _signed_targets(first, second, rel, signs)
            if padding is not None:
                active &= ~padding[r:r + span]
        # mu = w * first + (1 - w) * second, then w + rate * (target - w)
        np.multiply(updated, first[row], out=mu)
        np.subtract(1.0, updated, out=step)
        step *= second[row]
        mu += step
        moves(mu, rel[row], out=moving)
        moving &= active[row]
        np.subtract(target[row], updated, out=step)
        step *= rate
        step += updated
        np.copyto(updated, step, where=moving)
        if watched.size:
            moved = watched[updated[watched].view(np.uint64) != held]
            if moved.size:
                w = updated[moved]
                lost = pinned[moved] | (np.minimum(w, 1.0 - w) * scale[moved] <= _MARGIN)
                fast[moved[lost] // n] = False
                if not fast.any():
                    break

    for r in np.flatnonzero(~fast):
        lanes = slice(r * n, (r + 1) * n)
        block = slice(r * per_run, (r + 1) * per_run)
        updated[lanes] = _apply_sequential(
            weights[lanes], rels[lanes], m1[block], m2[block],
            speakers[block] - r * n, listeners[block] - r * n, rate, model,
        )
    return updated
