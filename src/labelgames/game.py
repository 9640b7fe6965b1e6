"""Language games in which agents negotiate a shared dimension weight.

Each agent carries a single weight in [0, 1]: the share of dimension one in
the two-dimension compounds it asserts (dimension two receives the
complement).  In a dialogue the speaker observes a point of the unit square,
asserts the signed conjunction it judges most apt, and the listener nudges its
own weight toward the weight implied by that assertion.

Model 1 listeners update only when their current membership for the asserted
compound does not exceed the speaker's reliability; model 2 listeners update
whenever the two differ.

A timestep visits every speaker/listener pair once in a freshly shuffled
order, sampling a fresh observation per dialogue, and applies updates
sequentially.  The dialogue arithmetic is written once, on plain floats, in
``_dialogue`` and its helpers; ``choose_assertion``, ``implied_weight`` and
``run_dialogue`` wrap them for single agents.  ``_apply_sequential`` is the
reference: it plays the dialogues one at a time through ``_dialogue`` on a
float array of weights.  ``_stacked_timestep`` is the one array kernel: it
advances any number of independent runs at once, stacked lane by lane, and
is bit-identical to the reference; a run whose weights or memberships could
make rounding change an assertion is replayed through the reference
instead.  ``run_timestep`` is the kernel's one-run case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .labels import Label, canonical_label_pair

__all__ = [
    "AssertionIndex",
    "ASSERTION_ORDER",
    "AgentState",
    "GameConfig",
    "DialogueOutcome",
    "choose_assertion",
    "implied_weight",
    "apply_update",
    "run_dialogue",
    "run_timestep",
    "init_population",
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


@dataclass(frozen=True)
class AgentState:
    """One agent: an id, its dimension weight, and its reliability as a speaker."""

    agent_id: int
    weight: float
    reliability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability must lie in [0, 1], got {self.reliability}")


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
        if self.n_agents < 2:
            raise ValueError(f"a game needs at least two agents, got {self.n_agents}")
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be at least 1, got {self.timesteps}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"update rate must lie in (0, 1), got {self.rate}")
        if self.model not in (1, 2):
            raise ValueError(f"model must be 1 or 2, got {self.model}")
        if len(self.labels) != 2 or any(l.space.dims != 1 for l in self.labels):
            raise ValueError("the game is played over exactly two 1-d labels")
        if isinstance(self.reliability, tuple):
            if len(self.reliability) != self.n_agents:
                raise ValueError("per-agent reliability list must match n_agents")
            if any(not 0.0 <= r <= 1.0 for r in self.reliability):
                raise ValueError("reliabilities must lie in [0, 1]")
        elif not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability must lie in [0, 1], got {self.reliability}")
        if isinstance(self.weight_init, tuple):
            if len(self.weight_init) != self.n_agents:
                raise ValueError("per-agent weight list must match n_agents")
            if any(not 0.0 <= v <= 1.0 for v in self.weight_init):
                raise ValueError("initial weights must lie in [0, 1]")
        elif self.weight_init is not None and not 0.0 <= self.weight_init <= 1.0:
            raise ValueError(f"initial weight must lie in [0, 1], got {self.weight_init}")
        if self.schedule not in ("ordered", "unordered"):
            raise ValueError(f"schedule must be 'ordered' or 'unordered', got {self.schedule!r}")


@dataclass(frozen=True)
class DialogueOutcome:
    """What happened in one dialogue, from the listener's point of view."""

    asserted: AssertionIndex
    updated: bool
    target: float | None
    listener_weight_after: float

    def __post_init__(self) -> None:
        if self.updated and self.target is None:
            raise ValueError("an update requires a target weight")


def _initial_state(config: GameConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Initial weights and reliabilities of one run, one array entry per agent."""
    n = config.n_agents
    if config.weight_init is None:
        weights = rng.random(n)
    else:
        weights = np.full(n, config.weight_init, dtype=np.float64)
    return weights, np.full(n, config.reliability, dtype=np.float64)


def init_population(config: GameConfig, rng: np.random.Generator) -> list[AgentState]:
    """Create the initial agents; uniform random weights unless configured otherwise."""
    weights, rels = _initial_state(config, rng)
    return [
        AgentState(agent_id=i, weight=w, reliability=r)
        for i, (w, r) in enumerate(zip(weights.tolist(), rels.tolist()))
    ]


def dialogues_per_timestep(n_agents: int, schedule: str = "ordered") -> int:
    if schedule == "ordered":
        return n_agents * (n_agents - 1)
    if schedule == "unordered":
        return n_agents * (n_agents - 1) // 2
    raise ValueError(f"unknown schedule {schedule!r}")


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


def choose_assertion(speaker: AgentState, labels: tuple[Label, Label], x: tuple[float, float]) -> AssertionIndex:
    """The signed conjunction with maximal membership for the speaker; ties go to the earliest in ``ASSERTION_ORDER``."""
    return _assertion(speaker.weight, labels[0].membership(x[0]), labels[1].membership(x[1]))


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
    signed = _signed(asserted, labels[0].membership(x[0]), labels[1].membership(x[1]))
    return _solve(*signed, reliability)


def apply_update(listener: AgentState, target: float, rate: float) -> AgentState:
    """Move the listener's weight a fraction ``rate`` of the way toward ``target``."""
    return replace(listener, weight=listener.weight + rate * (target - listener.weight))


def run_dialogue(
    speaker: AgentState,
    listener: AgentState,
    labels: tuple[Label, Label],
    x: tuple[float, float],
    rate: float,
    model: int,
) -> tuple[AgentState, DialogueOutcome]:
    """One dialogue: the speaker asserts, the listener may move toward the implied weight.

    The reliability granted to the assertion is the speaker's own; the
    update rule is ``_dialogue``'s.
    """
    m1, m2 = labels[0].membership(x[0]), labels[1].membership(x[1])
    asserted, target = _dialogue(speaker.weight, listener.weight, speaker.reliability, m1, m2, model)
    if target is None:
        return listener, DialogueOutcome(asserted, False, None, listener.weight)
    listener = apply_update(listener, target, rate)
    return listener, DialogueOutcome(asserted, True, target, listener.weight)


def batch_implied_weights(
    labels: tuple[Label, Label],
    xs: np.ndarray,
    reliability: float | np.ndarray,
):
    """Vectorised implied weights for many observations at once.

    Signs are chosen per dimension by majority membership (ties count as
    positive), which matches ``choose_assertion`` for any speaker weight
    strictly inside (0, 1).  Returns ``(targets, usable, mu_first, mu_second)``
    where ``usable`` flags observations whose implied weight is defined; the
    target is clamped to [0, 1] and zero-filled where unusable.
    """
    m1 = labels[0].membership_batch(xs[:, 0])
    m2 = labels[1].membership_batch(xs[:, 1])
    return _signed_targets(m1, m2, reliability)


def _signed_targets(m1: np.ndarray, m2: np.ndarray, reliability):
    mu_first = np.where(m1 >= 0.5, m1, 1.0 - m1)
    mu_second = np.where(m2 >= 0.5, m2, 1.0 - m2)
    denom = mu_first - mu_second
    usable = denom != 0.0
    targets = np.zeros_like(denom)
    np.divide(reliability - mu_second, denom, out=targets, where=usable)
    np.clip(targets, 0.0, 1.0, out=targets)
    return targets, usable, mu_first, mu_second


_PAIR_CACHE: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}


def _base_pairs(n: int, schedule: str) -> tuple[np.ndarray, np.ndarray]:
    """Fixed canonical enumeration of the schedule's pairs, cached per size."""
    key = (n, schedule)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    if schedule == "ordered":
        grid = np.arange(n)
        firsts = np.repeat(grid, n - 1)
        seconds = np.concatenate([np.delete(grid, i) for i in range(n)])
    else:
        firsts, seconds = np.triu_indices(n, k=1)
    _PAIR_CACHE[key] = (firsts, seconds)
    return firsts, seconds


def _draw_schedule(n: int, schedule: str, rng: np.random.Generator):
    """Speaker and listener index arrays for one timestep, freshly shuffled.

    Consumption order of the generator is part of the determinism contract:
    first the pair permutation, then (unordered only) the role coins, then the
    observations are drawn by the caller.
    """
    firsts, seconds = _base_pairs(n, schedule)
    perm = rng.permutation(firsts.size)
    firsts, seconds = firsts[perm], seconds[perm]
    if schedule == "ordered":
        return firsts, seconds
    coins = rng.random(firsts.size) < 0.5
    speakers = np.where(coins, firsts, seconds)
    listeners = np.where(coins, seconds, firsts)
    return speakers, listeners


def run_timestep(
    population: Sequence[AgentState],
    labels: tuple[Label, Label],
    env,
    rate: float,
    model: int,
    rng: np.random.Generator,
    schedule: str = "ordered",
) -> list[AgentState]:
    """Play every scheduled dialogue once, applying updates sequentially.

    ``env`` must provide ``sample_batch(rng, count)`` returning one observation
    per row.  Returns the population after the timestep; ids are preserved.
    This is the one-run case of ``_stacked_timestep``.
    """
    n = len(population)
    if n < 2:
        raise ValueError("a timestep needs at least two agents")
    speakers, listeners = _draw_schedule(n, schedule, rng)
    xs = env.sample_batch(rng, speakers.size)
    weights = _stacked_timestep(
        np.asarray([a.weight for a in population]),
        np.asarray([a.reliability for a in population]),
        labels, xs, speakers, listeners, rate, model, schedule, 1, n,
    )
    return [replace(a, weight=float(w)) for a, w in zip(population, weights)]


def _apply_sequential(weights, rels, labels, xs, speakers, listeners, rate, model):
    """Reference path: dialogues strictly in shuffled order, one at a time.

    ``weights`` and ``rels`` hold one entry per agent; the memberships are
    computed in one batch and every dialogue runs ``_dialogue`` on plain
    floats.  Returns the weights after the last dialogue.
    """
    w = weights.tolist()
    rel = rels.tolist()
    m1 = labels[0].membership_batch(xs[:, 0]).tolist()
    m2 = labels[1].membership_batch(xs[:, 1]).tolist()
    for s, l, a, b in zip(speakers.tolist(), listeners.tolist(), m1, m2):
        _, target = _dialogue(w[s], w[l], rel[s], a, b, model)
        if target is not None:
            w[l] = w[l] + rate * (target - w[l])
    return np.asarray(w)


def _group_by_listener(listeners, n, rounds, order, values, fill=0.0, dtype=np.float64):
    """Values rearranged to one row per listener, columns in dialogue order."""
    if rounds * n == listeners.size:
        return values[order].reshape(n, rounds)
    counts = np.bincount(listeners, minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = np.arange(listeners.size) - np.repeat(starts, counts)
    out = np.full((n, rounds), fill, dtype=dtype)
    out[listeners[order], cols] = values[order]
    return out


# Least margin min(w, 1 - w) * |2m - 1| at which rounding cannot make a
# speaker's assertion differ from the majority-sign compound.
_MARGIN = 2.0**-50


def _sign_margin(m: np.ndarray, runs: int) -> np.ndarray:
    """Per run, the least |2m - 1| over its memberships other than exactly 1/2."""
    d = np.abs(2.0 * m - 1.0)
    d[d == 0.0] = 1.0
    return d.reshape(runs, -1).min(axis=1)


def _stacked_timestep(
    weights, rels, labels, xs, speakers, listeners, rate, model, schedule, runs, n
):
    """Advance every run one timestep on stacked per-run state.

    Agent i of run r occupies lane r*n + i, speakers and listeners carry
    lane ids, and run r's dialogues fill the r-th block of the arrays.
    Each run ends bit-identical to replaying its block through
    ``_apply_sequential``.

    The round loop advances every listener by one of its dialogues per
    round with the reference's arithmetic.  Listener chains are independent
    because each speaker is taken to assert the majority-sign compound
    (positive where m >= 1/2), whatever its weight.  The reference computes
    a compound as fl(fl(w*p1) + fl(fl(1-w)*p2)) with p in {m, fl(1-m)}.
    Rounding is monotone, so the majority compound never comes out below
    another one, but it can tie one that ``ASSERTION_ORDER`` puts first.
    Exactly, it leads by at least min(w, 1-w) * |2m-1|.  A computed
    compound is off by at most 7 * 2**-54: 2**-54 each for fl(1-w), the two
    fl(1-m) and the two products, and 2**-53 for the sum.  So a margin
    above 2**-50 = 16 * 2**-54 rules a tie out, with room for rounding the
    margin itself.  A membership of exactly 1/2 ties exactly and takes the
    positive sign on both paths, so it is left out of the min.  A speaker
    holds its lane's weight on entry or after some round, so each run's
    margin is checked on entry and after every round.  A run that fails
    it, as any run with a weight of 0 or 1 does, is replayed from its
    entry state through ``_apply_sequential``.
    """
    total = runs * n
    per_run = speakers.size // runs
    m1 = labels[0].membership_batch(xs[:, 0])
    m2 = labels[1].membership_batch(xs[:, 1])
    sign_margin = np.minimum(_sign_margin(m1, runs), _sign_margin(m2, runs))

    def settled(w):
        lane_margin = np.minimum(w, 1.0 - w).reshape(runs, n).min(axis=1)
        return lane_margin * sign_margin > _MARGIN

    fast = settled(weights)
    updated = weights.copy()
    if fast.any():
        speaker_rel = rels[speakers]
        targets, usable, mu_first, mu_second = _signed_targets(m1, m2, speaker_rel)
        keys = listeners.astype(np.uint16) if total < 65536 else listeners
        order = np.argsort(keys, kind="stable")
        if schedule == "ordered":
            rounds = n - 1
        else:
            rounds = int(np.bincount(listeners, minlength=total).max())
        p_target = _group_by_listener(listeners, total, rounds, order, targets)
        p_active = _group_by_listener(
            listeners, total, rounds, order, usable, fill=False, dtype=bool
        )
        p_first = _group_by_listener(listeners, total, rounds, order, mu_first)
        p_second = _group_by_listener(listeners, total, rounds, order, mu_second)
        p_rel = _group_by_listener(listeners, total, rounds, order, speaker_rel)

        for r in range(rounds):
            mu = updated * p_first[:, r] + (1.0 - updated) * p_second[:, r]
            if model == 1:
                cond = mu <= p_rel[:, r]
            else:
                cond = mu != p_rel[:, r]
            upd = p_active[:, r] & cond
            updated = np.where(upd, updated + rate * (p_target[:, r] - updated), updated)
            fast &= settled(updated)
            if not fast.any():
                break

    for r in np.flatnonzero(~fast):
        lanes = slice(r * n, (r + 1) * n)
        block = slice(r * per_run, (r + 1) * per_run)
        updated[lanes] = _apply_sequential(
            weights[lanes], rels[lanes], labels, xs[block],
            speakers[block] - r * n, listeners[block] - r * n, rate, model,
        )
    return updated
