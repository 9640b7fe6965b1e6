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
and its helpers, and mirrored in C; ``choose_assertion``,
``implied_weight`` and ``run_dialogue`` wrap them for single agents and
take floats.

The engine is one C function, ``play_run``: it plays one run's timesteps
in one call, drawing the shuffle, the role coins and the uniforms from
the run's own numpy generator through its ctypes interface
(``next_uint32`` and ``next_double``, in ``Generator.shuffle``'s and
``Generator.random``'s order), decoding the pairs, computing the
observations and memberships and playing each dialogue in
``_dialogue``'s operation order.  ``_RunPlayer`` binds it to one game and
holds the buffers each run reuses.  The memberships are those of 1-d
labels with a ``Euclidean`` or one-weight ``WeightedCityBlock`` metric
and a ``UniformThreshold``; ``GameConfig`` refuses every other label.
The C source is compiled on first use, cached under a hash of its source
and compile command, and checked before each process first uses it:
dialogues against ``_dialogue`` on a fixed batch, and tiny whole runs,
draws included, against a Python replay from ``Generator.permutation``
and ``Generator.random``.

The per-timestep Python path stays for the tests only: ``_draw_schedule``
shuffles and decodes one timestep's pairs for any number of runs,
``_stacked_timestep`` plays them, stacked lane by lane, through the C
loop ``play_dialogues``, and ``_apply_sequential`` is the reference that
plays them one at a time through ``_dialogue``.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import hashlib
import itertools
import numbers
import os
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    UniformThreshold,
    WeightedCityBlock,
    canonical_label,
    canonical_label_pair,
)

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
            _label_terms(label) is None for label in self.labels
        ):
            raise ConfigError(
                "the game is played over exactly two 1-d labels, each with a Euclidean or "
                "one-weight WeightedCityBlock metric and a UniformThreshold",
                "labels",
            )


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
    """Vectorised implied weights for many observations at once.

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
    root = c.astype(np.float64)  # the one float buffer, worked in place
    root *= 8.0
    root += 1.0
    np.sqrt(root, out=root)
    root -= 1.0
    root *= 0.5
    r = root.astype(np.int32)  # truncation is floor here
    del root
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


# Pair and lane ids are int32: below 2**31 of each, so at most 46,341 agents.
_INT32_IDS = 2**31

# Bytes one run's timestep holds per dialogue at its peak: the picks,
# the uniforms and, unordered, the role coins.  Measured peaks (ru_maxrss
# of two-timestep runs, above the RSS after imports): 20 bytes for 1000
# agents, from uniform weights or with every weight at 1, and 28 for 1000
# or 1400 agents under the unordered schedule.  The constant is the
# largest of these plus about a quarter.
_STACK_BYTES_PER_DIALOGUE = 35


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


# The C source.  ``dialogue`` is written in ``_dialogue``'s operation
# order: the four compounds in ``ASSERTION_ORDER``, where only a strictly
# greater one replaces the best, so ties go first; ``min(1.0, max(0.0, t))``
# as two comparisons; and the update w + rate * (t - w).  ``play_dialogues``
# plays given dialogues through it.  ``play_run`` plays one run's timesteps
# from ``played`` through ``times[rows - 1]``, copying the weights into row k
# of ``snapshots`` at timestep ``times[k]``.  Each timestep it draws, through
# the generator's own functions: a Fisher-Yates shuffle of the pair ids by
# numpy's ``random_interval`` (masked rejection on ``next_uint32``; every id
# is below 2**31), as ``Generator.shuffle`` does; the unordered schedule's
# role coins; dimension one's uniforms, then dimension two's, by
# ``next_double``, as ``Generator.random`` does.  Then each dialogue decodes
# its pair as ``_pairs`` does, maps its uniforms onto the intervals as
# ``Environment.sample_runs`` does and computes its memberships as
# ``Label.membership_batch`` does for the labels ``_label_terms`` accepts.
# ``dims`` holds, per dimension, lo, hi - lo, and the label's prototype,
# scale and width.
_LOOP_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

static void dialogue(double *w, const double *rel, int32_t speaker, int32_t listener,
                     double a, double b, double rate, int model)
{
    double share = w[speaker];
    double first = a, second = b, best = share * a + (1.0 - share) * b, c;
    c = share * a + (1.0 - share) * (1.0 - b);
    if (c > best) { best = c; first = a; second = 1.0 - b; }
    c = share * (1.0 - a) + (1.0 - share) * b;
    if (c > best) { best = c; first = 1.0 - a; second = b; }
    c = share * (1.0 - a) + (1.0 - share) * (1.0 - b);
    if (c > best) { first = 1.0 - a; second = 1.0 - b; }
    double r = rel[speaker], wl = w[listener];
    double mu = wl * first + (1.0 - wl) * second, denom = first - second;
    if ((model == 1 ? mu <= r : mu != r) && denom != 0.0) {
        double t = (r - second) / denom;
        t = t > 0 ? t : 0;
        t = t < 1 ? t : 1;
        w[listener] = wl + rate * (t - wl);
    }
}

void play_dialogues(double *w, const double *rel, const double *m1, const double *m2,
                    const int32_t *speaker, const int32_t *listener, int64_t count,
                    double rate, int model)
{
    for (int64_t d = 0; d < count; d++)
        dialogue(w, rel, speaker[d], listener[d], m1[d], m2[d], rate, model);
}

typedef uint32_t (*next_uint32_fn)(void *);
typedef double (*next_double_fn)(void *);

static int32_t interval(void *state, next_uint32_fn next_uint32, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = next_uint32(state) & mask) > max)
        ;
    return (int32_t) value;
}

static double membership(double x, const double *label)
{
    double s = label[1] * fabs(x - label[0]) / label[2];
    s = 1.0 - s;
    s = s > 0 ? s : 0;
    return s < 1 ? s : 1;
}

void play_run(void *state, next_uint32_fn next_uint32, next_double_fn next_double,
              double *w, const double *rel, int32_t n, int unordered, const double *dims,
              double rate, int model, int32_t *picks, double *coins, double *u1, double *u2,
              int64_t played, const int64_t *times, int64_t rows, double *snapshots)
{
    int32_t count = unordered ? n * (n - 1) / 2 : n * (n - 1);
    for (int64_t k = 0; k < rows; k++) {
        for (; played < times[k]; played++) {
            for (int32_t d = 0; d < count; d++)
                picks[d] = d;
            for (int32_t i = count - 1; i > 0; i--) {
                int32_t j = interval(state, next_uint32, (uint32_t) i), q = picks[j];
                picks[j] = picks[i];
                picks[i] = q;
            }
            for (int32_t d = 0; unordered && d < count; d++)
                coins[d] = next_double(state);
            for (int32_t d = 0; d < count; d++)
                u1[d] = next_double(state);
            for (int32_t d = 0; d < count; d++)
                u2[d] = next_double(state);
            for (int32_t d = 0; d < count; d++) {
                int32_t q = picks[d], s, l;
                if (unordered) {
                    int32_t c = count - 1 - q;
                    int32_t r = (int32_t) ((sqrt(8.0 * c + 1.0) - 1.0) * 0.5);
                    int32_t i = n - 2 - r, j = n - 1 - (c - (r * (r + 1) >> 1));
                    int heads = coins[d] < 0.5;
                    s = heads ? i : j;
                    l = heads ? j : i;
                } else {
                    s = q / (n - 1);
                    l = q - s * (n - 1);
                    l += l >= s;
                }
                double x1 = u1[d] * dims[1] + dims[0], x2 = u2[d] * dims[6] + dims[5];
                dialogue(w, rel, s, l, membership(x1, dims + 2), membership(x2, dims + 7),
                         rate, model);
            }
        }
        memcpy(snapshots + k * n, w, n * sizeof(double));
    }
}
"""

# The one command that builds the loop; the source arrives on standard
# input.  No contraction into fused multiply-adds, which would round once
# where ``_dialogue`` rounds twice.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-x", "c", "-")

# Built loops are cached here, or in a private per-user directory when this
# is not a writable directory.
_CACHE = Path(__file__).resolve().parent / "__pycache__"


class EngineError(RuntimeError):
    """The compiled dialogue loop could not be built, loaded or trusted."""


def _cache_dir() -> Path:
    """The package cache when it is a writable directory, else this user's private one.

    The private one sits under the temporary directory, and is refused
    unless it is a directory of mode 0700 owned by this user.
    """
    with contextlib.suppress(OSError):
        _CACHE.mkdir(exist_ok=True)
    if _CACHE.is_dir() and os.access(_CACHE, os.W_OK | os.X_OK):
        return _CACHE
    path = Path(tempfile.gettempdir()) / f"labelgames-{os.getuid()}"
    with contextlib.suppress(FileExistsError):
        path.mkdir(mode=0o700)
    info = path.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o077:
        raise EngineError(f"{path} is not a directory private to this user")
    return path


def _build(path: Path) -> None:
    """Compile the loop into ``path`` through a temporary file, replaced into place whole."""
    import subprocess  # only a build needs it

    fd, temporary = tempfile.mkstemp(prefix=f"{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                (*_COMPILE, "-o", temporary), input=_LOOP_SOURCE, capture_output=True, text=True
            )
        except OSError as err:
            raise EngineError(f"the engine needs a C compiler; `{' '.join(_COMPILE)}` could not start: {err}") from err
        if done.returncode != 0:
            raise EngineError(f"`{' '.join(_COMPILE)}` failed to build the dialogue loop:\n{done.stderr}")
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


def _play(play, weights, rels, m1, m2, speakers, listeners, rate, model):
    """The weights after ``play`` runs the dialogues in order; the inputs are left as they are.

    Every array is checked for length, and the lane ids for range, before
    their pointers are passed.
    """
    w = np.array(weights, dtype=np.float64)
    rel = np.ascontiguousarray(rels, dtype=np.float64)
    columns = [np.ascontiguousarray(a, dtype=np.float64) for a in (m1, m2)]
    columns += [np.ascontiguousarray(a, dtype=np.int32) for a in (speakers, listeners)]
    count = columns[2].size
    if w.ndim != 1 or rel.shape != w.shape or any(c.shape != (count,) for c in columns):
        raise ValueError("one weight and reliability per lane, and one entry per dialogue, are needed")
    if count and any(ids.min() < 0 or ids.max() >= w.size for ids in columns[2:]):
        raise ValueError("lane ids must lie in [0, lanes)")
    play(w.ctypes.data, rel.ctypes.data, *(c.ctypes.data for c in columns), count, rate, model)
    return w


def _check(lib, path: Path) -> None:
    """Refuse the library in ``path`` if it differs from the Python reference by a bit.

    Its ``play_dialogues`` plays a fixed batch.  Each dialogue of the
    batch is its own run of two agents: every combination of a speaker
    weight at or next to 0, 1/2 or 1 (where compounds tie), two listener
    weights, memberships from 0 to 1 through exactly 1/2 and two
    reliabilities, under both models.  A loop built with contraction or
    extended precision, or one that breaks ties or clamps otherwise, gives
    other bits.  The batch is played through ``_dialogue`` itself, not
    ``_apply_sequential``, whose calls the benchmark's tracer counts as
    engine fallbacks.  Its ``play_run`` then plays ``_check_runs``.
    """
    edges = (0.0, 5e-324, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0)
    memberships = (0.0, 0.3, 0.5, 0.7, 1.0)
    cases = list(itertools.product(edges, (0.25, 1.0), memberships, memberships, (0.8, 1.0)))
    w_speaker, w_listener, m1, m2, rel = np.array(cases).T.copy()
    weights = np.column_stack((w_speaker, w_listener)).reshape(-1)
    speakers = np.arange(0, weights.size, 2, dtype=np.int32)
    rate = 0.3
    agree = True
    for model in (1, 2):
        want = weights.copy()
        for d, (ws, wl, a, b, r) in enumerate(cases):
            target = _dialogue(ws, wl, r, a, b, model)[1]
            if target is not None:
                want[2 * d + 1] = wl + rate * (target - wl)
        got = _play(
            lib.play_dialogues, weights, np.repeat(rel, 2), m1, m2, speakers, speakers + 1, rate, model
        )
        agree = agree and got.tobytes() == want.tobytes()
    if not (agree and _check_runs(lib.play_run)):
        raise EngineError(f"the dialogue loop in {path} disagrees with the reference; remove it to rebuild")


# The labels of ``_check_runs``: dimension one's has a prototype off the
# interval's edge, a metric scale and a threshold width other than 1.
_CHECK_LABELS = (
    Label((0.7,), WeightedCityBlock((1.5,)), UniformThreshold(width=0.8), ConceptualSpace(1)),
    canonical_label(),
)


def _check_runs(run) -> bool:
    """Whether ``run`` plays tiny whole runs exactly as a Python replay does.

    One run of 4 agents, 3 timesteps recorded at 0, 2 and 3, per model and
    schedule, each from its own seed.  The replay draws each timestep with
    ``Generator.permutation`` and ``Generator.random``, decodes pairs from
    ``itertools`` tables, computes memberships with ``membership_batch``
    and plays ``_dialogue``.  The snapshots, the last timestep's drawn
    picks, coins and uniforms, and the generator's next draw must all agree.
    """
    times = np.array([0, 2, 3])
    intervals = ((0.1, 0.9), (0.05, 0.6))
    cases = itertools.product(("ordered", "unordered"), (1, 2))
    for seed, (schedule, model) in enumerate(cases):
        config = GameConfig(
            n_agents=4, timesteps=3, rate=0.3, model=model, labels=_CHECK_LABELS,
            reliability=(1.0, 0.8, 0.5, 0.9), schedule=schedule,
        )
        player = _RunPlayer(run, config, intervals, times.size)
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        weights, rels = _initial_state(config, rng)
        snapshots = player(rng, weights, rels, 0, times)
        rows, draws = _replay_run(config, intervals, replay, times)
        got = (player.picks, player.coins, *player.uniforms)
        if snapshots.tobytes() != np.array(rows).tobytes() or rng.random() != replay.random():
            return False
        if any(a.tolist() != b.tolist() for a, b in zip(got, draws)):
            return False
    return True


def _replay_run(config: GameConfig, intervals, rng, times):
    """``_check_runs``' reference: the recorded weights and the last timestep's draws."""
    n, model, rate = config.n_agents, config.model, config.rate
    unordered = config.schedule == "unordered"
    pairs = list((itertools.combinations if unordered else itertools.permutations)(range(n), 2))
    w, rel = rng.random(n).tolist(), list(config.reliability)
    rows, draws = [], None
    for t in range(times[-1] + 1):
        if t:
            picks = rng.permutation(len(pairs))
            coins = rng.random(len(pairs) if unordered else 0)
            uniforms = [rng.random(len(pairs)) for _ in intervals]
            m1, m2 = (
                label.membership_batch(u * (hi - lo) + lo).tolist()
                for label, u, (lo, hi) in zip(config.labels, uniforms, intervals)
            )
            for d, k in enumerate(picks.tolist()):
                s, l = pairs[k] if not unordered or coins[d] < 0.5 else pairs[k][::-1]
                target = _dialogue(w[s], w[l], rel[s], m1[d], m2[d], model)[1]
                if target is not None:
                    w[l] = w[l] + rate * (target - w[l])
            draws = (picks, coins, *uniforms)
        if t in times:
            rows.append(list(w))
    return rows, draws


class _RunPlayer:
    """``play_run`` bound to one game and environment, with the buffers each run reuses.

    A run's timestep holds its picks (4 bytes per dialogue), the unordered
    schedule's coins (8) and both dimensions' uniforms (16), and up to
    ``rows`` snapshots of the weights.
    """

    def __init__(self, run, config: GameConfig, intervals, rows: int):
        n, unordered = config.n_agents, config.schedule == "unordered"
        count = dialogues_per_timestep(n, config.schedule)
        self.picks = np.empty(count, dtype=np.int32)
        self.coins = np.empty(count if unordered else 0)
        self.uniforms = np.empty((2, count))
        self.snapshots = np.empty((rows, n))
        self.dims = np.array(
            [(lo, hi - lo, *_label_terms(label)) for label, (lo, hi) in zip(config.labels, intervals)]
        )
        self.run = run
        self.fixed = (n, int(unordered), self.dims.ctypes.data, config.rate, config.model)
        self.buffers = tuple(a.ctypes.data for a in (self.picks, self.coins, *self.uniforms))

    def __call__(self, rng, weights, rels, played: int, times):
        """Play ``rng``'s run from timestep ``played`` through ``times[-1]``, in place on ``weights``.

        Returns the weights at each of ``times``, one row each, as a view of
        the snapshot buffer that the next call overwrites.  The generator's
        lock is held while C draws from it.
        """
        n = self.fixed[0]
        times = np.ascontiguousarray(times, dtype=np.int64)
        if not (weights.dtype == rels.dtype == np.float64 and weights.shape == rels.shape == (n,)
                and weights.flags.c_contiguous and weights.flags.writeable and rels.flags.c_contiguous):
            raise ValueError(f"one float64 weight and reliability per agent, {n} each, are needed")
        if times.ndim != 1 or times.size > len(self.snapshots):
            raise ValueError(f"at most {len(self.snapshots)} recorded times per call")
        face = rng.bit_generator.ctypes
        functions = (ctypes.cast(f, ctypes.c_void_p).value for f in (face.next_uint32, face.next_double))
        with rng.bit_generator.lock:
            self.run(
                face.state_address, *functions, weights.ctypes.data, rels.ctypes.data, *self.fixed,
                *self.buffers, played, times.ctypes.data, times.size, self.snapshots.ctypes.data,
            )
        return self.snapshots[: times.size]


@functools.cache
def _loop():
    """The compiled engine library, built on first use and checked once per process.

    The library is cached under a name keyed by the hash of the source and
    the compile command, so an edit to either builds a new one; raises
    ``EngineError`` when it cannot be built or loaded, or fails ``_check``.
    """
    key = hashlib.sha256("\0".join((_LOOP_SOURCE, *_COMPILE)).encode()).hexdigest()[:24]
    path = _cache_dir() / f"dialogues-{key}.so"
    if not path.is_file():
        _build(path)
    try:
        lib = ctypes.CDLL(str(path))
        play, run = lib.play_dialogues, lib.play_run
    except (OSError, AttributeError) as err:
        raise EngineError(f"cannot load the dialogue loop from {path}: {err}") from err
    play.argtypes = (ctypes.c_void_p,) * 6 + (ctypes.c_int64, ctypes.c_double, ctypes.c_int)
    run.argtypes = (
        (ctypes.c_void_p,) * 5 + (ctypes.c_int32, ctypes.c_int, ctypes.c_void_p, ctypes.c_double, ctypes.c_int)
        + (ctypes.c_void_p,) * 4 + (ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    )
    play.restype = run.restype = None
    _check(lib, path)
    return lib


def _stacked_timestep(weights, rels, m1, m2, speakers, listeners, rate, model, runs):
    """Advance every run one timestep on stacked per-run state; only tests call it.

    Agent i of run r occupies lane r*n + i, speakers and listeners carry
    lane ids, and run r's dialogues fill the r-th block of the arrays.  So
    the compiled ``play_dialogues``, playing the whole stack in dialogue
    order with ``_dialogue``'s arithmetic, leaves each run bit-identical
    to replaying its block through ``_apply_sequential``.  The engine
    plays whole runs through ``_RunPlayer`` instead; this per-timestep path
    stays until the tests no longer compare through it.
    ``bench/tracing.py`` still resolves this function's name and its
    ``runs`` and ``speakers`` parameters.
    """
    return _play(_loop().play_dialogues, weights, rels, m1, m2, speakers, listeners, rate, model)
