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
and its helpers, and mirrored in C by the kernel; ``choose_assertion``,
``implied_weight`` and ``run_dialogue`` wrap them for single agents and
take floats.  ``_apply_sequential`` is the
reference: it plays the dialogues one at a time through ``_dialogue`` on a
float array of weights, given each dialogue's memberships.
``_draw_schedule`` shuffles and decodes one timestep's pairs for any number
of runs in one pass, each from its own generator.  ``_stacked_timestep`` is
the one kernel: given the dialogues' memberships, it advances those runs
at once, stacked lane by lane, through a dialogue loop written in C in
``_dialogue``'s operation order, so it is bit-identical to the reference
by construction.  The loop is compiled by a C compiler on first use,
cached under a hash of its source and compile command, and checked
against ``_dialogue`` on a fixed batch before each process first uses it.
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

# Bytes one stacked timestep holds per dialogue at its peak: the drawn
# schedule, the observations and the memberships.  Measured peaks
# (ru_maxrss of two-timestep runs, above the RSS after imports): 55 bytes
# for 1000 agents, from uniform weights or with every weight at 1, and 69
# for 2000 unordered runs of 20 agents, whose draw also holds the role
# coins.  The constant is the largest of these plus about a quarter.
_STACK_BYTES_PER_DIALOGUE = 88


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


# The dialogue loop, written in ``_dialogue``'s operation order: the four
# compounds in ``ASSERTION_ORDER``, where only a strictly greater one
# replaces the best, so ties go first; ``min(1.0, max(0.0, t))`` as two
# comparisons; and the update w + rate * (t - w).
_LOOP_SOURCE = r"""
#include <stdint.h>

void play_dialogues(double *w, const double *rel, const double *m1, const double *m2,
                    const int32_t *speaker, const int32_t *listener, int64_t count,
                    double rate, int model)
{
    for (int64_t d = 0; d < count; d++) {
        double share = w[speaker[d]], a = m1[d], b = m2[d];
        double first = a, second = b, best = share * a + (1.0 - share) * b, c;
        c = share * a + (1.0 - share) * (1.0 - b);
        if (c > best) { best = c; first = a; second = 1.0 - b; }
        c = share * (1.0 - a) + (1.0 - share) * b;
        if (c > best) { best = c; first = 1.0 - a; second = b; }
        c = share * (1.0 - a) + (1.0 - share) * (1.0 - b);
        if (c > best) { first = 1.0 - a; second = 1.0 - b; }
        double r = rel[speaker[d]], wl = w[listener[d]];
        double mu = wl * first + (1.0 - wl) * second, denom = first - second;
        if ((model == 1 ? mu <= r : mu != r) && denom != 0.0) {
            double t = (r - second) / denom;
            t = t > 0 ? t : 0;
            t = t < 1 ? t : 1;
            w[listener[d]] = wl + rate * (t - wl);
        }
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


def _check(play, path: Path) -> None:
    """Refuse the loop in ``path`` if it differs from ``_dialogue`` by a bit on a fixed batch.

    Each dialogue of the batch is its own run of two agents: every
    combination of a speaker weight at or next to 0, 1/2 or 1 (where
    compounds tie), two listener weights, memberships from 0 to 1 through
    exactly 1/2 and two reliabilities, under both models.  A loop built
    with contraction or extended precision, or one that breaks ties or
    clamps otherwise, gives other bits.  The batch is played through
    ``_dialogue`` itself, not ``_apply_sequential``, whose calls the
    benchmark's tracer counts as engine fallbacks.
    """
    edges = (0.0, 5e-324, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0)
    memberships = (0.0, 0.3, 0.5, 0.7, 1.0)
    cases = list(itertools.product(edges, (0.25, 1.0), memberships, memberships, (0.8, 1.0)))
    w_speaker, w_listener, m1, m2, rel = np.array(cases).T.copy()
    weights = np.column_stack((w_speaker, w_listener)).reshape(-1)
    speakers = np.arange(0, weights.size, 2, dtype=np.int32)
    rate = 0.3
    for model in (1, 2):
        want = weights.copy()
        for d, (ws, wl, a, b, r) in enumerate(cases):
            target = _dialogue(ws, wl, r, a, b, model)[1]
            if target is not None:
                want[2 * d + 1] = wl + rate * (target - wl)
        got = _play(play, weights, np.repeat(rel, 2), m1, m2, speakers, speakers + 1, rate, model)
        if got.tobytes() != want.tobytes():
            raise EngineError(f"the dialogue loop in {path} disagrees with the reference; remove it to rebuild")


@functools.cache
def _loop():
    """The compiled dialogue loop, built on first use and checked once per process.

    The library is cached under a name keyed by the hash of the source and
    the compile command, so an edit to either builds a new one; raises
    ``EngineError`` when it cannot be built or loaded, or fails ``_check``.
    """
    key = hashlib.sha256("\0".join((_LOOP_SOURCE, *_COMPILE)).encode()).hexdigest()[:24]
    path = _cache_dir() / f"dialogues-{key}.so"
    if not path.is_file():
        _build(path)
    try:
        play = ctypes.CDLL(str(path)).play_dialogues
    except (OSError, AttributeError) as err:
        raise EngineError(f"cannot load the dialogue loop from {path}: {err}") from err
    play.argtypes = (ctypes.c_void_p,) * 6 + (ctypes.c_int64, ctypes.c_double, ctypes.c_int)
    play.restype = None
    _check(play, path)
    return play


def _stacked_timestep(weights, rels, m1, m2, speakers, listeners, rate, model, runs):
    """Advance every run one timestep on stacked per-run state.

    Agent i of run r occupies lane r*n + i, speakers and listeners carry
    lane ids, and run r's dialogues fill the r-th block of the arrays.  So
    the compiled loop, playing the whole stack in dialogue order with
    ``_dialogue``'s arithmetic, leaves each run bit-identical to replaying
    its block through ``_apply_sequential``.  ``bench/tracing.py`` reads
    this function's name and its ``runs`` and ``speakers`` parameters: they
    are a benchmark interface, and the loop itself needs no ``runs``.
    """
    return _play(_loop(), weights, rels, m1, m2, speakers, listeners, rate, model)
