"""The compiled engine: ``_engine.c`` built, checked and called through ctypes.

The C file holds all that runs in C: ``play_run`` plays one run's
timesteps in one call, stepping the run's own numpy ``PCG64`` as numpy
would; ``play_dialogues`` plays given dialogues, for the tests'
per-timestep path; ``draw_uniforms`` draws the Monte Carlo estimators'
uniforms as ``Generator.random`` would, and ``mc_targets``,
``mc_select`` and ``mc_upward`` do their per-observation work.  Its
comments say what each computes, and in which order.

``_loop`` compiles the file on first use, caches the library under a hash
of the source and the compile command, and checks it before each process
first uses it against the Python reference (``_check``).  Building needs
a C compiler with ``unsigned __int128``; where the build, the load or the
check fails, ``EngineError`` says so.

Each exported function's types are declared once, in ``_SIGNATURES``, so
that ctypes refuses, before C runs, an array of another dtype, a
non-contiguous one, or a read-only one where C writes; each wrapper
checks only shapes, lengths and lane ids.  ``_stepped`` hands C a
generator's state and writes back what C leaves, and ``_generator``
refuses, as ``rng``, anything but a numpy ``Generator`` over ``PCG64``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import os
import stat
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .game import (
    ConfigError,
    GameConfig,
    _dialogue,
    _initial_state,
    _label_terms,
    batch_implied_weights,
    dialogues_per_timestep,
    update_directions,
)
from .labels import ConceptualSpace, Label, UniformThreshold, WeightedCityBlock, canonical_label, canonical_label_pair

_SOURCE = resources.files(__package__).joinpath("_engine.c").read_text()

# The one command that builds the library; the source arrives on standard
# input.  No contraction into fused multiply-adds, which would round once
# where ``_dialogue`` rounds twice.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-x", "c", "-")

# Built libraries are cached here, or in a private per-user directory when
# this is not a writable directory.
_CACHE = Path(__file__).resolve().parent / "__pycache__"


def _array(dtype, *flags: str):
    """The argument type of a C-contiguous array of ``dtype`` with ``flags``."""
    return np.ctypeslib.ndpointer(dtype, flags=("C_CONTIGUOUS", *flags))


_IN, _OUT = _array(np.float64), _array(np.float64, "WRITEABLE")
_IDS, _WORDS = _array(np.int32), _array(np.uint64, "WRITEABLE")
_COUNT, _REAL, _INT = ctypes.c_int64, ctypes.c_double, ctypes.c_int

# Each exported function's result and argument types, in its prototype's
# order; an array is writable exactly where the prototype is not const.
_SIGNATURES = {
    "play_dialogues": (None, (_OUT, _IN, _IN, _IN, _IDS, _IDS, _COUNT, _REAL, _INT)),
    "play_run": (None, (
        _WORDS, _OUT, _IN, ctypes.c_int32, _INT, _IN, _REAL, _INT,
        _array(np.int32, "WRITEABLE"), _COUNT, _array(np.int64), _COUNT, _OUT,
    )),
    "draw_uniforms": (None, (_WORDS, _COUNT, _OUT, _OUT)),
    "mc_targets": (_COUNT, (_COUNT, _IN, _REAL, _OUT, _OUT, _OUT)),
    "mc_select": (_COUNT, (_COUNT, _REAL, _REAL, _IN, _IN, _IN, _OUT)),
    "mc_upward": (_COUNT, (_COUNT, _IN, _IN, _IN)),
}

# Bytes one run's timestep holds per dialogue at its peak: the picks; the
# coins and uniforms are drawn as each dialogue plays.  Measured peaks
# (ru_maxrss of two-timestep runs, above the RSS after imports): 3.94 bytes
# for 1000 agents, from uniform weights or with every weight at 1, under
# either schedule, and 4.02 for 1400 agents under the unordered one.  The
# constant is the largest of these plus about a quarter.
_STACK_BYTES_PER_DIALOGUE = 5


class EngineError(RuntimeError):
    """The compiled engine could not be built, loaded or trusted."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


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
    """Compile the library into ``path`` through a temporary file, replaced into place whole."""
    import subprocess  # only a build needs it

    fd, temporary = tempfile.mkstemp(prefix=f"{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                (*_COMPILE, "-o", temporary), input=_SOURCE, capture_output=True, text=True
            )
        except OSError as err:
            raise EngineError(f"the engine needs a C compiler; `{' '.join(_COMPILE)}` could not start: {err}") from err
        if done.returncode != 0:
            raise EngineError(f"`{' '.join(_COMPILE)}` failed to build the dialogue loop:\n{done.stderr}")
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


def _play(play, w, rels, m1, m2, speakers, listeners, rate, model) -> None:
    """``play`` runs the dialogues in order, in place on the weights ``w``.

    Every array is checked for length, and the lane ids for range, before
    C runs.
    """
    count = speakers.size
    if w.ndim != 1 or rels.shape != w.shape or any(a.shape != (count,) for a in (m1, m2, speakers, listeners)):
        raise ValueError("one weight and reliability per lane, and one entry per dialogue, are needed")
    if count and any(ids.min() < 0 or ids.max() >= w.size for ids in (speakers, listeners)):
        raise ValueError("lane ids must lie in [0, lanes)")
    play(w, rels, m1, m2, speakers, listeners, count, rate, model)


def _mc_targets(lib, dims, reliability: float, a, b, t) -> int:
    """``lib``'s ``mc_targets`` on the uniforms ``a`` and ``b``: the usable count.

    The usable observations' signed memberships overwrite the front of
    ``a`` and ``b``, and their targets that of ``t``, in draw order.
    """
    if not (a.shape == b.shape == (a.size,) and t.size >= a.size and dims.shape == (2, 5)):
        raise ValueError("two uniforms per observation, a target slot each and 2 x 5 dims are needed")
    return lib.mc_targets(a.size, dims, reliability, a, b, t)


def _mc_select(lib, resting: float, reliability: float, a, b, t, out) -> int:
    """``lib``'s ``mc_select``: copies into ``out`` the targets ``t`` at which a weight of ``resting`` updates."""
    if not (a.shape == b.shape == t.shape == (a.size,) and out.size >= a.size):
        raise ValueError("two memberships and a target per observation, and a slot each, are needed")
    return lib.mc_select(a.size, resting, reliability, a, b, t, out)


def _mc_upward(lib, dims, a, b) -> int:
    """``lib``'s ``mc_upward``: how many observations drawn as the uniforms ``a`` and ``b`` pull upward."""
    if not (a.shape == b.shape == (a.size,) and dims.shape == (2, 5)):
        raise ValueError("two uniforms per observation and 2 x 5 dims are needed")
    return lib.mc_upward(a.size, dims, a, b)


def _check(lib, path: Path) -> None:
    """Refuse the library in ``path`` if it differs from the Python reference by a bit.

    Its ``play_dialogues`` plays a fixed batch.  Each dialogue of the
    batch is its own run of two agents: every combination of a speaker
    weight at or next to 0, 1/2 or 1 (where compounds tie), two listener
    weights, memberships from 0 to 1 through exactly 1/2 and two
    reliabilities, under both models.  A loop built with contraction or
    extended precision, or one that breaks ties or clamps otherwise, gives
    other bits.  The batch is played through ``_dialogue`` itself, not
    ``game._apply_sequential``, whose calls the benchmark's tracer counts
    as engine fallbacks.  Its ``play_run`` then plays ``_check_runs``, its
    ``draw_uniforms`` ``_check_draws``, and its Monte Carlo loops
    ``_check_estimators``.
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
        want, got = weights.copy(), weights.copy()
        for d, (ws, wl, a, b, r) in enumerate(cases):
            target = _dialogue(ws, wl, r, a, b, model)[1]
            if target is not None:
                want[2 * d + 1] = wl + rate * (target - wl)
        _play(lib.play_dialogues, got, np.repeat(rel, 2), m1, m2, speakers, speakers + 1, rate, model)
        agree = agree and got.tobytes() == want.tobytes()
    if not (agree and _check_runs(lib.play_run) and _check_draws(lib) and _check_estimators(lib)):
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
    schedule, each from its own seed, played in two calls, through 2 and
    then through 3, so that the generator's state is handed back between
    them.  The replay draws each timestep with ``Generator.permutation``
    and ``Generator.random``, decodes pairs from ``itertools`` tables,
    computes memberships with ``membership_batch`` and plays
    ``_dialogue``.  The snapshots, the last timestep's picks and the
    generator's whole state afterwards must all agree.
    """
    intervals = ((0.1, 0.9), (0.05, 0.6))
    cases = itertools.product(("ordered", "unordered"), (1, 2))
    for seed, (schedule, model) in enumerate(cases):
        config = GameConfig(
            n_agents=4, timesteps=3, rate=0.3, model=model, labels=_CHECK_LABELS,
            reliability=(1.0, 0.8, 0.5, 0.9), schedule=schedule,
        )
        player = _RunPlayer(run, config, intervals, 2)
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        weights, rels = _initial_state(config, rng)
        snapshots = player(rng, weights, rels, 0, [0, 2]).tolist()
        snapshots += player(rng, weights, rels, 2, [3]).tolist()
        rows, picks = _replay_run(config, intervals, replay, (0, 2, 3))
        if snapshots != rows or player.picks.tolist() != picks:
            return False
        if rng.bit_generator.state != replay.bit_generator.state:
            return False
    return True


def _check_draws(lib) -> bool:
    """Whether ``lib``'s ``draw_uniforms`` draws as ``Generator.random`` does.

    From a generator holding a spare half-word, 1 and then 7 uniforms
    into each of two buffers; the uniforms and the generator's whole state
    afterwards must equal those of a twin that calls ``random`` twice per
    count.
    """
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    for generator in (rng, replay):
        generator.integers(10, dtype=np.uint32)  # leaves a half-word pending
    for count in (1, 7):
        a, b = np.empty((2, count))
        _draw_uniforms(lib, rng, a, b)
        if a.tobytes() + b.tobytes() != replay.random(count).tobytes() + replay.random(count).tobytes():
            return False
    return rng.bit_generator.state == replay.bit_generator.state


def _check_estimators(lib) -> bool:
    """Whether ``lib``'s Monte Carlo loops give the numpy reference's bytes on a fixed grid.

    Every pair of eight uniforms, through 0, 1/2 and next to 1, in two
    boxes: the unit square under ``_CHECK_LABELS`` at reliability 0.7,
    where each uniform is its observation, and a box off the square's
    edges under the canonical labels at reliability 1.  The grid holds
    memberships that tie, targets of -0.0 and clips at both ends, and
    observations on the quadrant lines and the diagonals.  The targets and
    signed memberships must equal ``batch_implied_weights``' usable ones,
    the selection those of a listener at weight 0 in the square, some of
    whose compounds fit exactly as well as the reliability, and at weight
    0.3 in the other box, and the upward count that of
    ``update_directions``.
    """
    grid = np.array([0.0, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0 - 2.0**-53])
    uniforms = np.array(np.meshgrid(grid, grid)).reshape(2, -1)
    boxes = (
        (_CHECK_LABELS, ((0.0, 1.0), (0.0, 1.0)), 0.7, 0.0),
        (canonical_label_pair(), ((0.1, 0.9), (0.05, 0.6)), 1.0, 0.3),
    )
    for labels, intervals, rel, resting in boxes:
        dims = _dims(labels, intervals)
        xs = (uniforms * dims[:, 1:2] + dims[:, :1]).T
        targets, usable, m1, m2 = batch_implied_weights(labels, xs, rel)
        updating = usable & (resting * m1 + (1.0 - resting) * m2 <= rel)
        a, b = uniforms.copy()
        t, out = np.empty((2, a.size))
        if _mc_upward(lib, dims, a, b) != np.count_nonzero(update_directions(xs) > 0):
            return False
        kept = _mc_targets(lib, dims, rel, a, b, t)
        count = _mc_select(lib, resting, rel, a[:kept], b[:kept], t[:kept], out)
        got = (t[:kept], a[:kept], b[:kept], out[:count])
        want = (targets[usable], m1[usable], m2[usable], targets[updating])
        if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
            return False
    return True


def _replay_run(config: GameConfig, intervals, rng, times):
    """``_check_runs``' reference: the recorded weights and the last timestep's picks."""
    n, model, rate = config.n_agents, config.model, config.rate
    unordered = config.schedule == "unordered"
    pairs = list((itertools.combinations if unordered else itertools.permutations)(range(n), 2))
    w, rel = rng.random(n).tolist(), list(config.reliability)
    rows, picks = [], None
    for t in range(times[-1] + 1):
        if t:
            picks = rng.permutation(len(pairs)).tolist()
            coins = rng.random(len(pairs) if unordered else 0)
            m1, m2 = (
                label.membership_batch(rng.random(len(pairs)) * (hi - lo) + lo).tolist()
                for label, (lo, hi) in zip(config.labels, intervals)
            )
            for d, k in enumerate(picks):
                s, l = pairs[k] if not unordered or coins[d] < 0.5 else pairs[k][::-1]
                target = _dialogue(w[s], w[l], rel[s], m1[d], m2[d], model)[1]
                if target is not None:
                    w[l] = w[l] + rate * (target - w[l])
        if t in times:
            rows.append(list(w))
    return rows, picks


def _generator(rng) -> np.random.Generator:
    """``rng`` when it is a numpy ``Generator`` over ``PCG64``, the one bit generator C steps."""
    if isinstance(rng, np.random.Generator) and type(rng.bit_generator) is np.random.PCG64:
        return rng
    raise ConfigError(f"rng must be a numpy Generator over PCG64, got {rng!r}", "rng")


@contextlib.contextmanager
def _stepped(rng):
    """Six words holding ``rng``'s state, for C to step; written back on exit.

    The six 64-bit words are the state's and the increment's high and low
    halves, ``has_uint32`` and ``uinteger``; the state and the half-word
    that C leaves in them are written back, unless the body raises.
    ``rng`` is refused by ``_generator`` before its state is read, and its
    lock is held from reading the state until C's is written back.
    """
    bits = _generator(rng).bit_generator
    with bits.lock:
        state = bits.state
        pcg = state["state"]
        words = np.array(
            (*divmod(pcg["state"], 2**64), *divmod(pcg["inc"], 2**64), state["has_uint32"], state["uinteger"]),
            dtype=np.uint64,
        )
        yield words
        high, low, _, _, state["has_uint32"], state["uinteger"] = words.tolist()
        pcg["state"] = high << 64 | low
        bits.state = state


def _draw_uniforms(lib, rng, a, b) -> None:
    """Fill ``a``, then ``b``, with ``rng``'s next uniforms, as ``rng.random(out=)`` would, in C."""
    if not a.shape == b.shape == (a.size,):
        raise ValueError("two buffers of one uniform per observation are needed")
    with _stepped(rng) as generator:
        lib.draw_uniforms(generator, a.size, a, b)


def _dims(labels, intervals) -> np.ndarray:
    """The C loops' ``dims``: per dimension lo, hi - lo and ``_label_terms``' three."""
    return np.array([(lo, hi - lo, *_label_terms(label)) for label, (lo, hi) in zip(labels, intervals)])


class _RunPlayer:
    """``play_run`` bound to one game and environment, with the buffers each run reuses.

    A run's timestep holds its picks, 4 bytes per dialogue, and up to
    ``rows`` snapshots of the weights; the coins and uniforms are drawn
    as each dialogue plays.  The run's generator must be a ``PCG64``,
    whose state C reads and advances through ``_stepped``.
    """

    def __init__(self, run, config: GameConfig, intervals, rows: int):
        n, unordered = config.n_agents, config.schedule == "unordered"
        self.picks = np.empty(dialogues_per_timestep(n, config.schedule), dtype=np.int32)
        self.snapshots = np.empty((rows, n))
        self.run = run
        self.fixed = (n, int(unordered), _dims(config.labels, intervals), config.rate, config.model, self.picks)

    def __call__(self, rng, weights, rels, played: int, times):
        """Play ``rng``'s run from timestep ``played`` through ``times[-1]``, in place on ``weights``.

        Returns the weights at each of ``times``, one row each, as a view of
        the snapshot buffer that the next call overwrites.
        """
        n = self.fixed[0]
        times = np.ascontiguousarray(times, dtype=np.int64)
        if not weights.shape == rels.shape == (n,):
            raise ValueError(f"one weight and reliability per agent, {n} each, are needed")
        if times.ndim != 1 or times.size > len(self.snapshots):
            raise ValueError(f"at most {len(self.snapshots)} recorded times per call")
        with _stepped(rng) as generator:
            self.run(generator, weights, rels, *self.fixed, played, times, times.size, self.snapshots)
        return self.snapshots[: times.size]


@functools.cache
def _loop():
    """The compiled engine library, built on first use and checked once per process.

    The library is cached under a name keyed by the hash of the source and
    the compile command, so an edit to either builds a new one; raises
    ``EngineError`` when it cannot be built or loaded, or fails ``_check``.
    """
    key = hashlib.sha256("\0".join((_SOURCE, *_COMPILE)).encode()).hexdigest()[:24]
    path = _cache_dir() / f"dialogues-{key}.so"
    if not path.is_file():
        _build(path)
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, AttributeError) as err:
        raise EngineError(f"cannot load the dialogue loop from {path}: {err}") from err
    _check(lib, path)
    return lib


def _stacked_timestep(weights, rels, m1, m2, speakers, listeners, rate, model, runs):
    """The weights after every run's timestep on stacked per-run state; only tests call it.

    Agent i of run r occupies lane r*n + i, speakers and listeners carry
    lane ids, and run r's dialogues fill the r-th block of the arrays, so
    ``play_dialogues`` leaves each run bit-identical to replaying its block
    through ``game._apply_sequential``.  The engine plays whole runs
    through ``_RunPlayer`` instead.  ``bench/tracing.py`` still resolves
    this function through ``experiment``, with its ``runs`` and
    ``speakers`` parameters.
    """
    w = weights.copy()
    _play(_loop().play_dialogues, w, rels, m1, m2, speakers, listeners, rate, model)
    return w
