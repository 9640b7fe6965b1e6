"""The engine's C boundary: its refusals, its limits, its undefined behaviour and its build.

Every wrapper around a library function refuses, before C runs, arrays
of another dtype, non-contiguous views, read-only outputs and lengths
that disagree, leaving its buffers and its generator as they were;
every export has one signature, and calls leave no reference cycles.  A
driver that includes ``_engine.c`` checks the static functions at their
limits against Python integers and numpy's ``PCG64``, and the whole
library is run once built with UBSan and once with ASan.  Builds at
other optimisation levels give the same bits, and a build that fuses
multiply-adds is refused.
"""

import ctypes
import gc
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelgames import engine
from labelgames.analysis import Environment, estimate_target_moments, positive_update_probability_mc
from labelgames.experiment import ExperimentConfig, run_experiment
from labelgames.game import ConfigError, GameConfig
from labelgames.labels import canonical_label_pair

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))
PACKAGE = Path(engine.__file__).parent
LIMITS = Path(__file__).with_name("engine_limits.c")
# The driver's build: the library's flags, minus those of a shared object.
COMPILE_LIMITS = ("cc", "-O2", "-ffp-contract=off", "-I", str(PACKAGE), str(LIMITS))
MASK64 = 2**64 - 1
# The largest population: n(n - 1) dialogues per timestep below 2**31.
N_MAX = 46_341


def spoiled(spoil: str, array: np.ndarray) -> np.ndarray:
    """``array`` as float32, as a non-contiguous view, read-only, or one entry short."""
    if spoil == "float32":
        return array.astype(np.float32)
    if spoil == "strided":
        return np.repeat(array, 2)[::2]
    if spoil == "read-only":
        array = array.copy()
        array.flags.writeable = False
        return array
    return array[:-1]


def wrapper_call(name: str, rng):
    """(call, its arrays by name, the argument each spoil applies to) for one wrapper."""
    lib = engine._loop()
    dims = engine._dims(canonical_label_pair(), UNIT_BOX)
    u = np.random.default_rng(3).random((4, 6))
    if name == "play":
        arrays = dict(
            w=u[0].copy(), rels=u[1].copy(), m1=u[2].copy(), m2=u[3].copy(),
            speakers=np.array([0, 1, 2, 3, 4, 5], dtype=np.int32),
            listeners=np.array([1, 2, 3, 4, 5, 0], dtype=np.int32),
        )
        call = lambda a: engine._play(lib.play_dialogues, *a.values(), 0.3, 1)
        spoils = {"float32": "m1", "strided": "rels", "read-only": "w", "short": "listeners"}
    elif name == "mc_targets":
        arrays = dict(a=u[0].copy(), b=u[1].copy(), t=u[2].copy())
        call = lambda a: engine._mc_targets(lib, None, 6, dims, 0.7, *a.values())
        spoils = {"float32": "a", "strided": "b", "read-only": "t", "short": "b"}
    elif name == "mc_select":
        arrays = dict(a=u[0].copy(), b=u[1].copy(), t=u[2].copy(), out=u[3].copy())
        call = lambda a: engine._mc_select(lib, 0.3, 0.7, *a.values())
        spoils = {"float32": "a", "strided": "t", "read-only": "out", "short": "b"}
    elif name == "mc_upward":
        # mc_upward writes nothing, so it has no output to spoil.
        arrays = dict(a=u[0].copy(), b=u[1].copy())
        call = lambda a: engine._mc_upward(lib, None, 6, dims, *a.values())
        spoils = {"float32": "a", "strided": "b", "short": "b"}
    elif name == "drawn_targets":
        # Drawing, mc_targets writes the memberships and targets of draws.
        arrays = dict(a=u[0].copy(), b=u[1].copy(), t=u[2].copy())
        call = lambda a: engine._mc_targets(lib, rng, 6, dims, 0.7, *a.values())
        spoils = {"float32": "a", "strided": "b", "read-only": "a", "short": "t"}
    else:
        config = GameConfig(n_agents=6, timesteps=2)
        player = engine._RunPlayer(lib.play_run, config, UNIT_BOX, 2)
        arrays = dict(weights=u[0].copy(), rels=u[1].copy())
        call = lambda a: player(rng, *a.values(), 0, [1, 2])
        spoils = {"float32": "rels", "strided": "rels", "read-only": "weights", "short": "rels"}
    return call, arrays, spoils


WRAPPERS = ("play", "mc_targets", "mc_select", "mc_upward", "drawn_targets", "run_player")
CASES = [
    (name, spoil)
    for name in WRAPPERS
    for spoil in ("float32", "strided", "read-only", "short")
    if not (name == "mc_upward" and spoil == "read-only")
] + [("play", "lane")]


@pytest.mark.parametrize("name,spoil", CASES)
def test_a_wrapper_refuses_before_c_runs(name, spoil):
    rng = np.random.default_rng(8)
    rng.integers(10, dtype=np.uint32)  # a spare half-word is part of the state too
    before = rng.bit_generator.state
    call, arrays, spoils = wrapper_call(name, rng)
    if spoil == "lane":
        arrays["speakers"][3] = arrays["w"].size
    else:
        arrays[spoils[spoil]] = spoiled(spoil, arrays[spoils[spoil]])
    kept = {key: array.copy() for key, array in arrays.items()}
    with pytest.raises((ValueError, ctypes.ArgumentError)):
        call(arrays)
    for key, array in arrays.items():
        assert array.tobytes() == kept[key].tobytes(), key
    assert rng.bit_generator.state == before


def test_the_loops_refuse_to_run_with_neither_a_generator_nor_uniforms():
    lib = engine._loop()
    dims = engine._dims(canonical_label_pair(), UNIT_BOX)
    with pytest.raises(ValueError):
        engine._mc_upward(lib, None, 6, dims)
    with pytest.raises(ValueError):
        engine._mc_targets(lib, None, 6, dims, 0.7, None, None, np.empty(6))


def test_read_only_inputs_are_taken_where_the_prototype_is_const():
    lib = engine._loop()
    dims = engine._dims(canonical_label_pair(), UNIT_BOX)
    a, b, t = np.random.default_rng(4).random((3, 6))
    for array in (dims, a, b, t):
        array.flags.writeable = False
    assert engine._mc_upward(lib, None, 6, dims, a, b) == engine._mc_upward(lib, None, 6, dims, a.copy(), b.copy())
    out, twin = np.zeros((2, 6))
    count = engine._mc_select(lib, 0.3, 0.7, a, b, t, out)
    assert count == engine._mc_select(lib, 0.3, 0.7, a.copy(), b.copy(), t.copy(), twin)
    assert out.tobytes() == twin.tobytes()


def test_every_export_has_a_signature_and_every_signature_an_export():
    done = subprocess.run(("nm", "-D", "--defined-only", engine._loop()._name), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    exported = {name for _, kind, name in map(str.split, done.stdout.splitlines()) if kind == "T"}
    assert exported == set(engine._SIGNATURES)


def test_calls_into_c_leave_no_cycles_for_the_collector():
    # Each array crosses as its bare address, so 500 runs' calls leave the
    # cyclic collector nothing to find.
    config = ExperimentConfig(game=GameConfig(n_agents=2, timesteps=1), runs=500)
    run_experiment(config)
    gc.collect()
    gc.disable()
    try:
        run_experiment(config)
        assert gc.collect() == 0
    finally:
        gc.enable()


def documented_pairs(n: int, schedule: str) -> tuple[np.ndarray, np.ndarray]:
    """The first and second agents of every pair, in the order of ``itertools.permutations`` or ``combinations``."""
    if schedule == "unordered":
        return tuple(ids.astype(np.int32) for ids in np.triu_indices(n, 1))
    first, listener = np.repeat(np.arange(n, dtype=np.int32), n - 1), np.tile(np.arange(n - 1, dtype=np.int32), n)
    return first, listener + (listener >= first)


@pytest.mark.parametrize("schedule", ["ordered", "unordered"])
@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 2000])
def test_a_timestep_plays_the_documented_pairs_at_large_agent_ids(n, schedule):
    # The check plays 4 agents, whose ids fit in 2 bits of each 16-bit half;
    # here ids up to 1999 must come back whole from the picks, and the
    # timestep must play them: its weights are those of the twin's pairs,
    # coins and memberships played through play_dialogues.
    config = GameConfig(n_agents=n, timesteps=1, schedule=schedule)
    lib = engine._loop()
    player = engine._RunPlayer(lib.play_run, config, UNIT_BOX, 1)
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    weights, rels = np.full(n, 0.5), np.ones(n)
    want = weights.copy()
    player(rng, weights, rels, 0, [1])
    order = twin.permutation(player.picks.size)
    first, second = (ids[order] for ids in documented_pairs(n, schedule))
    assert np.array_equal(player.picks >> 16, first)
    assert np.array_equal(player.picks & 0xFFFF, second)
    heads = twin.random(order.size) < 0.5 if schedule == "unordered" else True
    m1, m2 = (label.membership_batch(twin.random(order.size)) for label in config.labels)
    engine._play(lib.play_dialogues, want, rels, m1, m2, np.where(heads, first, second), np.where(heads, second, first),
                 config.rate, config.model)
    assert weights.tobytes() == want.tobytes()


def test_every_agent_id_fits_in_the_16_bits_the_engine_packs_it_into():
    assert N_MAX - 1 < 2**16
    GameConfig(n_agents=N_MAX)
    with pytest.raises(ConfigError, match="n_agents"):
        GameConfig(n_agents=N_MAX + 1)


@pytest.fixture(scope="module")
def limits(tmp_path_factory):
    """A function that sends the limit driver its request lines and returns its answer lines."""
    driver = tmp_path_factory.mktemp("limits") / "engine_limits"
    command = (*COMPILE_LIMITS, "-o", str(driver), "-lm")
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

    def ask(requests: list[str]) -> list[str]:
        done = subprocess.run([str(driver)], input="\n".join(requests) + "\n", capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    return ask


def halves(value: int) -> str:
    return f"{value >> 64} {value & MASK64}"


@pytest.mark.parametrize("delta", [
    0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**127 - 1, 2**127, 2**127 + 1,
])
def test_jump_moves_the_state_as_pcg64_advance_does(limits, delta):
    bits = np.random.PCG64(delta % 1009)
    pcg = bits.state["state"]
    bits.advance(delta)
    (line,) = limits([f"jump {halves(delta)} {halves(pcg['inc'])} {halves(pcg['state'])}"])
    high, low = map(int, line.split())
    assert high << 64 | low == bits.state["state"]["state"]


def interval_model(bits, has_uint32: int, uinteger: int, most: int, draws: int):
    """numpy's random_interval below 2**32 on ``bits``: masked rejection on next_uint32.

    next_uint32 hands out the spare upper half of the last 64-bit draw
    when there is one, and otherwise draws 64 bits, returns the low half
    and keeps the high one.  Returns the draws and the spare half-word.
    """
    mask = (1 << most.bit_length()) - 1
    values = []
    for _ in range(draws):
        while True:
            if has_uint32:
                has_uint32, value = 0, uinteger
            else:
                raw = int(bits.random_raw())
                has_uint32, uinteger, value = 1, raw >> 32, raw & 0xFFFFFFFF
            if value & mask <= most:
                break
        values.append(value & mask)
    return values, has_uint32, uinteger


@pytest.mark.parametrize("most", [2**31 - 1] + [2**k for k in range(31)])
@pytest.mark.parametrize("pending", [False, True])
def test_interval_draws_as_numpys_masked_rejection(limits, most, pending):
    bits = np.random.PCG64(most)
    if pending:
        np.random.Generator(bits).integers(10, dtype=np.uint32)
    state = bits.state
    pcg, has_uint32, uinteger = state["state"], state["has_uint32"], state["uinteger"]
    (line,) = limits([
        f"interval {halves(pcg['state'])} {halves(pcg['inc'])} {has_uint32} {uinteger} {most} 64"
    ])
    *values, high, low, c_has_uint32, c_uinteger = map(int, line.split())
    want, has_uint32, uinteger = interval_model(bits, has_uint32, uinteger, most, 64)
    assert values == want
    assert (high << 64 | low, c_has_uint32, c_uinteger) == (bits.state["state"]["state"], has_uint32, uinteger)


def test_the_interval_model_shuffles_as_numpy_does():
    # Generator.shuffle draws random_interval(i) for i from the last index down.
    rng, bits = np.random.default_rng(5), np.random.PCG64(5)
    picks, has_uint32, uinteger = list(range(40)), 0, 0
    for i in range(39, 0, -1):
        (j,), has_uint32, uinteger = interval_model(bits, has_uint32, uinteger, i, 1)
        picks[i], picks[j] = picks[j], picks[i]
    assert picks == rng.permutation(40).tolist()


# A child that builds the library with the sanitizer flags it is given
# into its own cache and runs the check, per schedule a tiny experiment,
# a 24-agent run, whose timesteps fill whole blocks of dialogues and end
# in a partial one, and an experiment of 4 runs, which workers play at
# once where the process may use two CPUs, and the target moments under
# both models and the upward count, each drawing whole blocks of
# observations and a partial one.  A report aborts it.
SANITIZED_CHILD = """
import pathlib, sys
import numpy as np
from labelgames import engine
from labelgames.analysis import Environment, estimate_target_moments, positive_update_probability_mc
from labelgames.experiment import ExperimentConfig, run_experiment
from labelgames.game import GameConfig

engine._CACHE = pathlib.Path(sys.argv[1])
engine._COMPILE = (engine._COMPILE[0], *sys.argv[2:], *engine._COMPILE[1:])
assert "-ffp-contract=off" in engine._COMPILE
engine._loop()
for schedule in ("ordered", "unordered"):
    run_experiment(ExperimentConfig(game=GameConfig(n_agents=5, timesteps=3, schedule=schedule), runs=2))
    run_experiment(ExperimentConfig(game=GameConfig(n_agents=24, timesteps=2, schedule=schedule), runs=1))
    run_experiment(ExperimentConfig(game=GameConfig(n_agents=6, timesteps=400, schedule=schedule), runs=4))
env = Environment(((0.1, 0.9), (0.0, 0.5)))
for model in (1, 2):
    estimate_target_moments(env, model=model, n_samples=3000)
positive_update_probability_mc(env, 3001, np.random.default_rng(0))
"""


def run_sanitized(tmp_path, flags, **env) -> bytes:
    """Run the child with ``flags`` added to the build; the library it built."""
    done = subprocess.run(
        (sys.executable, "-c", SANITIZED_CHILD, str(tmp_path), *flags),
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent), **env), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (library,) = tmp_path.iterdir()
    return library.read_bytes()


def test_the_engine_runs_clean_under_ubsan(tmp_path):
    library = run_sanitized(tmp_path, ("-fsanitize=undefined", "-fno-sanitize-recover=all"))
    assert b"__ubsan_handle" in library


def test_the_engine_runs_clean_under_asan(tmp_path):
    # ASan's runtime must be loaded before Python's allocator runs, so it is
    # preloaded; Python's own allocations are not freed at exit, so leak
    # reports are off.
    runtime = subprocess.run(("cc", "-print-file-name=libasan.so"), capture_output=True, text=True).stdout.strip()
    if not Path(runtime).is_absolute():
        pytest.skip(f"the compiler names no libasan.so (it printed {runtime!r})")
    library = run_sanitized(tmp_path, ("-fsanitize=address",), LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    assert b"__asan_" in library


@pytest.fixture
def rebuild(tmp_path, monkeypatch):
    """Builds, loads and checks the engine as ``_loop`` does, with another compile command.

    Each build goes to its own cache under ``tmp_path``; the first
    ``_loop`` after the test loads the default build again.
    """
    def build(command: tuple[str, ...]) -> None:
        monkeypatch.setattr(engine, "_COMPILE", command)
        monkeypatch.setattr(engine, "_CACHE", tmp_path / str(len(list(tmp_path.iterdir()))))
        engine._loop.cache_clear()
        engine._loop()

    yield build
    engine._loop.cache_clear()


def outputs_of_the_build() -> list[bytes]:
    """The bytes the loaded build gives: whole runs and the estimators' results.

    Runs of 24 agents, two blocks of dialogues and a partial one per
    ordered timestep, under both schedules and both models with
    per-agent reliabilities, and the target moments under both models.
    """
    env = Environment(((0.1, 0.9), (0.0, 0.5)))
    outputs = []
    for schedule, model in itertools.product(("ordered", "unordered"), (1, 2)):
        game = GameConfig(
            n_agents=24, timesteps=3, rate=0.3, model=model, schedule=schedule,
            reliability=tuple(np.linspace(0.55, 1.0, 24)),
        )
        result = run_experiment(ExperimentConfig(game=game, env=env, runs=2, master_seed=5))
        outputs += [result.means.tobytes(), result.sds.tobytes(), result.finals.tobytes()]
    for model in (1, 2):
        moments = estimate_target_moments(env, 0.8, model, 5000, np.random.default_rng(model))
        outputs.append(np.array((moments.mean, moments.variance, moments.count)).tobytes())
    outputs.append(np.array(positive_update_probability_mc(env, 5000, np.random.default_rng(3))).tobytes())
    return outputs


def test_the_bits_do_not_depend_on_the_optimisation_level(rebuild):
    want = outputs_of_the_build()
    cc, *flags = (flag for flag in engine._COMPILE if flag != "-O2")
    assert "-ffp-contract=off" in flags
    for level in (("-O0",), ("-O3", "-march=native")):
        rebuild((cc, *level, *flags))
        assert outputs_of_the_build() == want, level


def test_the_check_refuses_a_build_with_fused_multiply_adds(rebuild, tmp_path):
    # A fused multiply-add rounds once where _dialogue rounds twice.
    cc, *flags = (flag.replace("-ffp-contract=off", "-ffp-contract=fast") for flag in engine._COMPILE)
    refusal = ""
    try:
        rebuild((cc, "-march=native", *flags))
    except engine.EngineError as err:
        refusal = str(err)
    (library,) = tmp_path.glob("*/dialogues-*.so")
    done = subprocess.run(("objdump", "-d", str(library)), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    if "vfmadd" not in done.stdout:
        pytest.skip("the native target has no fused multiply-add")
    assert "disagrees with the reference" in refusal
