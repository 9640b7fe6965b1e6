"""The compiled dialogue loop: its cache, its build and its known-answer check.

Each test starts from an empty cache under ``tmp_path`` and no loop
loaded in the process, and leaves none loaded, so the next use builds
or loads the package's own.
"""

import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from labelgames import engine
from labelgames.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = Path(engine.__file__).parent
COMMAND = " ".join(engine._COMPILE)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty package cache, with no loop loaded before or after the test."""
    path = tmp_path / "cache"
    monkeypatch.setattr(engine, "_CACHE", path)
    engine._loop.cache_clear()
    yield path
    engine._loop.cache_clear()


def libraries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def test_builds_once_and_ignores_libraries_under_other_keys(cache):
    # A library left under another key, here not even a library, is never opened.
    cache.mkdir()
    stale = "dialogues-000000000000000000000000.so"
    (cache / stale).write_text("")
    engine._loop()
    (name,) = set(libraries(cache)) - {stale}
    assert name.startswith("dialogues-") and name.endswith(".so")
    built = (cache / name).stat().st_mtime_ns
    engine._loop.cache_clear()
    engine._loop()
    assert libraries(cache) == sorted([name, stale])
    assert (cache / name).stat().st_mtime_ns == built


def swapped(source: str, a: str, b: str) -> str:
    """``source`` with every ``a`` and ``b`` exchanged."""
    return source.replace(a, "\0").replace(b, a).replace("\0", b)


@pytest.mark.parametrize("edit", [
    ("c > best", "c >= best"),  # ties go last
    ("t = t > 0 ? t : 0;\n", ""),  # no clamp at 0
    ("t = t < 1 ? t : 1;\n", ""),  # no clamp at 1
    ("& mask) > max", "& mask) >= max"),  # another shuffle than Generator.shuffle's
    ("next_double(&one, g.inc", "next_double(&two, g.inc", "swap"),  # each dimension's uniforms from the other's cursor
    ("next_double(&coin, g.inc) < 0.5", "next_double(&coin, g.inc) >= 0.5"),  # a low coin makes the second agent speak
    ("jump((u128) count, g.inc", "jump((u128) count - 1, g.inc"),  # the cursors one draw too close
    ("generator[4] = g.has_uint32;\n", ""),  # the shuffle's spare half-word is not handed back
    ("0x4385df649fccf645", "0x4385df649fccf646"),  # one wrong digit of the multiplier
    ("i << 16 | j;", "(unordered ? i << 16 | j : j << 16 | i);"),  # the ordered pairs listener-major
    ("i << 16 | j;", "(unordered ? ((uint32_t) n - 1 - j) << 16 | ((uint32_t) n - 1 - i) : i << 16 | j);"),  # the unordered table in reverse order
    ("played < times[k]", "played <= times[k]"),  # each snapshot one timestep late
    ("? count - d0 :", "? count - d0 - 1 :"),  # the last, partial block one dialogue short
    ("pick(target < 0, zero, target)", "pick(target > 0, target, zero)"),  # a target of -0.0 becomes 0.0
    ("pick(target > 1, one, target);", "target;"),  # no clip of targets at 1
    ("{u1[d], u1[e]}", "{u2[d], u2[e]}", "swap"),  # each dimension's uniforms under the other's label
    ("(x1 - x2 > 0) << 3", "(x1 - x2 >= 0) << 3"),  # the diagonal counted as upward
    ("(1.0 - lam) * b[i] <= rel", "(1.0 - lam) * b[i] < rel"),  # a listener that fits exactly stays
    ("jump((u128) count, inc", "jump((u128) count - 1, inc"),  # the estimators' b one draw early
    ("next_double(one, inc)", "next_double(&two, inc)", "swap"),  # the estimators' a and b swapped
    ("generator[1] = (uint64_t) two;\n", ""),  # only the high half of the estimators' state handed back
    ("? (int) (count - i) :", "? (int) (count - i) - 1 :"),  # the estimators' last, partial block one short
    ("t[kept + k]", "t[k]"),  # each block's targets written over the first block's
], ids=[
    "ties-last", "no-lower-clamp", "no-upper-clamp", "shuffle", "uniforms-swapped",
    "coin-roles-flipped", "jump-off-by-one", "half-word-dropped", "multiplier-digit", "ordered-table", "unordered-table", "recording-shifted",
    "block-tail",
    "targets-lose-negative-zero", "targets-unclipped-at-one", "targets-dimensions-swapped",
    "upward-counts-the-diagonal", "select-strict",
    "draws-cursor-early", "draws-swapped", "draws-state-half-written", "draws-block-tail", "targets-block-offset",
])
def test_the_check_refuses_a_loop_built_from_altered_source(cache, monkeypatch, edit):
    if edit[-1] == "swap":
        source = swapped(engine._SOURCE, *edit[:2])
    else:
        source = engine._SOURCE.replace(*edit)
    assert source != engine._SOURCE
    monkeypatch.setattr(engine, "_SOURCE", source)
    with pytest.raises(engine.EngineError, match="disagrees with the reference") as info:
        engine._loop()
    (name,) = libraries(cache)
    assert str(cache / name) in str(info.value)


@pytest.mark.parametrize(
    "source", [PACKAGE / "_engine.c", Path(__file__).with_name("engine_limits.c")], ids=["engine", "limit-driver"]
)
def test_the_source_compiles_cleanly_under_strict_warnings(source):
    # -Wconversion refuses an implicit narrowing, such as the 128-bit
    # generator state cut to 64 bits without a cast; -Wall -Wextra alone
    # let that through.  The limit driver includes the engine's source.
    flags = ("-Wall", "-Wextra", "-Wconversion", "-Werror", "-fsyntax-only", "-I", str(PACKAGE))
    done = subprocess.run(("cc", *flags, str(source)), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_a_library_under_the_right_name_from_other_source_is_refused(cache, tmp_path, monkeypatch):
    # A stale library that happens to carry the current key is still checked.
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_SOURCE", engine._SOURCE.replace("c > best", "c >= best"))
        with pytest.raises(engine.EngineError):
            engine._loop()
    (stale,) = libraries(cache)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_CACHE", tmp_path / "elsewhere")
        engine._loop.cache_clear()
        engine._loop()
        (name,) = libraries(tmp_path / "elsewhere")
    shutil.copy(cache / stale, cache / name)
    engine._loop.cache_clear()
    with pytest.raises(engine.EngineError, match="disagrees with the reference") as info:
        engine._loop()
    # The message names the file to remove.
    assert str(cache / name) in str(info.value)


def test_without_a_compiler_simulate_fails_before_making_its_output(cache, tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("agents = 4\ntimesteps = 2\nruns = 2\nenv.x1 = uniform(0, 1)\nenv.x2 = uniform(0, 0.5)\n")
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) != 0
    assert COMMAND in capsys.readouterr().err
    assert not out.exists()
    assert libraries(cache) == []


def test_without_a_compiler_predict_fails_before_writing_its_curves(cache, tmp_path, monkeypatch, capsys):
    # The Monte Carlo estimators run in the compiled library too.
    config = tmp_path / "run.cfg"
    config.write_text("agents = 4\ntimesteps = 2\nmodel = 2\nenv.x1 = uniform(0, 1)\nenv.x2 = uniform(0, 0.5)\n")
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    out = tmp_path / "out"
    argv = ["predict", "--config", str(config), "--samples", "1000", "--out", str(out), "--emit-plot-data"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("engine error: ") and COMMAND in captured.err
    assert captured.out == ""
    assert not out.exists() and not list(tmp_path.rglob("*.dat"))
    assert libraries(cache) == []


def test_an_unwritable_package_cache_falls_back_to_a_private_directory(cache, tmp_path, monkeypatch):
    # Tests run as root, for whom a chmod-ed directory stays writable, so the
    # package cache is made unusable by being a file.
    cache.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    engine._loop()
    private = tmp_path / f"labelgames-{os.getuid()}"
    assert stat.S_IMODE(private.stat().st_mode) == 0o700
    assert len(libraries(private)) == 1


def test_a_shared_fallback_directory_is_refused(cache, tmp_path, monkeypatch):
    cache.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    shared = tmp_path / f"labelgames-{os.getuid()}"
    shared.mkdir()
    shared.chmod(0o755)
    with pytest.raises(engine.EngineError, match="not a directory private to this user"):
        engine._loop()
    assert libraries(shared) == []


def test_two_processes_on_an_empty_cache_both_load_the_loop(cache):
    script = (
        "import sys, pathlib\n"
        "from labelgames import engine\n"
        "engine._CACHE = pathlib.Path(sys.argv[1])\n"
        "engine._loop()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(cache)], env=env, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    # Each build wrote a temporary file and replaced it into place whole.
    (name,) = libraries(cache)
    assert name.endswith(".so")
