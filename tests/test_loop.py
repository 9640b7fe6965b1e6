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

from labelgames import game
from labelgames.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
COMMAND = " ".join(game._COMPILE)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty package cache, with no loop loaded before or after the test."""
    path = tmp_path / "cache"
    monkeypatch.setattr(game, "_CACHE", path)
    game._loop.cache_clear()
    yield path
    game._loop.cache_clear()


def libraries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def test_builds_once_and_ignores_libraries_under_other_keys(cache):
    # A library left under another key, here not even a library, is never opened.
    cache.mkdir()
    stale = "dialogues-000000000000000000000000.so"
    (cache / stale).write_text("")
    game._loop()
    (name,) = set(libraries(cache)) - {stale}
    assert name.startswith("dialogues-") and name.endswith(".so")
    built = (cache / name).stat().st_mtime_ns
    game._loop.cache_clear()
    game._loop()
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
    ("u1[d] = next_double(state)", "u2[d] = next_double(state)", "swap"),  # dimension two drawn first
    ("coins[d] < 0.5", "coins[d] >= 0.5"),  # a low coin makes the second agent speak
    ("l += l >= s;", "l += l > s;"),  # ordered decode off by one
    ("j = n - 1 - (c", "j = n - 2 - (c"),  # unordered decode off by one
    ("played < times[k]", "played <= times[k]"),  # each snapshot one timestep late
], ids=[
    "ties-last", "no-lower-clamp", "no-upper-clamp", "shuffle", "uniforms-swapped",
    "coin-roles-flipped", "ordered-decode", "unordered-decode", "recording-shifted",
])
def test_the_check_refuses_a_loop_built_from_altered_source(cache, monkeypatch, edit):
    if edit[-1] == "swap":
        source = swapped(game._LOOP_SOURCE, *edit[:2])
    else:
        source = game._LOOP_SOURCE.replace(*edit)
    assert source != game._LOOP_SOURCE
    monkeypatch.setattr(game, "_LOOP_SOURCE", source)
    with pytest.raises(game.EngineError, match="disagrees with the reference") as info:
        game._loop()
    (name,) = libraries(cache)
    assert str(cache / name) in str(info.value)


def test_a_library_under_the_right_name_from_other_source_is_refused(cache, tmp_path, monkeypatch):
    # A stale library that happens to carry the current key is still checked.
    with monkeypatch.context() as patch:
        patch.setattr(game, "_LOOP_SOURCE", game._LOOP_SOURCE.replace("c > best", "c >= best"))
        with pytest.raises(game.EngineError):
            game._loop()
    (stale,) = libraries(cache)
    with monkeypatch.context() as patch:
        patch.setattr(game, "_CACHE", tmp_path / "elsewhere")
        game._loop.cache_clear()
        game._loop()
        (name,) = libraries(tmp_path / "elsewhere")
    shutil.copy(cache / stale, cache / name)
    game._loop.cache_clear()
    with pytest.raises(game.EngineError, match="disagrees with the reference") as info:
        game._loop()
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


def test_an_unwritable_package_cache_falls_back_to_a_private_directory(cache, tmp_path, monkeypatch):
    # Tests run as root, for whom a chmod-ed directory stays writable, so the
    # package cache is made unusable by being a file.
    cache.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    game._loop()
    private = tmp_path / f"labelgames-{os.getuid()}"
    assert stat.S_IMODE(private.stat().st_mode) == 0o700
    assert len(libraries(private)) == 1


def test_a_shared_fallback_directory_is_refused(cache, tmp_path, monkeypatch):
    cache.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    shared = tmp_path / f"labelgames-{os.getuid()}"
    shared.mkdir()
    shared.chmod(0o755)
    with pytest.raises(game.EngineError, match="not a directory private to this user"):
        game._loop()
    assert libraries(shared) == []


def test_two_processes_on_an_empty_cache_both_load_the_loop(cache):
    script = (
        "import sys, pathlib\n"
        "from labelgames import game\n"
        "game._CACHE = pathlib.Path(sys.argv[1])\n"
        "game._loop()\n"
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
