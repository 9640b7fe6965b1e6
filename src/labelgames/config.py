"""Flat key=value experiment configuration files.

The format is a plain text file of ``key = value`` lines.  ``#`` starts a
comment, blank lines are skipped, and a ``[section]`` header prefixes the
keys that follow with ``section.``, so the two spellings

    [env]
    x1 = uniform(0, 1)

and ``env.x1 = uniform(0, 1)`` are equivalent.  This module parses syntax
only; the two environment dimensions must be given.  Every other default
and every range rule belongs to ``GameConfig``, ``ExperimentConfig`` and
``Environment``, which see only the keys a file sets.  Each error carries
the line of the key that caused it.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from .analysis import Environment
from .experiment import ExperimentConfig
from .game import ConfigError, GameConfig

_UNIFORM = re.compile(r"^uniform\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")
_FIXED = re.compile(r"^fixed\(\s*([^,()\s]+)\s*\)$")
_SECTION = re.compile(r"^\[\s*([A-Za-z0-9_.]+)\s*\]$")


def _interval(raw: str) -> tuple[float, float]:
    match = _UNIFORM.match(raw)
    if not match:
        raise ValueError(raw)
    return tuple(float(end) for end in match.groups())


def _weight_init(raw: str) -> float | None:
    if raw == "uniform":
        return None
    match = _FIXED.match(raw)
    if not match:
        raise ValueError(raw)
    return float(match.group(1))


# Each key's library field, its parser, which raises ValueError on bad
# syntax, and the syntax it expects.  The interval fields are named as
# ``Environment`` names them in its errors.
_KEYS = {
    "agents": ("n_agents", int, "an integer"),
    "timesteps": ("timesteps", int, "an integer"),
    "h": ("rate", float, "a number"),
    "w": ("reliability", float, "a number"),
    "model": ("model", int, "an integer"),
    "lambda_init": ("weight_init", _weight_init, "'uniform' or fixed(v)"),
    "schedule": ("schedule", str, "a word"),
    "runs": ("runs", int, "an integer"),
    "seed": ("master_seed", int, "an integer"),
    "record_every": ("record_every", int, "an integer"),
    "env.x1": ("intervals[0]", _interval, "uniform(lo, hi)"),
    "env.x2": ("intervals[1]", _interval, "uniform(lo, hi)"),
}
_GAME_FIELDS = {f.name for f in fields(GameConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into an experiment configuration.

    Raises ConfigError, with a line number where one applies, for unknown
    or duplicated keys, malformed values, missing environment dimensions,
    and any value the library's constructors refuse.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION.match(line)
        if header:
            section = header.group(1)
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected key = value, got {line!r}", line=line_no
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section:
            key = f"{section}.{key}"
        if not key:
            raise ConfigError("missing key before '='", line=line_no)
        if not value:
            raise ConfigError(f"missing value for {key}", line=line_no)
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        field, parse, expected = _KEYS[key]
        if field in lines:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {lines[field]})",
                line=line_no,
            )
        try:
            values[field] = parse(value)
        except ValueError:
            raise ConfigError(
                f"{key} must be {expected}, got {value!r}", line=line_no
            ) from None
        lines[field] = line_no

    for key in ("env.x1", "env.x2"):
        if _KEYS[key][0] not in values:
            raise ConfigError(f"{key} is required, e.g. {key} = uniform(0, 1)")
    try:
        env = Environment(
            (values.pop("intervals[0]"), values.pop("intervals[1]"))
        )
        game = GameConfig(
            **{f: values.pop(f) for f in list(values) if f in _GAME_FIELDS}
        )
        return ExperimentConfig(game=game, env=env, **values)
    except ConfigError as err:
        raise ConfigError(err.message, err.field, lines.get(err.field)) from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file.

    An unreadable or missing file is reported as a ConfigError so callers
    can treat every configuration problem uniformly.
    """
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text)
