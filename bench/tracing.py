"""Spans and counts for the traced run, recorded from the benchmark's side.

The tracer wraps labelgames functions through their module attribute or
class, e.g. ``labelgames.experiment._stacked_timestep`` or
``Label.membership_batch``.  A module function is replaced in every
``labelgames`` module that binds it, since ``from .game import
_draw_schedule`` copies the name into the importer.  Spans (name, start,
end, parent) stay in memory and are written out at the end of a
repetition.  A hook whose target no longer exists is reported as absent,
and so is every count derived from it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from functools import wraps
from pathlib import Path

# (layer metric prefix, module, attribute): the spans recorded.
HOOKS = (
    ("cli.main", "labelgames.cli", "main"),
    ("config.load_config", "labelgames.config", "load_config"),
    ("experiment.run_experiment", "labelgames.experiment", "run_experiment"),
    ("experiment.stacked_timestep", "labelgames.experiment", "_stacked_timestep"),
    ("experiment.population_stats", "labelgames.experiment", "_population_stats"),
    ("experiment.persist_experiment", "labelgames.experiment", "persist_experiment"),
    ("game.draw_schedule", "labelgames.game", "_draw_schedule"),
    ("game.signed_targets", "labelgames.game", "_signed_targets"),
    ("game.group_by_listener", "labelgames.game", "_group_by_listener"),
    ("game.apply_sequential", "labelgames.game", "_apply_sequential"),
    ("labels.membership_batch", "labelgames.labels", "Label.membership_batch"),
    ("analysis.sample_batch", "labelgames.analysis", "Environment.sample_batch"),
    ("analysis.build_prediction", "labelgames.analysis", "build_prediction"),
    ("analysis.estimate_target_moments", "labelgames.analysis", "estimate_target_moments"),
    ("analysis.positive_update_probability_mc", "labelgames.analysis", "positive_update_probability_mc"),
)

# Spans whose self time (duration minus time in child spans) is reported.
SELF_TIMED = ("cli.main", "experiment.run_experiment", "experiment.stacked_timestep")
# Hooks whose call count the engine decides; the rest are fixed by the workload.
CALLS_COUNTED = (
    "experiment.stacked_timestep",
    "experiment.population_stats",
    "game.draw_schedule",
    "game.signed_targets",
    "game.group_by_listener",
    "game.apply_sequential",
    "labels.membership_batch",
    "analysis.sample_batch",
)

# Counts taken from call arguments: (count, hook, argument, add length?).
# Each call adds the argument's value, or its len() where flagged.
ARG_COUNTS = (
    ("experiment.run_timesteps", "experiment.stacked_timestep", "runs", False),
    ("dialogues_played", "experiment.stacked_timestep", "speakers", True),
    ("game.sequential_dialogues", "game.apply_sequential", "speakers", True),
    ("analysis.mc_samples", "analysis.estimate_target_moments", "n_samples", False),
    ("analysis.mc_samples", "analysis.positive_update_probability_mc", "n_samples", False),
)

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    [(f"{name}.s", "s") for name, _, _ in HOOKS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALLS_COUNTED]
    + [
        ("experiment.run_timesteps", "count"),
        ("experiment.fast_run_timesteps", "count"),
        ("experiment.fallback_run_timesteps", "count"),
        ("experiment.fast_path_ratio", "ratio"),
        ("game.sequential_dialogues", "count"),
        ("dialogues_played", "count"),
        ("analysis.mc_samples", "count"),
        ("experiment.rss_bytes_per_dialogue", "B/dialogue"),
        ("trace.overhead_s", "s"),
    ]
)


def _labelgames_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "labelgames" or name.startswith("labelgames.")
    ]


class Tracer:
    """Installs the hooks, records spans and counts, and restores the originals."""

    def __init__(self):
        self.spans: list = []  # (hook index, parent span id, start, end)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._restore: list = []
        self._origin = 0.0

    def install(self) -> None:
        argument_counts = {}
        for count, hook, argument, length in ARG_COUNTS:
            argument_counts.setdefault(hook, []).append((count, argument, length))
        for index, (name, module_name, attribute) in enumerate(HOOKS):
            owner, original = self._locate(module_name, attribute)
            if original is None:
                self.absent.add(name)
                continue
            counters = []
            for count, argument, length in argument_counts.get(name, ()):
                if argument in inspect.signature(original).parameters:
                    counters.append((count, argument, length))
                else:
                    self.absent.add(count)
            wrapper = self._wrap(index, original, counters)
            if owner is not None:
                self._patch(owner, attribute.split(".")[1], wrapper)
            else:
                for module in _labelgames_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        for count, hook, _, _ in ARG_COUNTS:
            if hook in self.absent:
                self.absent.add(count)

    @staticmethod
    def _locate(module_name: str, attribute: str):
        """(owning class or None, function) for a hook; function None when gone."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None, None
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            found = vars(owner).get(method) if isinstance(owner, type) else None
            return owner, found if callable(found) else None
        found = vars(module).get(attribute)
        return None, found if callable(found) else None

    def _patch(self, target, key: str, value) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def _wrap(self, index: int, original, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(original) if counters else None
        clock = time.perf_counter

        @wraps(original)
        def traced(*args, **kwargs):
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                for count, argument, length in counters:
                    value = bound[argument]
                    counts[count] += len(value) if length else int(value)
            span = len(spans)
            spans.append(None)
            stack.append(span)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans[span] = (index, parent, start, clock())
                stack.pop()

        return traced

    def begin(self) -> None:
        """Open the root span that covers the timed work."""
        self._origin = time.perf_counter()
        self.spans.append(None)
        self._stack.append(0)

    def end(self) -> None:
        self._stack.pop()
        self.spans[0] = (-1, -1, self._origin, time.perf_counter())

    def layers(self) -> dict:
        """Per-hook time, self time and calls, plus the engine-path counts."""
        names = [name for name, _, _ in HOOKS]
        total = Counter()
        in_children = Counter()
        calls = Counter()
        for index, parent, start, end in self.spans:
            duration = end - start
            if parent >= 0:
                in_children[parent] += duration
            if index >= 0:
                total[names[index]] += duration
                calls[names[index]] += 1
        own = Counter()
        for span_id, (index, _, start, end) in enumerate(self.spans):
            if index >= 0:
                own[names[index]] += end - start - in_children[span_id]

        values = {}
        for name in names:
            values[f"{name}.s"] = total[name]
        for name in CALLS_COUNTED:
            values[f"{name}.calls"] = calls[name]
        for name in SELF_TIMED:
            values[f"{name}.self_s"] = own[name]
        for count, _, _, _ in ARG_COUNTS:
            values[count] = self.counts[count]
        run_timesteps = self.counts["experiment.run_timesteps"]
        fallbacks = calls["game.apply_sequential"]
        values["experiment.fallback_run_timesteps"] = fallbacks
        values["experiment.fast_run_timesteps"] = run_timesteps - fallbacks
        values["experiment.fast_path_ratio"] = (
            (run_timesteps - fallbacks) / run_timesteps if run_timesteps else 0.0
        )
        absent = set(self.absent)
        for name in names:
            if name in absent:
                absent |= {f"{name}.s", f"{name}.calls", f"{name}.self_s"}
        if absent & {"experiment.run_timesteps", "game.apply_sequential"}:
            absent |= {
                "experiment.fallback_run_timesteps",
                "experiment.fast_run_timesteps",
                "experiment.fast_path_ratio",
            }
        return {"values": values, "absent": sorted(absent & set(values))}

    def write_spans(self, path: Path) -> None:
        names = [name for name, _, _ in HOOKS]
        lines = ["id,parent,name,start_s,end_s"]
        for span_id, (index, parent, start, end) in enumerate(self.spans):
            name = names[index] if index >= 0 else "workload"
            lines.append(
                f"{span_id},{parent},{name},{start - self._origin:.9f},"
                f"{end - self._origin:.9f}"
            )
        path.write_text("\n".join(lines) + "\n")
