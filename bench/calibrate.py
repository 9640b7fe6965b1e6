"""A fixed piece of work, timed between repetitions, that gauges host speed.

The benchmark's host is a few cores of a shared machine whose speed
drifts by a fifth or more over tens of seconds, in phases longer than a
repetition and than a run.  run.py times this fixed work before the first
repetition and after each one, and scales each repetition's times by
``REFERENCE_S`` over the mean of the two calibrations around it: the times
it reports are those of a host that does the fixed work in
``REFERENCE_S``.  The work never touches labelgames, so a change to the
program cannot move it.  It mixes, in about equal time, the three kinds
of work the workloads do: a loop over small Python objects (the per-call
plumbing of the simulation workloads), numpy permutation, sort and
arithmetic on arrays of a few hundred kilobytes (the engine's array code),
and passes over an array of 16 MB (the memory traffic of ``crowd`` and of
the Monte Carlo in ``predict``).  Inputs are fixed.  It runs in a process
of its own, ``python3 bench/calibrate.py``, which prints the time and
``REFERENCE_S`` as JSON: neither
the repetitions nor run.py, whose memory a repetition's ``ru_maxrss``
inherits when it is started, ever hold its arrays.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# Sized so that each part of a round takes about 30 ms on a 2-core box.
PY_STEPS = 120_000
NP_SIZE = 1 << 15
NP_STEPS = 8
MEM_SIZE = 1 << 21
MEM_PASSES = 6
ROUNDS = 4
# What measure() returns on the 2-core box of the README's figures, at
# its typical speed; the reported times are in seconds of such a host.
REFERENCE_S = 0.42

_memory = np.ones(MEM_SIZE)


def _python_work() -> int:
    total = 0
    table: dict = {}
    for i in range(PY_STEPS):
        key = i % 97
        table[key] = table.get(key, 0) + (i * i) % 13
        total += len((key, i))
    return total + sum(table.values())


def _numpy_work() -> float:
    rng = np.random.default_rng(12345)
    values = rng.random(NP_SIZE)
    acc = 0.0
    for _ in range(NP_STEPS):
        shuffled = values[rng.permutation(NP_SIZE)]
        ranks = np.argsort(shuffled, kind="stable")
        acc += float(np.sum(np.sqrt(shuffled[ranks]) * 0.5 + shuffled))
    return acc


def _memory_work() -> float:
    acc = 0.0
    for _ in range(MEM_PASSES):
        acc += float((_memory * 1.5).sum())
    return acc


def measure() -> float:
    """Seconds that ROUNDS rounds of the fixed work take now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _python_work()
        _numpy_work()
        _memory_work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"calibration_s": measure(), "reference_s": REFERENCE_S}))
    sys.exit(0)
