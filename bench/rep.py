"""One repetition of one workload in a fresh process; started by run.py.

A fresh process per repetition makes ``ru_maxrss``, a lifetime peak, the
peak of this repetition alone, and makes set-up time include the imports.
The process imports labelgames from the checkout's ``src`` directory and
refuses to run against any other copy.  It prints one JSON line with its
timings, per-operation verdicts and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import labelgames

    if not Path(labelgames.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"labelgames imported from {labelgames.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy

    import tracing
    import workloads

    shape = workloads.SHAPES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, shape, args.workdir)
    golden = workloads.load_golden()
    workload.prepare()
    ready_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent that spawned us.
    setup_s = time.monotonic() - args.spawned_at

    tracer = tracing.Tracer() if args.traced else None
    if tracer:
        tracer.install()
        tracer.begin()
    start = time.perf_counter()
    outputs = workload.run()
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.end()
        tracer.uninstall()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "input": workload.describe(),
        "units": workload.units(),
        "dialogues_per_timestep": workload.dialogues_per_timestep(),
        "ready_rss_bytes": ready_rss,
        "peak_rss_bytes": peak_rss,
        "verdicts": workloads.verdicts(workload, outputs, golden, args.size),
        "reference": str(args.seed) in golden.get(args.size, {}).get(args.workload, {}),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "labelgames": labelgames.__version__,
    }
    if tracer:
        report["layers"] = tracer.layers()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
