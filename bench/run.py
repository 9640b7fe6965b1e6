"""labelgames benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload replicates --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; labelgames is imported from the
checkout's ``src`` directory, and the run fails, printing no result, when
that directory is missing.  Each repetition runs in a fresh child process
(see rep.py) with BLAS and OpenMP pools pinned to one thread, one at a
time: a closed loop with one client.  Repetitions continue until the time
is spent, at least three of them (two traced/untraced pairs with --trace 1).

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer numbers from the traced repetitions, and the tracing overhead
against the untraced ones.  The host's speed drifts, so a fixed piece of
work is timed before the first repetition and after each one
(calibrate.py), and every time reported is scaled to a host of fixed
speed; the measured wall time is printed beside it.  Every output is
checked (see workloads.py) and an operation that raises or fails a check
counts as failed.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it say the same for people.  Details
of every repetition go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SRC_MARKER = ROOT / "src" / "labelgames" / "__init__.py"

sys.path.insert(0, str(BENCH))
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("replicates", "crowd", "boundary", "predict")
END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}
# The run, repetitions included, must end well inside a 180 s budget.
HARD_LIMIT_S = 165.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke runs every workload at a tiny shape",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    return args


def run_repetition(args, traced: bool, index: int, time_left: float) -> dict:
    """Spawn one child repetition and return its report, or a failure record."""
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}-{index}"
    command = [
        sys.executable, str(BENCH / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--traced", str(int(traced)),
        "--workdir", str(workdir), "--spans", str(OUT / f"spans-{tag}.csv"),
    ]
    env = dict(os.environ, **PINNED_THREADS)
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "repetition timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
            report["traced"] = traced
            return report
        except json.JSONDecodeError:
            pass
    return {"traced": traced, "crashed": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}


def host_speed() -> dict:
    """Seconds the calibration work takes now, timed in a process of its own,
    and the seconds it takes on the reference host."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "calibrate.py")], capture_output=True,
        text=True, env=dict(os.environ, **PINNED_THREADS), cwd=ROOT,
        timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(args) -> list[dict]:
    """Closed loop of child repetitions until --seconds is spent.

    With --trace 1 each step is an untraced and a traced repetition, so
    the two sides see the same machine.  A step starts only when, at the
    cost of the last one, it ends in time.  The calibration is timed
    before the first repetition and after each one; a repetition's
    ``scale`` is the reference time over the mean of the two around it.
    """
    start = time.monotonic()
    kinds = (False, True) if args.trace else (False,)
    minimum = 2 if args.trace else 3
    reports = []
    calibration = host_speed()
    while True:
        began = time.monotonic()
        for traced in kinds:
            left = start + HARD_LIMIT_S - time.monotonic()
            report = run_repetition(args, traced, len(reports), left)
            after = host_speed()
            report["calibration_s"] = (calibration["calibration_s"] + after["calibration_s"]) / 2
            report["reference_s"] = after["reference_s"]
            report["scale"] = after["reference_s"] / report["calibration_s"]
            calibration = after
            reports.append(report)
        if all("crashed" in r for r in reports):
            break
        now = time.monotonic()
        cost = now - began
        steps = len(reports) // len(kinds)
        if now + cost > start + HARD_LIMIT_S:
            break
        if steps >= minimum and now + cost > start + args.seconds:
            break
    return reports


def tally(reports: list[dict]) -> tuple[int, int, dict]:
    """Attempted and failed operations, failures by kind.

    A repetition whose digests differ from the first repetition's is a
    rerun failure: the same inputs must give the same bytes.
    """
    attempted = failed = 0
    kinds: dict = {}
    ops = max((len(r.get("verdicts", ())) for r in reports), default=1) or 1
    first = next((r["verdicts"] for r in reports if "verdicts" in r), None)
    for report in reports:
        if "crashed" in report:
            attempted += ops
            failed += ops
            kinds["crashed"] = kinds.get("crashed", 0) + ops
            continue
        for index, verdict in enumerate(report["verdicts"]):
            status = verdict["status"]
            if status == "ok" and verdict["digest"] != first[index]["digest"]:
                status = "rerun"
            attempted += 1
            if status != "ok":
                failed += 1
                kinds[status] = kinds.get(status, 0) + 1
    return attempted, failed, kinds


def end_to_end(reports: list[dict], attempted: int, failed: int) -> dict:
    """Medians of the untraced repetitions, times scaled to the reference host."""
    good = [r for r in reports if "crashed" not in r and not r["traced"]]
    walls = [r["wall_s"] * r["scale"] for r in good]
    values = {
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(r["units"] / wall for r, wall in zip(good, walls)),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in good) / 1e6,
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in good),
        "success_rate": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(reports: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced repetitions' scaled times; their counts must repeat exactly.

    The tracing overhead and RSS per dialogue come from comparing with, and
    from, the untraced repetitions.
    """
    traced_reports = [r for r in reports if "crashed" not in r and r["traced"]]
    traced = [r["layers"] for r in traced_reports]
    scales = [r["scale"] for r in traced_reports]
    plain = [r for r in reports if "crashed" not in r and not r["traced"]]
    absent = set().union(*(layers["absent"] for layers in traced))
    values, mismatched = {}, []
    for name, unit in PER_LAYER:
        if name not in traced[0]["values"]:
            continue
        series = [layers["values"][name] for layers in traced]
        if unit == "s":
            values[name] = statistics.median(v * k for v, k in zip(series, scales))
        else:
            if len(set(series)) != 1:
                mismatched.append(f"{name} {series}")
            values[name] = series[0]
    values["trace.overhead_s"] = statistics.median(
        r["wall_s"] * r["scale"] for r in traced_reports
    ) - statistics.median(r["wall_s"] * r["scale"] for r in plain)
    per_timestep = plain[0]["dialogues_per_timestep"]
    growth = statistics.median(r["peak_rss_bytes"] - r["ready_rss_bytes"] for r in plain)
    values["experiment.rss_bytes_per_dialogue"] = growth / per_timestep if per_timestep else 0.0
    metrics = {}
    for name, unit in PER_LAYER:
        if name in absent:
            metrics[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so the running repetition's child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not SRC_MARKER.is_file():
        print(f"no labelgames sources at {SRC_MARKER.parent}; run inside a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    reports = repeat(args)
    attempted, failed, kinds = tally(reports)
    good = [r for r in reports if "crashed" not in r]
    if not good or (args.trace and not any(r["traced"] for r in good)):
        for report in reports:
            print(report.get("crashed", ""), file=sys.stderr)
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        return 1

    mismatched = []
    if args.trace:
        metrics, mismatched = per_layer(reports)
        if mismatched:
            failed += 1
            attempted += 1
            kinds["count_mismatch"] = 1
    else:
        metrics = end_to_end(reports, attempted, failed)

    sample = good[0]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sample["python"],
        "numpy": sample["numpy"],
        "labelgames": sample["labelgames"],
        "platform": platform.platform(),
    }
    plain = [r for r in good if not r["traced"]]
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"input: {sample['input']}")
    reference = "yes" if sample["reference"] else "none for this seed, checks only"
    print(f"reference digests: {reference}")
    print(
        f"environment: nproc={environment['nproc']} python={environment['python']} "
        f"numpy={environment['numpy']} labelgames={environment['labelgames']}"
    )
    print(
        f"repetitions: {len(reports)} ({len(plain)} untraced, "
        f"{len(good) - len(plain)} traced, {len(reports) - len(good)} crashed)"
    )
    print(
        f"host: calibration {statistics.median(r['calibration_s'] for r in reports):.4g} s "
        f"(reference {reports[0]['reference_s']} s); measured untraced wall time "
        f"{statistics.median(r['wall_s'] for r in plain):.4g} s"
    )
    for name, metric in metrics.items():
        note = " (absent)" if metric.get("absent") else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for kind, count in sorted(kinds.items()):
        print(f"failures[{kind}] = {count}")
    for report in good:
        for verdict in report["verdicts"]:
            if verdict["status"] != "ok":
                print(f"  {verdict['status']}: {verdict['detail']}")
    for line in mismatched:
        print(f"  count mismatch: {line}")

    record = {"environment": environment, "metrics": metrics, "failures": kinds, "repetitions": reports}
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
