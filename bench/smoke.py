"""Smoke test of the benchmark itself; takes seconds.

    python3 bench/smoke.py

Runs every workload at its smoke shape in this process and checks it
against its reference digests; shows that one altered CSV byte or one
altered final weight fails the output check; shows that a hook whose
target is gone is reported absent; runs bench/run.py on every
workload, traced and untraced, and checks its JSON against BENCHMARK.json
and the engine-path counts; and checks that the benchmark fails, printing
no result, in a directory without the labelgames sources.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def smoke_run(name: str):
    workload = workloads.WORKLOADS[name](
        0, workloads.SHAPES["smoke"][name], OUT / "work" / f"smoke-{name}"
    )
    workload.prepare()
    return workload, workload.run()


def check_workloads(golden: dict) -> None:
    for name in workloads.WORKLOADS:
        expect(str(0) in golden["smoke"].get(name, {}), f"{name}: no smoke reference")
        workload, outputs = smoke_run(name)
        verdicts = workloads.verdicts(workload, outputs, golden, "smoke")
        expect(all(v["status"] == "ok" for v in verdicts), f"{name}: {verdicts}")
        shutil.rmtree(OUT / "work" / f"smoke-{name}", ignore_errors=True)
        print(f"ok   {name}: {len(verdicts)} operations match their reference")


def check_tampering(golden: dict) -> None:
    workload, outputs = smoke_run("replicates")
    csv = workload.out_dir / "run_000.csv"
    data = bytearray(csv.read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    csv.write_bytes(bytes(data))
    (verdict,) = workloads.verdicts(workload, outputs, golden, "smoke")
    expect(verdict["status"] == "golden" and "run_000.csv" in verdict["detail"], f"altered CSV byte: {verdict}")
    shutil.rmtree(workload.workdir, ignore_errors=True)
    print("ok   one altered CSV byte fails as a reference mismatch")

    workload, outputs = smoke_run("crowd")
    weights = outputs[0].run_records[0].final_weights
    weights[0] = np.nextafter(weights[0], 0.0)
    (verdict,) = workloads.verdicts(workload, outputs, golden, "smoke")
    expect(verdict["status"] == "golden", f"altered final weight: {verdict}")
    print("ok   one altered final weight fails as a reference mismatch")

    workload, outputs = smoke_run("boundary")
    outputs[0].run_records[-1].final_weights[-1] = 0.999
    (verdict,) = workloads.verdicts(workload, outputs, golden, "smoke")
    expect(verdict["status"] == "check", f"boundary weight off 1: {verdict}")
    print("ok   a weight leaving 1 on boundary fails its check")


def check_absent_hook() -> None:
    from labelgames import experiment, game

    import tracing

    saved = game._apply_sequential
    del game._apply_sequential, experiment._apply_sequential
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin()
        tracer.end()
        tracer.uninstall()
        absent = tracer.layers()["absent"]
    finally:
        game._apply_sequential = experiment._apply_sequential = saved
    for name in (
        "game.apply_sequential.s",
        "game.sequential_dialogues",
        "experiment.fallback_run_timesteps",
        "experiment.fast_path_ratio",
    ):
        expect(name in absent, f"{name} not reported absent: {absent}")
    print("ok   a hook whose target is gone is reported absent with its counts")


def bench_json(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def check_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, layers)):
            code, stdout = bench_json(
                ["--workload", name, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke"]
            )
            expect(code == 0, f"{name} trace {trace}: exit {code}\n{stdout}")
            result = json.loads(stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace {trace}: {stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if name == "boundary":
                    expect(m["experiment.fallback_run_timesteps"] == m["experiment.run_timesteps"] > 0, f"boundary counts {m}")
                elif name == "predict":
                    expect(m["analysis.mc_samples"] > 0 and m["dialogues_played"] == 0, f"predict counts {m}")
                else:
                    expect(m["experiment.fallback_run_timesteps"] == 0 and m["experiment.fast_path_ratio"] == 1.0, f"{name} counts {m}")
        print(f"ok   bench/run.py {name}: both metric sets as declared, counts as expected")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench_json(["--workload", "replicates", "--seed", "0", "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and "{" not in stdout, f"bare directory: exit {code}, stdout {stdout!r}")
    print("ok   without the labelgames sources the benchmark fails and prints no result")


def main() -> int:
    golden = workloads.load_golden()
    check_workloads(golden)
    check_tampering(golden)
    check_absent_hook()
    check_runner()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
