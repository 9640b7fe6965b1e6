"""Record the reference digests of every workload's outputs in golden.json.

    python3 bench/record_golden.py

Runs each workload in this process at the full shape for seeds 0-31, and
at the smoke shape for seed 0, and keeps per-file digests for seed 0.
It refuses to record an output that fails a check.  Record on the commit
whose outputs are the reference; a change that alters output bytes on
purpose records them again, as its own change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FULL_SEEDS = range(32)


def record(size: str, name: str, seed: int) -> tuple[list[str], dict]:
    workdir = ROOT / ".bench_out" / "work" / f"golden-{size}-{name}-{seed}"
    workload = workloads.WORKLOADS[name](seed, workloads.SHAPES[size][name], workdir)
    workload.prepare()
    digests, files = [], {}
    for index, output in enumerate(workload.run()):
        if isinstance(output, Exception):
            raise SystemExit(f"{size} {name} seed {seed}: operation {index} raised {output!r}")
        problems, op_digest, parts = workload.check_op(index, output)
        if problems:
            raise SystemExit(f"{size} {name} seed {seed}: {problems}")
        digests.append(op_digest)
        files.update(parts)
    shutil.rmtree(workdir, ignore_errors=True)
    return digests, files


def main() -> int:
    golden: dict = {"full": {}, "smoke": {}, "files": {"full": {}, "smoke": {}}}
    plan = [("smoke", 0)] + [("full", seed) for seed in FULL_SEEDS]
    for size, seed in plan:
        for name in workloads.WORKLOADS:
            digests, files = record(size, name, seed)
            golden[size].setdefault(name, {})[str(seed)] = digests
            if seed == 0 and files:
                golden["files"][size].setdefault(name, {})["0"] = files
            print(f"{size} {name} seed {seed}: {digests[0]}{' ...' if len(digests) > 1 else ''}", flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
