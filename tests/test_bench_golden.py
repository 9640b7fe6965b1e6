"""The benchmark's four workloads give their reference bytes at smoke size.

``bench/workloads.py`` is loaded by path, as ``test_bench_hooks.py`` loads
the tracer, and each workload runs once at the ``smoke`` shape with seed
0 in a temporary directory.  Every operation must pass its checks and
match its digest in ``bench/golden.json``, so a change in output bytes
fails here and not only in a benchmark run.  Nothing under ``bench/`` is
written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode cache in the benchmark's directory
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["replicates", "crowd", "boundary", "predict"])
def test_smoke_workload_matches_its_golden_digests(workloads, name, tmp_path):
    shape = workloads.SHAPES["smoke"][name]
    workload = workloads.WORKLOADS[name](0, shape, tmp_path / name)
    workload.prepare()
    outputs = workload.run()
    verdicts = workloads.verdicts(workload, outputs, workloads.load_golden(), "smoke")
    assert verdicts and [v["status"] for v in verdicts] == ["ok"] * len(verdicts), verdicts
