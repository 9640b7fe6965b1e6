"""The smoke ``predict`` workload runs under the benchmark's tracer.

``bench/tracing.py`` and ``bench/workloads.py`` are loaded by path, as
``test_bench_hooks.py`` and ``test_bench_golden.py`` load them.  Under the
tracer every hook must still resolve, every Monte Carlo sample must be
counted through the estimators' ``n_samples``, and the per-layer numbers
must serialise as strict JSON, as ``bench/run.py`` prints them.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str, monkeypatch):
    """The benchmark's module ``name``, loaded by path."""
    # Leave no bytecode cache in the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_traced_predict_workload_counts_every_sample(monkeypatch, tmp_path):
    tracing, workloads = load("tracing", monkeypatch), load("workloads", monkeypatch)
    shape = workloads.SHAPES["smoke"]["predict"]
    workload = workloads.WORKLOADS["predict"](0, shape, tmp_path)
    workload.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin()
        outputs = workload.run()
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    layers = tracer.layers()
    assert layers["absent"] == []
    assert layers["values"]["analysis.mc_samples"] == 3 * shape["boxes"] * shape["samples"]
    json.dumps(layers, allow_nan=False)
    verdicts = workloads.verdicts(workload, outputs, workloads.load_golden(), "smoke")
    assert [v["status"] for v in verdicts] == ["ok"] * shape["boxes"], verdicts
