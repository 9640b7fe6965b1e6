"""The benchmark's traced run finds every library function it hooks.

A traced run differs from an untraced one only by ``bench/tracing.py``'s
hooks; a renamed function, or a counted parameter that moved, shows up
there as an ``absent`` metric.  The tracer is loaded by path, installed
and removed again, and nothing is run under it.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_hook_and_counted_argument_is_found(monkeypatch):
    # Leave no bytecode cache in the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    from labelgames import cli, config, experiment

    originals = (cli.main, config.load_config, experiment._stacked_timestep)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
        assert cli.main is not originals[0]
    finally:
        tracer.uninstall()
    assert (cli.main, config.load_config, experiment._stacked_timestep) == originals
