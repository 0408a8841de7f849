"""The package names the benchmark scripts under bench/ reach for.

Removing one breaks only the traced benchmark run (`bench/run.py --trace
1`), which no other test starts, so these tests import the tracer as it is
and check that everything it and the run script patch still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

from causalign import pipeline

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for layer in _tracing_module().FUNCTIONS:
        module, attr = layer.split(".")
        assert callable(getattr(importlib.import_module(f"causalign.{module}"), attr, None)), layer


def test_run_script_hooks_exist():
    # bench/run.py swaps pipeline.refine to keep the trace, and the suite
    # workload's pool runs pipeline._run_one
    assert callable(pipeline.refine)
    assert callable(pipeline._run_one)
