"""The package names the benchmark scripts under bench/ reach for.

Removing one breaks only the traced benchmark run (`bench/run.py --trace
1`), which no other test starts, so these tests import the tracer as it is
and check that everything it and the run script patch still resolves. The
last test runs the in-memory path of the large-n workload through the
benchmark's own output checks.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from causalign import pipeline
from causalign.graph import Dag
from causalign.refine import RefineConfig
from causalign.scm import Dataset, forward_sample, sample_scm
from causalign.scoring import ScoreConfig, ScoreEngine

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module's names there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for layer in _bench_module("tracing").FUNCTIONS:
        module, attr = layer.split(".")
        assert callable(getattr(importlib.import_module(f"causalign.{module}"), attr, None)), layer


def test_run_script_hooks_exist():
    # bench/run.py swaps pipeline.refine to keep the trace
    assert callable(pipeline.refine)


def test_traced_engine_methods_exist():
    # bench/tracing.py wraps these ScoreEngine methods: node_term(engine,
    # node, parents) and refit_term by the same arguments, __init__ to
    # collect every engine, and cache_size() to count hits and entries
    for name in ("refit_term", "node_term", "__init__", "cache_size"):
        assert callable(getattr(ScoreEngine, name, None)), name
    for name in ("refit_term", "node_term"):
        assert list(inspect.signature(getattr(ScoreEngine, name)).parameters) == ["self", "node", "parents"]
    engine = ScoreEngine(Dataset(np.random.default_rng(0).normal(size=(20, 2))))
    before = engine.cache_size()
    engine.node_term(1, (0,))
    assert engine.cache_size() == before + 1


def test_check_rescore_and_config_reads_resolve():
    # bench/checks.py rescores the best graph with
    # ScoreEngine(dataset, score_config).score(dag).total, and bench/run.py
    # passes it PipelineConfig.refine.score
    score_config = pipeline.PipelineConfig().refine.score
    assert isinstance(score_config, ScoreConfig)
    data = Dataset(np.random.default_rng(1).normal(size=(20, 3)))
    dag = Dag(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int8))
    assert isinstance(ScoreEngine(data, score_config).score(dag).total, float)


def test_in_memory_run_passes_the_output_checks():
    # the large-n workload runs without a directory: bench/run.py keeps the
    # RefineTrace through _capture_refine and checks the run from memory,
    # replaying the trace to its final and best graphs
    rng = np.random.default_rng(3)
    scm = sample_scm("er", "rff", "gaussian", 4, rng)
    dataset = forward_sample(scm, 80, rng)
    config = pipeline.PipelineConfig(seed=3, refine=RefineConfig(n_steps=60, collect_k=10))
    checks = _bench_module("checks")
    captured, original = {}, pipeline.refine
    with _bench_module("run")._capture_refine(pipeline, captured):
        record = pipeline.run_pipeline(config, dataset=dataset, truth=scm.dag)
    assert pipeline.refine is original
    art = checks.from_memory(record, captured["trace"], dataset, scm.dag)
    assert checks.check_run(art, config.refine.score) == []
