"""Outside-in layer tracing for the traced benchmark run.

The program is not changed: while a ``Tracer`` is installed, every attribute
of a loaded ``causalign`` module that refers to a traced public function (the
defining module's name and every ``from .x import f`` binding) points at a
timing wrapper, and the traced ``ScoreEngine`` methods are wrapped on the
class. Leaving the context restores the originals. Layer names are module
names; each ``.s`` figure is inclusive wall time inside the call.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from collections import defaultdict

from causalign.scoring import ScoreEngine

# traced public functions, named <module>.<function> after causalign.<module>
FUNCTIONS = (
    "graph.feasible_moves",
    "graph.apply_move",
    "refine.refine",
    "refine.greedy_hill_climb",
    "sim.fit_node",
    "sim.predict_node",
    "sim.sample_from_fitted",
    "model.generate_training_set",
    "model.featurize_all",
    "model.train",
    "model.predict",
    "model.knn_score_predict",
    "io.save_training_set",
    "io.save_trace_jsonl",
    "io.save_graph",
    "io.save_dataset",
    "metrics.evaluate",
    "pipeline.run_pipeline",
)


class Tracer:
    """Per-layer call counts and inclusive wall seconds for one round."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.node_term_hits = 0
        self.refine_steps = 0
        self.refine_accepted = 0
        self.mlp_s = 0.0
        self.mlp_epochs = 0
        self.instance_s: list[float] = []
        self.untimed_s = 0.0
        self.engines: list[ScoreEngine] = []

    def _timed(self, layer: str, fn, after=None):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.calls[layer] += 1
            self.secs[layer] += elapsed
            if after is not None:
                after(result, elapsed)
            return result

        return traced

    def _after_refine(self, trace, elapsed) -> None:
        self.refine_steps += len(trace.steps)
        self.refine_accepted += sum(step.accepted for step in trace.steps)

    def _after_run_pipeline(self, record, elapsed) -> None:
        # wall time no stage accounts for: persistence outside the stage
        # timers, config and record writes
        self.instance_s.append(elapsed)
        self.untimed_s += elapsed - sum(record.timings.values())

    def _traced_train(self, fn):
        def traced(*args, **kwargs):
            featurize_before = self.secs["model.featurize_all"]
            t0 = time.perf_counter()
            predictor = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.mlp_s += elapsed - (self.secs["model.featurize_all"] - featurize_before)
            self.mlp_epochs += len(predictor.epoch_losses)
            return predictor

        return traced

    def _traced_node_term(self, fn):
        def traced(engine, node, parents):
            before = engine.cache_size()
            t0 = time.perf_counter()
            term = fn(engine, node, parents)
            self.secs["scoring.node_term"] += time.perf_counter() - t0
            self.calls["scoring.node_term"] += 1
            # a miss always stores a new (node, parents) entry
            self.node_term_hits += engine.cache_size() == before
            return term

        return traced

    def _traced_init(self, fn):
        def traced(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            self.engines.append(engine)

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, replacement):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "causalign"]
            for layer in FUNCTIONS:
                module, attr = layer.split(".")
                # by import path: the package re-exports some functions
                # under their module's name (causalign.refine is a function)
                original = getattr(importlib.import_module(f"causalign.{module}"), attr)
                if layer == "model.train":
                    wrapper = self._traced_train(original)
                else:
                    after = {
                        "refine.refine": self._after_refine,
                        "pipeline.run_pipeline": self._after_run_pipeline,
                    }.get(layer)
                    wrapper = self._timed(layer, original, after)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, name, wrapper)
            patch(ScoreEngine, "refit_term", self._timed("scoring.refit_term", ScoreEngine.refit_term))
            patch(ScoreEngine, "node_term", self._traced_node_term(ScoreEngine.node_term))
            patch(ScoreEngine, "__init__", self._traced_init(ScoreEngine.__init__))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the round; the driver adds the ones it
        measures itself (bytes written, child CPU, parallel efficiency)."""
        out: dict[str, float] = {}

        def calls_and_secs(layer):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.secs[layer]

        for layer in ("graph.feasible_moves", "graph.apply_move"):
            calls_and_secs(layer)
        out["refine.refine.s"] = self.secs["refine.refine"]
        out["refine.steps"] = self.refine_steps
        out["refine.accepted"] = self.refine_accepted
        out["refine.greedy_hill_climb.s"] = self.secs["refine.greedy_hill_climb"]
        calls_and_secs("scoring.refit_term")
        calls_and_secs("scoring.node_term")
        out["scoring.node_term.hits"] = self.node_term_hits
        out["scoring.cache_entries"] = sum(engine.cache_size() for engine in self.engines)
        for layer in ("sim.fit_node", "sim.predict_node", "sim.sample_from_fitted"):
            calls_and_secs(layer)
        out["model.generate_training_set.s"] = self.secs["model.generate_training_set"]
        calls_and_secs("model.featurize_all")
        out["model.predict.s"] = self.secs["model.predict"]
        out["model.knn_score_predict.s"] = self.secs["model.knn_score_predict"]
        out["model.mlp.s"] = self.mlp_s
        out["model.mlp_epoch.s"] = self.mlp_s / self.mlp_epochs if self.mlp_epochs else 0.0
        out["io.save_training_set.s"] = self.secs["io.save_training_set"]
        out["io.save_trace_jsonl.s"] = self.secs["io.save_trace_jsonl"]
        calls_and_secs("io.save_graph")
        calls_and_secs("io.save_dataset")
        calls_and_secs("metrics.evaluate")
        out["pipeline.untimed.s"] = self.untimed_s
        out["pipeline.instance.s"] = statistics.median(self.instance_s) if self.instance_s else 0.0
        return out
