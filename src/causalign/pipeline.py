"""End-to-end runs: data -> seed graph -> stochastic refinement ->
aligned training set -> supervised predictor -> edge probabilities.

A run writes a self-describing directory (config, seed graph, step trace,
collected graphs, training set, predictor, predictions, metrics, timings).
Reruns with the same config produce byte-identical prediction.csv and
trace.jsonl; timings are the only wall-clock-dependent artifact.

The master seed is split into independent per-stage streams (generation,
seed init, refinement, training-set sampling, model training), so
changing one stage's seed never perturbs another stage's draws.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import enum
import functools
import glob
import json
import math
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StageError, StructuralInputError
from .graph import Dag, MoveKind
from .io import (
    save_dataset,
    save_graph,
    save_instance_bundle,
    save_matrix,
    save_trace_jsonl,
    TrainingSetWriter,
    load_dataset,
    load_graph,
)
from .metrics import MetricReport, aggregate, evaluate
from .model import (
    TrainConfig,
    TrainingFeatures,
    generate_training_set,
    knn_score_predict,
    ordered_map,
    predict,
    train,
)
from .refine import RefineConfig, SeedMode, init_seed, load_seed_graph, refine
from .scm import CausalInstance, Dataset, ShiftSetting, SpecTriple, generate_instance
from .scoring import ScoreConfig, ScoreEngine
from .sim import RegressorConfig

__all__ = [
    "GeneratorConfig",
    "PipelineConfig",
    "RunRecord",
    "run_pipeline",
    "run_benchmark",
    "run_ablation_sparsity",
    "BENCHMARK_METHODS",
    "BENCHMARK_METRICS",
]

STAGES = ("full", "refine_only", "knn_only")
BENCHMARK_METHODS = ("seed_graph", "best_graph", "final")
BENCHMARK_METRICS = ("auroc", "auprc", "f1", "acc")


# ----------------------------------------------------------------------
# config (de)serialization, derived from the dataclass fields


def _encode(obj) -> dict:
    """A config dataclass as JSON-ready values: nested dataclasses become
    dicts, enums their values and tuples lists."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = _encode(value)
        elif isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _section(obj, where: str) -> dict:
    """A copy of one JSON config section; null (or absent) reads as empty."""
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    return dict(obj)


def _reject_unknown(keys: set, where: str) -> None:
    if keys:
        raise ConfigError(f"unknown config keys in {where!r}: {sorted(keys)}")


def _decode(cls, obj, where: str, json_names: dict | None = None, **given):
    """Build dataclass `cls` from one JSON section.

    Each key is a field name, or the JSON name `json_names` gives that
    field, and its value is coerced to the field's declared type. Fields
    in `given` were built by the caller and are not keys of the section.
    Missing keys keep the dataclass defaults; any other key is a
    ConfigError.
    """
    sec = _section(obj, where)
    types = typing.get_type_hints(cls)
    names = json_names or {}
    fields = {names.get(f.name, f.name): f.name for f in dataclasses.fields(cls) if f.name not in given}
    _reject_unknown(set(sec) - set(fields), where)
    for key, value in sec.items():
        try:
            given[fields[key]] = _coerce(types[fields[key]], value, f"{where}.{key}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value for {where}.{key}: {exc}") from exc
    return cls(**given)


def _coerce(tp, value, where: str):
    """`value` as declared type `tp`: `X | None` keeps None, dataclasses
    decode as sections, tuples convert item by item, an int takes only an
    integral number and a float any finite number (neither a JSON
    boolean; json reads NaN and Infinity), and anything else (strings,
    enums) converts by calling the type."""
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _decode(tp, value, where)
    if typing.get_origin(tp) is tuple:
        return tuple(_coerce(t, v, where) for t, v in zip(typing.get_args(tp), value, strict=True))
    if tp is int and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise TypeError(f"expected an integer, got {value!r}")
    if tp is float and (
        isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
    ):
        raise TypeError(f"expected a finite number, got {value!r}")
    return tp(value)


@dataclass(frozen=True)
class GeneratorConfig:
    mechanism: str = "linear"
    noise: str = "gaussian"
    graph_model: str = "er"
    d: int = 10
    n: int = 200
    expected_edges: float | None = None
    attach_m: int = 1
    # None -> sample_scm's documented defaults
    weight_range: tuple[float, float] | None = None
    noise_scale_range: tuple[float, float] | None = None

    def __post_init__(self):
        for name, low in (("d", 2), ("n", 1), ("attach_m", 1)):
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"generator {name} must be >= {low}, got {value}")
        if self.expected_edges is not None and not (
            math.isfinite(self.expected_edges) and self.expected_edges >= 0
        ):
            raise ConfigError(f"generator expected_edges must be finite and >= 0, got {self.expected_edges}")
        for name in ("weight_range", "noise_scale_range"):
            bounds = getattr(self, name)
            if bounds is not None and not bounds[0] <= bounds[1]:
                raise ConfigError(f"generator {name} must be [low, high] with low <= high, got {list(bounds)}")
        if self.noise_scale_range is not None and not self.noise_scale_range[0] >= 0:
            raise ConfigError(f"generator noise_scale_range low must be >= 0, got {self.noise_scale_range[0]}")
        self.triple()  # validates the mechanism, noise and graph names

    def triple(self) -> SpecTriple:
        return SpecTriple.parse(self.mechanism, self.noise, self.graph_model)

    def scm_kwargs(self) -> dict:
        out: dict = {"expected_edges": self.expected_edges, "attach_m": self.attach_m}
        if self.weight_range is not None:
            out["weight_range"] = tuple(self.weight_range)
        if self.noise_scale_range is not None:
            out["noise_scale_range"] = tuple(self.noise_scale_range)
        return out


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    out_dir: str | None = None
    stages: str = "full"
    threshold: float = 0.5
    data_path: str | None = None
    truth_path: str | None = None
    generator: GeneratorConfig | None = None
    refine: RefineConfig = field(default_factory=RefineConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.stages not in STAGES:
            raise ConfigError(f"stages must be one of {STAGES}, got {self.stages!r}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """The config.json layout: the dataclass tree with `out_dir` and
        `seed_graph_path` named `out` and `seed_graph`, the data paths
        grouped under `data` (present when either is set), `score` and
        `regressor` as top-level sections, and `generator` only when set."""
        out = _encode(self)
        out["out"] = out.pop("out_dir")
        data = {"path": out.pop("data_path"), "truth": out.pop("truth_path")}
        if data["path"] is not None or data["truth"] is not None:
            out["data"] = data
        if self.generator is None:
            del out["generator"]
        refine_sec = out["refine"]
        refine_sec["seed_graph"] = refine_sec.pop("seed_graph_path")
        out["score"] = refine_sec.pop("score")
        out["regressor"] = out["score"].pop("regressor")
        return out

    @staticmethod
    def from_dict(obj: dict) -> "PipelineConfig":
        """Inverse of to_dict. A missing key or a null section keeps the
        dataclass default; an unknown key in any section is a ConfigError."""
        top = _section(obj, "config")
        data = _section(top.pop("data", None), "config.data")
        _reject_unknown(set(data) - {"path", "truth"}, "config.data")
        regressor = _decode(RegressorConfig, top.pop("regressor", None), "config.regressor")
        score = _decode(ScoreConfig, top.pop("score", None), "config.score", regressor=regressor)
        refine_cfg = _decode(
            RefineConfig,
            top.pop("refine", None),
            "config.refine",
            {"seed_graph_path": "seed_graph"},
            score=score,
        )
        return _decode(
            PipelineConfig,
            top,
            "config",
            {"out_dir": "out"},
            data_path=data.get("path"),
            truth_path=data.get("truth"),
            refine=refine_cfg,
        )

    @staticmethod
    def from_json_file(path: str) -> "PipelineConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: top-level config must be an object")
        return PipelineConfig.from_dict(obj)


@dataclass
class RunRecord:
    out_dir: str | None
    status: str
    failed_stage: str | None
    config: dict
    timings: dict
    paths: dict
    seed_score: dict | None = None
    best_score: dict | None = None
    collected_stats: dict | None = None
    refine_stats: dict | None = None
    collected_count: int | None = None
    training_set_size: int | None = None
    metrics: dict | None = None
    prediction: np.ndarray | None = None

    def to_json(self) -> dict:
        """Every field but the in-memory prediction matrix."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "prediction"}


def _derive_streams(seed: int) -> dict:
    """Independent per-stage generators from one master seed."""
    children = np.random.SeedSequence(seed).spawn(5)
    names = ("generate", "init_seed", "refine", "trainset", "train")
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


def _adj_float(dag: Dag) -> np.ndarray:
    return dag.adjacency.astype(float)


def run_pipeline(
    config: PipelineConfig,
    dataset: Dataset | None = None,
    truth: Dag | None = None,
) -> RunRecord:
    """Check the run's inputs, execute the configured stages and persist
    the run directory.

    Data resolution order: explicit `dataset` argument, then
    config.data_path, then config.generator, whose instance the load_data
    stage draws and which also supplies the ground truth. An explicit
    `truth` argument overrides config.truth_path and the generated graph.
    Every outside input is read and checked before any stage, and before
    the run directory exists (see _read_inputs): a bad one raises its own
    error class (ConfigError, DataFormatError, StructuralInputError or
    DegreeCapError), not StageError. Any stage failure persists the
    partial record and re-raises as StageError with the stage name.

    The stages run with one BLAS thread: their matrices are small, so a
    second thread burns CPU without shortening the run. The caller's
    thread count is restored on return, errors included. A `full` run
    draws and featurizes its training set on every core this process may
    use, in forked workers that inherit the one BLAS thread; inside a
    pool worker (a `run_benchmark` run with threads > 1) it stays in its
    own process. The outputs are byte-identical either way.
    """
    dataset, truth, seed_dag = _read_inputs(config, dataset, truth)
    with _one_blas_thread():
        return _run_stages(config, dataset, truth, seed_dag)


def _read_inputs(
    config: PipelineConfig, dataset: Dataset | None = None, truth: Dag | None = None
) -> tuple[Dataset | None, Dag | None, Dag | None]:
    """Read and check every outside input of a run, so that a bad one
    fails before any stage: a `full` or `knn_only` run needs a search of
    at least one step, since it reads the collected graphs; the data come
    from `dataset`, config.data_path or config.generator and have at least
    two variables; config.truth_path is the truth of config.data_path's
    file (a generated instance carries its own); the truth and a from_file
    seed graph have the data's d; the seed graph respects the cap.

    Returns (dataset, truth, seed graph): the dataset is None when the
    load_data stage draws it from config.generator, the truth None when
    there is none yet, and the seed graph None unless refine.seed_mode is
    from_file."""
    stage = {"knn_only": "knn_select", "full": "generate_training_set"}.get(config.stages)
    if stage is not None and config.refine.n_steps == 0:
        raise ConfigError(f"refine.n_steps=0 collects no graphs, and stages={config.stages!r} needs them in {stage}")
    if config.truth_path and not config.data_path:
        raise ConfigError("data.truth needs data.path: a generated instance carries its own truth")
    if dataset is None and config.data_path:
        dataset = load_dataset(config.data_path)
    if dataset is None and config.generator is None:
        raise ConfigError("no data source: pass a dataset, or give data.path or a generator section")
    if dataset is not None and dataset.d < 2:
        raise ConfigError(f"need at least 2 variables, got d={dataset.d}")
    d = config.generator.d if dataset is None else dataset.d
    if truth is None and config.truth_path:
        truth = load_graph(config.truth_path)
    if truth is not None and truth.d != d:
        raise StructuralInputError(f"truth graph has d={truth.d} but the data have d={d}")
    seed_dag = None
    if config.refine.seed_mode == SeedMode.FROM_FILE:
        seed_dag = load_seed_graph(config.refine.seed_graph_path, d, config.refine.score.regressor.max_in_degree)
    return dataset, truth, seed_dag


def _run_stages(config: PipelineConfig, dataset: Dataset | None, truth: Dag | None, seed_dag: Dag | None) -> RunRecord:
    run = _Run(config)
    record = run.record
    streams = _derive_streams(config.seed)

    with run.stage("load_data"):
        if dataset is None:
            g = config.generator
            seed = int(streams["generate"].integers(0, 2**63 - 1))
            instance = generate_instance(g.triple(), g.d, g.n, seed, **g.scm_kwargs())
            run.save("data", "data.csv", save_dataset, instance.data)
            dataset = instance.data
            truth = instance.scm.dag if truth is None else truth
        if truth is not None:
            run.save("truth_graph", "truth_graph.csv", save_graph, truth)

    with run.stage("init_seed"):
        engine = ScoreEngine(dataset, config.refine.score)
        if seed_dag is None:
            seed_dag = init_seed(engine, config.refine.seed_mode, streams["init_seed"])
        run.save("seed_graph", "seed_graph.csv", save_graph, seed_dag)

    with run.stage("refine"):
        trace = refine(engine, seed_dag, config.refine, streams["refine"])
        record.seed_score = trace.seed_score.to_json()
        record.best_score = trace.best_score.to_json()
        record.collected_count = len(trace.collected)
        if trace.collected:
            coll_scores = trace.collected_scores
            record.collected_stats = {
                "mean_ad": float(np.mean([s.ad for s in coll_scores])),
                "mean_sparsity": float(np.mean([s.sparsity for s in coll_scores])),
                "mean_total": float(np.mean([s.total for s in coll_scores])),
            }
        if trace.steps:
            by_kind = {kind.value: {"proposed": 0, "accepted": 0} for kind in MoveKind}
            for step in trace.steps:
                if step.move is not None:
                    counts = by_kind[step.move.kind.value]
                    counts["proposed"] += 1
                    counts["accepted"] += step.accepted
            record.refine_stats = {
                "acceptance_rate": sum(step.accepted for step in trace.steps) / len(trace.steps),
                "distinct_collected": len(set(trace.collected)),
                "moves_by_kind": by_kind,
                "temperature": trace.temperature,
                "sparsity_weight": engine.sparsity_weight,
                "cache_entries": engine.cache_size(),
            }
        run.save("trace", "trace.jsonl", save_trace_jsonl, trace.steps)
        run.save("best_graph", "best_graph.csv", save_graph, trace.best_dag)
        run.save("graphs", "graphs", _save_collected, trace.collected)
        if config.stages == "refine_only":
            run.save_prediction(_adj_float(trace.best_dag))

    if config.stages == "knn_only":
        with run.stage("knn_select"):
            knn_dag = knn_score_predict(trace.collected, [s.total for s in trace.collected_scores])
            run.save("knn_graph", "knn_graph.csv", save_graph, knn_dag)
            run.save_prediction(_adj_float(knn_dag))
    elif config.stages == "full":
        with run.stage("generate_training_set"):
            writer = None
            if config.out_dir:
                writer = TrainingSetWriter(os.path.join(config.out_dir, "trainset"), dataset.n, dataset.d)
            features = TrainingFeatures(dataset.d, writer)
            try:
                generate_training_set(trace.collected, engine, streams["trainset"], features)
            finally:
                if writer is not None and writer.count:  # started: its directory exists
                    record.paths["trainset"] = writer.out_dir
            record.training_set_size = features.count
            del engine  # train and predict need neither its cache nor its column expansions
        with run.stage("train"):
            train_cfg = config.train
            if train_cfg.seed is None:
                derived = int(streams["train"].integers(0, 2**63 - 1))
                train_cfg = dataclasses.replace(train_cfg, seed=derived)
            predictor = train(features, train_cfg)
            run.save("predictor", "predictor.json", _write_text, predictor.to_json())
        with run.stage("predict"):
            run.save_prediction(predict(predictor, dataset))

    if truth is not None:
        with run.stage("evaluate"):
            reports = {
                "seed_graph": evaluate(_adj_float(seed_dag), truth, config.threshold),
                "best_graph": evaluate(_adj_float(trace.best_dag), truth, config.threshold),
                "final": evaluate(record.prediction, truth, config.threshold),
            }
            record.metrics = {name: rep.to_json() for name, rep in reports.items()}
            run.save("metrics", "metrics.json", _write_json, record.metrics)

    run.persist()
    return record


class _Run:
    """One run's record and directory. Each stage is timed, its writes
    included; a failing stage marks the record, persists it and re-raises
    as StageError. Files are written only when the run has a directory."""

    def __init__(self, config: PipelineConfig):
        self.record = RunRecord(
            out_dir=config.out_dir,
            status="ok",
            failed_stage=None,
            config=config.to_dict(),
            timings={},
            paths={},
        )
        self.threshold = config.threshold
        if config.out_dir:
            os.makedirs(config.out_dir, exist_ok=True)
        self.save("config", "config.json", _write_json, self.record.config)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the stage `name` and record its time when it finishes, so
        timings list the finished stages in the order they ran. A failing
        stage records no time: it marks the record, persists it and
        re-raises as StageError."""
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:
            self.record.status = "error"
            self.record.failed_stage = name
            self.persist()
            raise StageError(name, exc) from exc
        self.record.timings[name] = time.perf_counter() - t0

    def save(self, key: str, filename: str, writer, obj) -> None:
        """writer(obj, path) for the file `filename` of the run directory,
        recorded as paths[key]; nothing without a directory."""
        if self.record.out_dir:
            path = os.path.join(self.record.out_dir, filename)
            writer(obj, path)
            self.record.paths[key] = path

    def save_prediction(self, prediction: np.ndarray) -> None:
        """Keep the edge probabilities and save them with their
        thresholded 0/1 matrix (zero diagonal)."""
        self.record.prediction = prediction
        self.save("prediction", "prediction.csv", save_matrix, prediction)
        binary = (prediction >= self.threshold).astype(int)
        np.fill_diagonal(binary, 0)
        self.save("prediction_binary", "prediction_binary.csv", _write_int_rows, binary)

    def persist(self) -> None:
        """timings.json and run_record.json, as they stand."""
        if self.record.out_dir:
            _write_json(self.record.timings, os.path.join(self.record.out_dir, "timings.json"))
            _write_json(self.record.to_json(), os.path.join(self.record.out_dir, "run_record.json"))


def _write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_int_rows(matrix: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def _save_collected(graphs: list[Dag], directory: str) -> None:
    """collected_<k>.csv for each graph, k zero-padded to one width (at
    least 3 digits) so the names sort in run order."""
    os.makedirs(directory, exist_ok=True)
    width = max(3, len(str(len(graphs) - 1)))
    for k, g in enumerate(graphs):
        save_graph(g, os.path.join(directory, f"collected_{k:0{width}d}.csv"))


# ----------------------------------------------------------------------
# benchmark and ablation drivers


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (scipy-openblas64 build), or None when
    numpy links some other BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not found:
        return None
    # numpy has loaded the library already, so this returns the same handle
    lib = ctypes.CDLL(found[0])
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's
    count; without OpenBLAS it does nothing."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _run_suite(
    config: PipelineConfig,
    setting: ShiftSetting | str,
    instances: int,
    out_dir: str,
    threads: int,
    arms: list[tuple[str, PipelineConfig]],
) -> list[tuple[dict, RunRecord]]:
    """Run every (instance, arm) of a suite and list the failed runs in
    out_dir/errors.json.

    `arms` holds (name, config) pairs that all take instance i's seed, the
    i-th draw from config.seed, so every arm sees the same data. With one
    arm a run writes instances/### and the name goes unused; with several
    it writes instances/###_<name>, and its table and error rows carry the
    name in an `arm` column. Returns the finished runs in order as
    (key, record), where key holds the run's instance, seed, setting and
    (with several arms) arm columns.

    With threads > 1 and more than one run, the runs go to
    min(threads, runs) forked workers (ordered_map) while this process
    waits; otherwise they run here. A dying worker fails only its run.
    Every arm's inputs are checked (_read_inputs) before any run starts."""
    if config.generator is None:
        raise ConfigError("benchmark and ablate require a generator section in the config")
    if config.data_path or config.truth_path:
        raise ConfigError("benchmark and ablate generate every instance: remove data.path and data.truth from the config")
    if instances < 1:
        raise ConfigError("instances must be >= 1")
    for _, arm_config in arms:
        _read_inputs(arm_config)
    try:
        setting_label = ShiftSetting(setting).value
    except ValueError as exc:
        raise ConfigError(f"unknown shift setting {setting!r}") from exc
    os.makedirs(out_dir, exist_ok=True)
    seeds = np.random.default_rng(config.seed).integers(0, 2**63 - 1, size=instances)
    keys, configs = [], []
    for i, seed in enumerate(seeds.tolist()):
        for name, arm_config in arms:
            key = {"instance": i, "seed": seed, "setting": setting_label}
            run_dir = f"{i:03d}"
            if len(arms) > 1:
                key["arm"] = name
                run_dir += f"_{name}"
            keys.append(key)
            configs.append(
                dataclasses.replace(arm_config, seed=seed, out_dir=os.path.join(out_dir, "instances", run_dir))
            )

    results: list[RunRecord | Exception] = []
    ordered_map(lambda k: run_pipeline(configs[k]), len(configs), threads, lambda k, res: results.append(res))
    finished, errors = [], []
    for key, res in zip(keys, results):
        if isinstance(res, Exception):
            error = {k: v for k, v in key.items() if k in ("instance", "arm")}
            error["stage"] = res.stage if isinstance(res, StageError) else None
            error["error"] = str(res)
            errors.append(error)
        else:
            finished.append((key, res))
    with open(os.path.join(out_dir, "errors.json"), "w") as fh:
        json.dump(errors, fh, indent=2)
    return finished


def run_benchmark(
    config: PipelineConfig,
    setting: ShiftSetting | str,
    instances: int,
    out_dir: str,
    threads: int = 1,
) -> list[dict]:
    """Generate `instances` test instances from the config's generator,
    run the pipeline on each, and write per-instance and aggregate tables.

    results.csv has one row per (instance, method, metric), with an empty
    value where the metric is undefined (AUROC and AUPRC on an edgeless
    truth); summary.csv gives, per method and metric, the number `n` of
    defined values over successful instances and their mean and sample
    std (ddof=1, 0.0 for a single value). Failures are listed in
    errors.json and excluded from both tables. Returns the summary rows.
    """
    finished = _run_suite(config, setting, instances, out_dir, threads, [("", config)])
    rows = [
        {**key, "method": method, "metric": metric, "value": record.metrics[method][metric]}
        for key, record in finished
        for method in BENCHMARK_METHODS
        if method in (record.metrics or {})
        for metric in BENCHMARK_METRICS
    ]
    _write_csv(
        os.path.join(out_dir, "results.csv"),
        rows,
        ["instance", "seed", "setting", "method", "metric", "value"],
    )
    summary: list[dict] = []
    for method in BENCHMARK_METHODS:
        reports = [MetricReport(**rec.metrics[method]) for _, rec in finished if method in (rec.metrics or {})]
        if reports:  # so a run finished, and its key holds the validated setting
            for metric, stats in aggregate(reports).items():
                summary.append({"setting": finished[0][0]["setting"], "method": method, "metric": metric, **stats})
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        summary,
        ["setting", "method", "metric", "n", "mean", "std"],
    )
    return summary


def run_ablation_sparsity(
    config: PipelineConfig,
    setting: ShiftSetting | str,
    instances: int,
    out_dir: str,
    threads: int = 1,
) -> list[dict]:
    """Sparsity-penalty ablation: every instance runs twice, once with the
    configured lambda and once with lambda = 0, sharing the instance seed
    so both arms see identical data. Emits ablation.csv with score
    diagnostics (ad, sparsity, total averaged over collected graphs),
    final AUROC, and the mean collected edge count; failures are listed
    in errors.json and left out of the table."""
    score = dataclasses.replace(config.refine.score, sparsity_weight=0.0)
    unpenalized = dataclasses.replace(config, refine=dataclasses.replace(config.refine, score=score))
    arms = [("penalized", config), ("unpenalized", unpenalized)]
    rows = []
    for key, record in _run_suite(config, setting, instances, out_dir, threads, arms):
        stats = record.collected_stats or {}
        rows.append(
            {
                **key,
                "lambda": (record.best_score or {}).get("lambda"),
                "ad": stats.get("mean_ad"),
                "total": stats.get("mean_total"),
                "auroc": (record.metrics or {}).get("final", {}).get("auroc"),
                "collected_mean_edges": stats.get("mean_sparsity"),
            }
        )
    _write_csv(
        os.path.join(out_dir, "ablation.csv"),
        rows,
        [
            "instance",
            "seed",
            "setting",
            "arm",
            "lambda",
            "ad",
            "total",
            "auroc",
            "collected_mean_edges",
        ],
    )
    return rows


def generate_instances(
    spec: SpecTriple,
    d: int,
    n: int,
    count: int,
    seed: int,
    **scm_kwargs,
) -> list[CausalInstance]:
    """Standalone instance generation used by the CLI's generate command:
    `count` instances, each from its own child seed of `seed`."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return [generate_instance(spec, d, n, int(rng.integers(0, 2**63 - 1)), **scm_kwargs) for _ in range(count)]


def save_instances(instances: list[CausalInstance], out_dir: str, prefix: str = "instance") -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, inst in enumerate(instances):
        save_instance_bundle(inst, os.path.join(out_dir, f"{prefix}_{i:03d}"))
