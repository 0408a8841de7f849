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

import ctypes
import dataclasses
import enum
import glob
import json
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StageError
from .graph import Dag
from .io import (
    save_dataset,
    save_graph,
    save_instance_bundle,
    save_matrix,
    save_trace_jsonl,
    save_training_set,
    load_dataset,
    load_graph,
)
from .metrics import MetricReport, aggregate, evaluate
from .model import (
    TrainConfig,
    TrainingSet,
    generate_training_set,
    knn_score_predict,
    predict,
    train,
)
from .refine import RefineConfig, SeedMode, best_scoring, init_seed, refine
from .scm import CausalInstance, Dataset, ShiftSetting, SpecTriple, forward_sample, sample_scm
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
    decode as sections, tuples convert item by item, a bool takes only a
    JSON boolean, an int only an integral number and a float any number
    (neither a boolean), and anything else (strings, enums) converts by
    calling the type."""
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _decode(tp, value, where)
    if typing.get_origin(tp) is tuple:
        return tuple(_coerce(t, v, where) for t, v in zip(typing.get_args(tp), value, strict=True))
    if tp is bool and not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    if tp is int and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise TypeError(f"expected an integer, got {value!r}")
    if tp is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise TypeError(f"expected a number, got {value!r}")
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
        if self.d < 2:
            raise ConfigError(f"generator d must be >= 2, got {self.d}")
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
    noise_mode: str = "empirical"
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
        if self.noise_mode not in ("parametric", "empirical"):
            raise ConfigError(f"unknown noise_mode {self.noise_mode!r}")

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
    """Execute the configured stages and persist the run directory.

    Data resolution order: explicit `dataset` argument, then
    config.data_path, then config.generator (which also supplies the
    ground truth). Any stage failure persists the partial record and
    re-raises as StageError with the stage name. Structure learning needs
    at least two variables: a passed-in dataset with fewer is a
    ConfigError raised before any stage runs, and one read from
    config.data_path fails the load_data stage.
    """
    if dataset is not None:
        _require_two_variables(dataset)
    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "graphs"), exist_ok=True)
    record = RunRecord(
        out_dir=out_dir,
        status="ok",
        failed_stage=None,
        config=config.to_dict(),
        timings={},
        paths={},
    )
    if out_dir:
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(record.config, fh, indent=2, sort_keys=True)
        record.paths["config"] = cfg_path

    streams = _derive_streams(config.seed)
    stage = "load_data"
    try:
        t0 = time.perf_counter()
        if dataset is None:
            if config.data_path:
                dataset = load_dataset(config.data_path)
                _require_two_variables(dataset)
                if truth is None and config.truth_path:
                    truth = load_graph(config.truth_path)
            elif config.generator is not None:
                g = config.generator
                gen_seed = int(streams["generate"].integers(0, 2**63 - 1))
                gen_rng = np.random.default_rng(gen_seed)
                scm = sample_scm(
                    g.graph_model,
                    g.mechanism,
                    g.noise,
                    g.d,
                    gen_rng,
                    **g.scm_kwargs(),
                )
                dataset = forward_sample(scm, g.n, gen_rng)
                if truth is None:
                    truth = scm.dag
                if out_dir:
                    save_dataset(dataset, os.path.join(out_dir, "data.csv"))
            else:
                raise ConfigError("no data source: pass a dataset, data path, or generator")
        elif truth is None and config.truth_path:
            truth = load_graph(config.truth_path)
        if truth is not None and out_dir:
            truth_path = os.path.join(out_dir, "truth_graph.csv")
            save_graph(truth, truth_path)
            record.paths["truth_graph"] = truth_path
        record.timings[stage] = time.perf_counter() - t0

        stage = "init_seed"
        t0 = time.perf_counter()
        engine = ScoreEngine(dataset, config.refine.score)
        seed_dag = init_seed(
            dataset,
            config.refine.seed_mode,
            streams["init_seed"],
            score_config=config.refine.score,
            seed_graph_path=config.refine.seed_graph_path,
            expected_edges=config.refine.seed_expected_edges,
            max_rounds=config.refine.greedy_max_rounds,
            engine=engine,
        )
        record.timings[stage] = time.perf_counter() - t0
        if out_dir:
            p = os.path.join(out_dir, "seed_graph.csv")
            save_graph(seed_dag, p)
            record.paths["seed_graph"] = p

        stage = "refine"
        t0 = time.perf_counter()
        trace = refine(dataset, seed_dag, config.refine, streams["refine"], engine=engine)
        record.timings[stage] = time.perf_counter() - t0
        best_dag, best_score = best_scoring(trace)
        record.seed_score = trace.seed_score.to_json()
        record.best_score = best_score.to_json()
        record.collected_count = len(trace.collected)
        coll_scores = [engine.score(g) for g in trace.collected]
        record.collected_stats = {
            "mean_ad": float(np.mean([s.ad for s in coll_scores])),
            "mean_sparsity": float(np.mean([s.sparsity for s in coll_scores])),
            "mean_total": float(np.mean([s.total for s in coll_scores])),
        }
        if out_dir:
            p = os.path.join(out_dir, "trace.jsonl")
            save_trace_jsonl(trace.steps, p)
            record.paths["trace"] = p
            p = os.path.join(out_dir, "best_graph.csv")
            save_graph(best_dag, p)
            record.paths["best_graph"] = p
            for k, g in enumerate(trace.collected):
                save_graph(g, os.path.join(out_dir, "graphs", f"collected_{k:03d}.csv"))
            record.paths["graphs"] = os.path.join(out_dir, "graphs")

        prediction: np.ndarray
        training_set: TrainingSet | None = None
        if config.stages == "refine_only":
            prediction = _adj_float(best_dag)
        else:
            stage = "generate_training_set"
            t0 = time.perf_counter()
            training_set = generate_training_set(
                trace.collected,
                dataset,
                regressor=config.refine.score.regressor,
                noise_mode=config.noise_mode,
                rng=streams["trainset"],
                node_fitter=engine.node_fit,
            )
            record.timings[stage] = time.perf_counter() - t0
            record.training_set_size = len(training_set.instances)
            if out_dir:
                ts_dir = os.path.join(out_dir, "trainset")
                save_training_set(training_set, ts_dir)
                record.paths["trainset"] = ts_dir

            if config.stages == "knn_only":
                stage = "knn_select"
                t0 = time.perf_counter()
                knn_dag = knn_score_predict(training_set, dataset, config.refine.score)
                record.timings[stage] = time.perf_counter() - t0
                prediction = _adj_float(knn_dag)
                if out_dir:
                    p = os.path.join(out_dir, "knn_graph.csv")
                    save_graph(knn_dag, p)
                    record.paths["knn_graph"] = p
            else:
                stage = "train"
                t0 = time.perf_counter()
                train_cfg = config.train
                if train_cfg.seed is None:
                    derived = int(streams["train"].integers(0, 2**63 - 1))
                    train_cfg = dataclasses.replace(train_cfg, seed=derived)
                predictor = train(training_set, train_cfg)
                record.timings[stage] = time.perf_counter() - t0
                if out_dir:
                    p = os.path.join(out_dir, "predictor.json")
                    with open(p, "w") as fh:
                        fh.write(predictor.to_json())
                    record.paths["predictor"] = p

                stage = "predict"
                t0 = time.perf_counter()
                prediction = predict(predictor, dataset)
                record.timings[stage] = time.perf_counter() - t0

        record.prediction = prediction
        if out_dir:
            p = os.path.join(out_dir, "prediction.csv")
            save_matrix(prediction, p)
            record.paths["prediction"] = p
            binary = (prediction >= config.threshold).astype(int)
            np.fill_diagonal(binary, 0)
            p = os.path.join(out_dir, "prediction_binary.csv")
            with open(p, "w") as fh:
                for row in binary:
                    fh.write(",".join(str(int(v)) for v in row) + "\n")
            record.paths["prediction_binary"] = p

        if truth is not None:
            stage = "evaluate"
            reports = {
                "seed_graph": evaluate(_adj_float(seed_dag), truth, config.threshold),
                "best_graph": evaluate(_adj_float(best_dag), truth, config.threshold),
                "final": evaluate(prediction, truth, config.threshold),
            }
            record.metrics = {name: rep.to_json() for name, rep in reports.items()}
            if out_dir:
                p = os.path.join(out_dir, "metrics.json")
                with open(p, "w") as fh:
                    json.dump(record.metrics, fh, indent=2, sort_keys=True)
                record.paths["metrics"] = p
    except Exception as exc:
        record.status = "error"
        record.failed_stage = stage
        _persist_record(record)
        if isinstance(exc, StageError):
            raise
        raise StageError(stage, exc) from exc

    _persist_record(record)
    return record


def _require_two_variables(dataset: Dataset) -> None:
    if dataset.d < 2:
        raise ConfigError(f"need at least 2 variables, got d={dataset.d}")


def _persist_record(record: RunRecord) -> None:
    if not record.out_dir:
        return
    with open(os.path.join(record.out_dir, "timings.json"), "w") as fh:
        json.dump(record.timings, fh, indent=2, sort_keys=True)
    with open(os.path.join(record.out_dir, "run_record.json"), "w") as fh:
        json.dump(record.to_json(), fh, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# benchmark and ablation drivers


def _instance_seeds(master_seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(master_seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def _setting_label(setting: ShiftSetting | str) -> str:
    try:
        return ShiftSetting(setting).value
    except ValueError as exc:
        raise ConfigError(f"unknown shift setting {setting!r}") from exc


def _run_one(config: PipelineConfig) -> RunRecord:
    return run_pipeline(config)


def _metric_rows(idx: int, seed: int, setting: str, record: RunRecord) -> list[dict]:
    rows = []
    for method in BENCHMARK_METHODS:
        rep = (record.metrics or {}).get(method)
        if rep is None:
            continue
        for metric in BENCHMARK_METRICS:
            rows.append(
                {
                    "instance": idx,
                    "seed": seed,
                    "setting": setting,
                    "method": method,
                    "metric": metric,
                    "value": rep[metric],
                }
            )
    return rows


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (scipy-openblas64 build), or None when
    numpy links some other BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    # numpy has loaded the library already, so this returns the same handle
    return ctypes.CDLL(found[0]) if found else None


def _single_threaded_blas() -> None:
    """Pool worker initializer: one BLAS thread per worker, so `threads`
    workers use `threads` cores instead of `threads` x cores BLAS threads.
    Only the worker process changes; without OpenBLAS it does nothing."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _worker_pool(threads: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=threads, initializer=_single_threaded_blas)


def _run_instances(
    configs: list[PipelineConfig], threads: int
) -> list[RunRecord | BaseException]:
    """Run pipelines serially or in a process pool (instance-level
    parallelism only, BLAS single-threaded in each worker); result order
    matches input order either way."""
    if threads <= 1 or len(configs) <= 1:
        out: list[RunRecord | BaseException] = []
        for cfg in configs:
            try:
                out.append(run_pipeline(cfg))
            except Exception as exc:
                out.append(exc)
        return out
    with _worker_pool(threads) as pool:
        futures = [pool.submit(_run_one, cfg) for cfg in configs]
        results: list[RunRecord | BaseException] = []
        for fut in futures:
            try:
                results.append(fut.result())
            except Exception as exc:
                results.append(exc)
        return results


def run_benchmark(
    config: PipelineConfig,
    setting: ShiftSetting | str,
    instances: int,
    out_dir: str,
    threads: int = 1,
) -> list[dict]:
    """Generate `instances` test instances from the config's generator,
    run the pipeline on each, and write per-instance and aggregate tables.

    results.csv has one row per (instance, method, metric); summary.csv
    aggregates mean and sample std (ddof=1, 0.0 for a single instance)
    over successful instances. Failures are listed in errors.json and
    excluded from aggregates. Returns the summary rows.
    """
    if config.generator is None:
        raise ConfigError("benchmark requires a generator section in the config")
    if instances < 1:
        raise ConfigError("instances must be >= 1")
    setting_label = _setting_label(setting)
    os.makedirs(out_dir, exist_ok=True)
    seeds = _instance_seeds(config.seed, instances)
    configs = [
        dataclasses.replace(
            config,
            seed=seeds[i],
            out_dir=os.path.join(out_dir, "instances", f"{i:03d}"),
        )
        for i in range(instances)
    ]
    results = _run_instances(configs, threads)

    rows: list[dict] = []
    errors: list[dict] = []
    for i, res in enumerate(results):
        if isinstance(res, BaseException):
            stage = res.stage if isinstance(res, StageError) else None
            errors.append({"instance": i, "stage": stage, "error": str(res)})
            continue
        rows.extend(_metric_rows(i, seeds[i], setting_label, res))

    _write_csv(
        os.path.join(out_dir, "results.csv"),
        rows,
        ["instance", "seed", "setting", "method", "metric", "value"],
    )
    records = [res for res in results if not isinstance(res, BaseException)]
    summary: list[dict] = []
    for method in BENCHMARK_METHODS:
        reports = [MetricReport(**rec.metrics[method]) for rec in records if method in (rec.metrics or {})]
        if reports:
            for metric, stats in aggregate(reports).items():
                summary.append({"setting": setting_label, "method": method, "metric": metric, **stats})
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        summary,
        ["setting", "method", "metric", "mean", "std"],
    )
    with open(os.path.join(out_dir, "errors.json"), "w") as fh:
        json.dump(errors, fh, indent=2)
    return summary


def _zero_lambda(config: PipelineConfig) -> PipelineConfig:
    score = dataclasses.replace(config.refine.score, sparsity_weight=0.0)
    refine_cfg = dataclasses.replace(config.refine, score=score)
    return dataclasses.replace(config, refine=refine_cfg)


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
    final AUROC, and the mean collected edge count."""
    if config.generator is None:
        raise ConfigError("ablation requires a generator section in the config")
    if instances < 1:
        raise ConfigError("instances must be >= 1")
    setting_label = _setting_label(setting)
    os.makedirs(out_dir, exist_ok=True)
    seeds = _instance_seeds(config.seed, instances)
    arms = [("penalized", config), ("unpenalized", _zero_lambda(config))]
    configs = []
    labels = []
    for i in range(instances):
        for arm_name, arm_cfg in arms:
            configs.append(
                dataclasses.replace(
                    arm_cfg,
                    seed=seeds[i],
                    out_dir=os.path.join(out_dir, "instances", f"{i:03d}_{arm_name}"),
                )
            )
            labels.append((i, arm_name))
    results = _run_instances(configs, threads)

    rows: list[dict] = []
    errors: list[dict] = []
    for (i, arm_name), res in zip(labels, results):
        if isinstance(res, BaseException):
            stage = res.stage if isinstance(res, StageError) else None
            errors.append({"instance": i, "arm": arm_name, "stage": stage, "error": str(res)})
            continue
        stats = res.collected_stats or {}
        final_auroc = None
        if res.metrics and "final" in res.metrics:
            final_auroc = res.metrics["final"]["auroc"]
        rows.append(
            {
                "instance": i,
                "seed": seeds[i],
                "setting": setting_label,
                "arm": arm_name,
                "lambda": (res.best_score or {}).get("lambda"),
                "ad": stats.get("mean_ad"),
                "total": stats.get("mean_total"),
                "auroc": final_auroc,
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
    with open(os.path.join(out_dir, "errors.json"), "w") as fh:
        json.dump(errors, fh, indent=2)
    return rows


def generate_instances(
    spec: SpecTriple,
    d: int,
    n: int,
    count: int,
    seed: int,
    **scm_kwargs,
) -> list[CausalInstance]:
    """Standalone instance generation used by the CLI's generate command."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        child = int(rng.integers(0, 2**63 - 1))
        child_rng = np.random.default_rng(child)
        scm = sample_scm(spec.graph_model, spec.mechanism, spec.noise, d, child_rng, **scm_kwargs)
        data = forward_sample(scm, n, child_rng)
        out.append(CausalInstance(scm=scm, data=data, spec=spec, seed=child))
    return out


def save_instances(instances: list[CausalInstance], out_dir: str, prefix: str = "instance") -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, inst in enumerate(instances):
        save_instance_bundle(inst, os.path.join(out_dir, f"{prefix}_{i:03d}"))
