"""Command line interface.

Exit codes: 0 success, 2 malformed input or config, 3 mid-run stage
failure. Each subcommand prints a short summary of what it wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from .errors import (
    CausalignError,
    ConfigError,
    DataFormatError,
    DegreeCapError,
    InputQualityError,
    MoveInfeasibleError,
    StageError,
    StructuralInputError,
    UndefinedMetricError,
)
from .io import (
    TrainingSetWriter,
    load_dataset,
    load_graph,
    load_matrix,
    load_training_set,
    save_matrix,
)
from .metrics import evaluate
from .model import EdgePredictor, TrainConfig, generate_training_set, predict, train
from .pipeline import (
    STAGES,
    GeneratorConfig,
    PipelineConfig,
    generate_instances,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
    save_instances,
)
from .refine import SeedMode, load_seed_graph
from .scm import ShiftSetting
from .scoring import ScoreConfig, ScoreEngine
from .sim import Basis, RegressorConfig

INPUT_ERRORS = (
    ConfigError,
    DataFormatError,
    StructuralInputError,
    InputQualityError,
    UndefinedMetricError,
    MoveInfeasibleError,
    DegreeCapError,
)

_SETTING_CHOICES = [s.value for s in ShiftSetting]


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's SeedSequence
    takes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: expected an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json_file(args.config) if args.config else PipelineConfig()
    flags = (
        ("seed", "seed"), ("out", "out_dir"), ("stages", "stages"), ("data", "data_path"), ("truth", "truth_path"),
    )
    updates = {field: getattr(args, flag) for flag, field in flags if getattr(args, flag, None) is not None}
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _preload(cfg: PipelineConfig):
    """Resolve file inputs up front so a missing data source, an
    unreadable path or a from_file seed graph init_seed would reject
    exits 2, not 3."""
    if cfg.data_path is None and cfg.generator is None:
        raise ConfigError("no data source: give a data path or a generator section in --config")
    dataset = truth = None
    if cfg.data_path:
        dataset = load_dataset(cfg.data_path)
    if cfg.truth_path:
        truth = load_graph(cfg.truth_path)
    if cfg.refine.seed_mode == SeedMode.FROM_FILE:
        d = dataset.d if dataset is not None else cfg.generator.d
        load_seed_graph(cfg.refine.seed_graph_path, d, cfg.refine.score.regressor.max_in_degree)
    return dataset, truth


def _fmt(value) -> str:
    """A metric to 4 decimals; undefined (None) prints as n/a."""
    return "n/a" if value is None else f"{value:.4f}"


def _print_run_summary(record) -> None:
    best = record.best_score or {}
    print(f"run dir: {record.out_dir}")
    print(
        "best graph: total={total} ad={ad} edges={sparsity}".format(
            total=best.get("total"), ad=best.get("ad"), sparsity=best.get("sparsity")
        )
    )
    if record.metrics and "final" in record.metrics:
        final = record.metrics["final"]
        print("final vs truth: " + " ".join(f"{k}={_fmt(final[k])}" for k in ("auroc", "auprc", "f1", "acc")))


def cmd_generate(args) -> int:
    gen = GeneratorConfig(
        mechanism=args.mechanism,
        noise=args.noise,
        graph_model=args.graph,
        d=args.d,
        n=args.n,
        expected_edges=args.expected_edges,
        attach_m=args.attach_m,
    )
    instances = generate_instances(gen.triple(), gen.d, gen.n, args.count, args.seed, **gen.scm_kwargs())
    save_instances(instances, args.out)
    print(f"wrote {len(instances)} instance bundle(s) under {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset, truth = _preload(cfg)
    record = run_pipeline(cfg, dataset=dataset, truth=truth)
    _print_run_summary(record)
    return 0


def cmd_make_trainset(args) -> int:
    dataset = load_dataset(args.data)
    paths = sorted(glob.glob(os.path.join(args.graphs, "*.csv")))
    if not paths:
        raise DataFormatError(f"{args.graphs}: no graph CSV files found")
    graphs = [load_graph(p) for p in paths]
    regressor = RegressorConfig(basis=Basis(args.basis), basis_size=args.basis_size)
    engine = ScoreEngine(dataset, ScoreConfig(regressor=regressor))
    writer = TrainingSetWriter(args.out, dataset.n, dataset.d)
    generate_training_set(graphs, engine, np.random.default_rng(args.seed), writer)
    print(f"wrote {writer.added} training instance(s) under {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        momentum=args.momentum,
        seed=args.seed,
    )
    predictor = train(load_training_set(args.trainset), cfg)
    with open(args.out, "w") as fh:
        fh.write(predictor.to_json())
    last = predictor.epoch_losses[-1] if predictor.epoch_losses else float("nan")
    print(f"wrote predictor to {args.out} (final epoch loss {last:.6f})")
    return 0


def cmd_predict(args) -> int:
    try:
        with open(args.predictor) as fh:
            predictor = EdgePredictor.from_json(fh.read())
    except OSError as exc:
        raise DataFormatError(f"{args.predictor}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{args.predictor}: bad predictor file: {exc}") from exc
    dataset = load_dataset(args.data)
    matrix = predict(predictor, dataset)
    save_matrix(matrix, args.out)
    print(f"wrote {dataset.d}x{dataset.d} edge probability matrix to {args.out}")
    return 0


def cmd_eval(args) -> int:
    prediction = load_matrix(args.prediction)
    truth = load_graph(args.truth)
    report = evaluate(prediction, truth, threshold=args.threshold)
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    return 0


def _suite_exit_code(out_dir: str, runs: int) -> int:
    """0 when errors.json under out_dir is empty; otherwise say how many of
    the suite's `runs` failed and return 3."""
    errors_path = os.path.join(out_dir, "errors.json")
    with open(errors_path) as fh:
        failed = len(json.load(fh))
    if not failed:
        return 0
    print(f"{failed} of {runs} runs failed; see {errors_path}", file=sys.stderr)
    return 3


def cmd_benchmark(args) -> int:
    cfg = _load_pipeline_config(args)
    summary = run_benchmark(
        cfg, args.setting, args.instances, args.out, threads=args.threads
    )
    for row in summary:
        print(
            f"{row['setting']} {row['method']} {row['metric']}: "
            f"{_fmt(row['mean'])} +/- {_fmt(row['std'])}"
        )
    return _suite_exit_code(args.out, args.instances)


def cmd_ablate(args) -> int:
    cfg = _load_pipeline_config(args)
    rows = run_ablation_sparsity(
        cfg, args.setting, args.instances, args.out, threads=args.threads
    )
    print(f"wrote {len(rows)} ablation row(s) to {os.path.join(args.out, 'ablation.csv')}")
    return _suite_exit_code(args.out, 2 * args.instances)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalign",
        description="Causal structure discovery via refine-synthesize-train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample synthetic benchmark instances")
    p.add_argument("--mechanism", default=GeneratorConfig.mechanism, help="linear | rff | chebyshev")
    p.add_argument("--noise", default=GeneratorConfig.noise, help="gaussian | uniform | laplace")
    p.add_argument("--graph", default=GeneratorConfig.graph_model, help="er | sf")
    p.add_argument("--d", type=int, default=GeneratorConfig.d)
    p.add_argument("--n", type=int, default=GeneratorConfig.n)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--expected-edges", type=float, default=GeneratorConfig.expected_edges)
    p.add_argument("--attach-m", type=int, default=GeneratorConfig.attach_m)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("refine", help="refinement stage only: seed, search, best graph")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline, stages="refine_only")

    p = sub.add_parser("make-trainset", help="fit mechanisms to graphs and resample data")
    p.add_argument("--data", required=True)
    p.add_argument("--graphs", required=True, help="directory of adjacency CSVs")
    p.add_argument("--basis", default=RegressorConfig.basis.value, choices=[b.value for b in Basis])
    p.add_argument("--basis-size", type=int, default=RegressorConfig.basis_size)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="directory for datasets.npy, graphs.npy and provenance.json")
    p.set_defaults(func=cmd_make_trainset)

    p = sub.add_parser("train", help="train the edge predictor on a training set")
    p.add_argument("--trainset", required=True, help="directory written by make-trainset")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    # a fixed seed (TrainConfig's None would draw one) keeps the command deterministic
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="edge probabilities for a dataset")
    p.add_argument("--predictor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a prediction matrix against a truth graph")
    p.add_argument("--prediction", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--threshold", type=float, default=PipelineConfig.threshold)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="full run: seed, refine, synthesize, train, predict")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--stages", default=None, choices=STAGES)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("benchmark", help="run the pipeline over generated instances")
    p.add_argument("--config", required=True)
    p.add_argument("--setting", required=True, choices=_SETTING_CHOICES)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("ablate", help="paired sparsity-penalty ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--setting", required=True, choices=_SETTING_CHOICES)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
