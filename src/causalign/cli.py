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
    save_instance_bundle,
    save_matrix,
)
from .metrics import evaluate
from .model import EdgePredictor, generate_training_set, predict, train
from .pipeline import (
    STAGES,
    GeneratorConfig,
    PipelineConfig,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
)
from .scm import ShiftSetting, generate_instance
from .scoring import ScoreEngine

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


def _read_config(args) -> PipelineConfig:
    """The --config file, or the dataclass defaults without one."""
    return PipelineConfig.from_json_file(args.config) if args.config else PipelineConfig()


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = _read_config(args)
    flags = (
        ("seed", "seed"), ("out", "out_dir"), ("stages", "stages"), ("data", "data_path"), ("truth", "truth_path"),
    )
    updates = {field: getattr(args, flag) for flag, field in flags if getattr(args, flag, None) is not None}
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


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
    """`count` instances of the config's generator section, each from
    its own child seed of --seed, written as instance_### bundles."""
    gen = _read_config(args).generator or GeneratorConfig()
    if args.count < 1:
        raise ConfigError("count must be >= 1")
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        instance = generate_instance(gen.triple(), gen.d, gen.n, int(rng.integers(0, 2**63 - 1)), **gen.scm_kwargs())
        save_instance_bundle(instance, os.path.join(args.out, f"instance_{i:03d}"))
    print(f"wrote {args.count} instance bundle(s) under {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    record = run_pipeline(_load_pipeline_config(args))
    _print_run_summary(record)
    return 0


def cmd_make_trainset(args) -> int:
    score = _read_config(args).refine.score
    dataset = load_dataset(args.data)
    paths = sorted(glob.glob(os.path.join(args.graphs, "*.csv")))
    if not paths:
        raise DataFormatError(f"{args.graphs}: no graph CSV files found")
    graphs = [load_graph(p) for p in paths]
    engine = ScoreEngine(dataset, score)
    writer = TrainingSetWriter(args.out, dataset.n, dataset.d)
    generate_training_set(graphs, engine, np.random.default_rng(args.seed), writer)
    print(f"wrote {writer.added} training instance(s) under {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _read_config(args).train
    # --seed overrides train.seed; with neither, a fixed 0 (not a drawn
    # seed) keeps the command deterministic
    seed = args.seed if args.seed is not None else cfg.seed
    cfg = dataclasses.replace(cfg, seed=0 if seed is None else seed)
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
    threshold = _read_config(args).threshold
    prediction = load_matrix(args.prediction)
    truth = load_graph(args.truth)
    report = evaluate(prediction, truth, threshold=threshold)
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
    p.add_argument("--config", default=None, help="reads its generator section")
    p.add_argument("--count", type=int, default=1)
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
    p.add_argument("--config", default=None, help="reads its score and regressor sections")
    p.add_argument("--data", required=True)
    p.add_argument("--graphs", required=True, help="directory of adjacency CSVs")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="directory for datasets.npy, graphs.npy and provenance.json")
    p.set_defaults(func=cmd_make_trainset)

    p = sub.add_parser("train", help="train the edge predictor on a training set")
    p.add_argument("--config", default=None, help="reads its train section")
    p.add_argument("--trainset", required=True, help="directory written by make-trainset")
    p.add_argument("--seed", type=_seed, default=None, help="overrides train.seed (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="edge probabilities for a dataset")
    p.add_argument("--predictor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a prediction matrix against a truth graph")
    p.add_argument("--config", default=None, help="reads its threshold")
    p.add_argument("--prediction", required=True)
    p.add_argument("--truth", required=True)
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
