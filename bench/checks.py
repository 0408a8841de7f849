"""Output checks that do not rely on the program's own answers.

Every check here is either an independent computation (AUROC by a pairwise
count, acyclicity by peeling sources, graph edits on plain arrays, means by
``math.fsum``) or a property the method guarantees (the trace replays to the
final graph, the best graph is the earliest visited graph with the highest
total, a full rescore reproduces the incremental one). Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from causalign.graph import Dag
from causalign.scm import Dataset
from causalign.scoring import ScoreEngine

AUROC_TOLERANCE = 1e-12
SCORE_RTOL = 1e-12
SUITE_METHODS = ("seed_graph", "best_graph", "final")
SUITE_METRICS = ("auroc", "auprc", "f1", "acc")


def pairwise_auroc(scores, truth) -> float:
    """AUROC over the off-diagonal cells as the share of (positive,
    negative) pairs the score orders correctly, a tie counting 0.5."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth) != 0
    off = ~np.eye(s.shape[0], dtype=bool)
    pos, neg = s[off & y], s[off & ~y]
    if pos.size == 0 or neg.size == 0:
        raise ValueError(f"AUROC undefined with {pos.size} positives and {neg.size} negatives")
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def is_acyclic(adjacency) -> bool:
    """True iff repeatedly removing the nodes without incoming edges
    removes every node."""
    a = np.asarray(adjacency) != 0
    alive = np.ones(a.shape[0], dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        sources = idx[~a[np.ix_(idx, idx)].any(axis=0)]
        if sources.size == 0:
            return False
        alive[sources] = False
    return True


def apply_edit(adjacency: np.ndarray, kind: str, i: int, j: int) -> np.ndarray:
    """One add/delete/reverse edit on a copy; raises ValueError when the
    edge is not in the state the edit requires."""
    out = np.array(adjacency, dtype=np.int8)
    present = bool(out[i, j])
    if kind == "add" and not present:
        out[i, j] = 1
    elif kind == "delete" and present:
        out[i, j] = 0
    elif kind == "reverse" and present:
        out[i, j], out[j, i] = 0, 1
    else:
        raise ValueError(f"cannot {kind} {i}->{j}")
    return out


@dataclass
class Replay:
    graphs: list  # graph after every step, in step order
    best: np.ndarray
    best_total: float
    problems: list


def replay(seed: np.ndarray, seed_total: float, steps: list[dict]) -> Replay:
    """Apply the accepted moves of a step trace (``trace.jsonl`` records)
    to the seed graph, checking acyclicity after each move and tracking
    the earliest graph with the highest total."""
    current = np.array(seed, dtype=np.int8)
    best, best_total = current, seed_total
    graphs, problems = [], []
    for rec in steps:
        move = rec["move"]
        if rec["accepted"]:
            if move is None:
                problems.append(f"step {rec['step']}: accepted without a move")
                break
            try:
                current = apply_edit(current, move["kind"], move["source"], move["target"])
            except ValueError as exc:
                problems.append(f"step {rec['step']}: {exc}")
                break
            if not is_acyclic(current):
                problems.append(f"step {rec['step']}: replayed graph has a cycle")
                break
            if rec["s_cand"] > best_total:
                best, best_total = current, rec["s_cand"]
        graphs.append(current)
    return Replay(graphs, best, best_total, problems)


@dataclass
class RunArtifacts:
    """What one pipeline run produced, in plain arrays and dicts."""

    values: np.ndarray
    truth: np.ndarray
    prediction: np.ndarray
    seed: np.ndarray
    seed_total: float
    steps: list
    collected: list
    best: np.ndarray
    best_total: float
    final: np.ndarray
    metrics: dict


def _adjacency(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.int8, ndmin=2)


def load_run_dir(run_dir: str) -> RunArtifacts:
    """Read a run directory with numpy and json only; floats were written
    in repr form, so they load back exactly."""

    def path(name):
        return os.path.join(run_dir, name)

    with open(path("run_record.json")) as fh:
        record = json.load(fh)
    with open(path("metrics.json")) as fh:
        metrics = json.load(fh)
    with open(path("trace.jsonl")) as fh:
        steps = [json.loads(line) for line in fh]
    collected = [_adjacency(p) for p in sorted(glob.glob(path("graphs/collected_*.csv")))]
    return RunArtifacts(
        values=np.loadtxt(path("data.csv"), delimiter=",", skiprows=1, ndmin=2),
        truth=_adjacency(path("truth_graph.csv")),
        prediction=np.loadtxt(path("prediction.csv"), delimiter=",", ndmin=2),
        seed=_adjacency(path("seed_graph.csv")),
        seed_total=record["seed_score"]["total"],
        steps=steps,
        collected=collected,
        best=_adjacency(path("best_graph.csv")),
        best_total=record["best_score"]["total"],
        # the last collected graph is the graph current after the last step
        final=collected[-1] if collected else _adjacency(path("seed_graph.csv")),
        metrics=metrics,
    )


def from_memory(record, trace, dataset, truth) -> RunArtifacts:
    """The same view of an in-memory run (RunRecord plus RefineTrace)."""
    return RunArtifacts(
        values=dataset.values,
        truth=truth.adjacency,
        prediction=record.prediction,
        seed=trace.seed_dag.adjacency,
        seed_total=record.seed_score["total"],
        steps=[s.to_json() for s in trace.steps],
        collected=[g.adjacency for g in trace.collected],
        best=trace.best_dag.adjacency,
        best_total=record.best_score["total"],
        final=trace.final_dag.adjacency,
        metrics=record.metrics,
    )


def check_prediction(prediction: np.ndarray, d: int) -> list[str]:
    p = np.asarray(prediction, dtype=float)
    if p.shape != (d, d):
        return [f"prediction has shape {p.shape}, expected ({d}, {d})"]
    problems = []
    if not np.isfinite(p).all():
        problems.append("prediction has non-finite entries")
    elif p.min() < 0.0 or p.max() > 1.0:
        problems.append(f"prediction outside [0, 1]: [{p.min()}, {p.max()}]")
    if np.any(np.diagonal(p) != 0.0):
        problems.append("prediction has a nonzero diagonal")
    return problems


def _check_auroc(label: str, scores, truth, reported: float) -> list[str]:
    recount = pairwise_auroc(scores, truth)
    if abs(recount - reported) > AUROC_TOLERANCE:
        return [f"{label} AUROC {reported!r} but the pairwise count gives {recount!r}"]
    return []


def check_run(art: RunArtifacts, score_config) -> list[str]:
    """All per-run checks; score_config is the run's ScoreConfig, used for
    the fresh full rescore of the best graph."""
    d = art.truth.shape[0]
    problems = check_prediction(art.prediction, d)
    if problems:
        return problems
    problems += _check_auroc("final", art.prediction, art.truth, art.metrics["final"]["auroc"])
    problems += _check_auroc("best_graph", art.best.astype(float), art.truth, art.metrics["best_graph"]["auroc"])

    for label, g in [("seed", art.seed), ("best", art.best)] + [
        (f"collected[{k}]", g) for k, g in enumerate(art.collected)
    ]:
        if not is_acyclic(g):
            problems.append(f"{label} graph has a cycle")

    rep = replay(art.seed, art.seed_total, art.steps)
    problems += rep.problems
    if not rep.problems:
        end = rep.graphs[-1] if rep.graphs else art.seed
        if not np.array_equal(end, art.final):
            problems.append("replaying the accepted moves does not give the final graph")
        tail = rep.graphs[len(rep.graphs) - len(art.collected):]
        if len(tail) != len(art.collected) or any(
            not np.array_equal(a, b) for a, b in zip(tail, art.collected)
        ):
            problems.append("collected graphs differ from the replayed graphs of the last steps")
        if not np.array_equal(rep.best, art.best) or rep.best_total != art.best_total:
            problems.append("best graph is not the earliest visited graph with the highest total")

    engine = ScoreEngine(Dataset(art.values), score_config)
    rescored = engine.score(Dag(art.best)).total
    if not math.isclose(rescored, art.best_total, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL):
        problems.append(f"best total {art.best_total!r} but a full rescore gives {rescored!r}")
    return problems


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_suite_tables(out_dir: str, instances: int) -> tuple[list[str], list[int], list[int]]:
    """Check run_benchmark's tables: every attempted instance is either in
    results.csv with every method and metric or listed in errors.json, each
    results.csv value equals the one in its instance's metrics.json, and
    summary.csv means equal means recomputed from results.csv.

    Returns (problems, ok instance ids, failed instance ids)."""
    results = read_csv(os.path.join(out_dir, "results.csv"))
    summary = read_csv(os.path.join(out_dir, "summary.csv"))
    with open(os.path.join(out_dir, "errors.json")) as fh:
        failed = sorted(int(e["instance"]) for e in json.load(fh))
    problems = []
    cells: dict[tuple[str, str], dict[int, float]] = {}
    for row in results:
        cells.setdefault((row["method"], row["metric"]), {})[int(row["instance"])] = float(row["value"])
    ok = sorted({i for per in cells.values() for i in per})
    if set(ok) & set(failed):
        problems.append(f"instances {sorted(set(ok) & set(failed))} are both in results and errors")
    if sorted(set(ok) | set(failed)) != list(range(instances)):
        problems.append(f"results {ok} and errors {failed} do not cover all {instances} instances")
    for method in SUITE_METHODS:
        for metric in SUITE_METRICS:
            if sorted(cells.get((method, metric), {})) != ok:
                problems.append(f"results.csv lacks {method}/{metric} for some instance")
    for i in ok:
        with open(os.path.join(out_dir, "instances", f"{i:03d}", "metrics.json")) as fh:
            per_run = json.load(fh)
        for (method, metric), per in cells.items():
            if per.get(i) != per_run[method][metric]:
                problems.append(f"results.csv {method}/{metric} of instance {i} differs from metrics.json")
    for row in summary:
        vals = list(cells.get((row["method"], row["metric"]), {}).values())
        mean = math.fsum(vals) / len(vals) if vals else math.nan
        if not math.isclose(float(row["mean"]), mean, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"summary mean {row['method']}/{row['metric']} {row['mean']} != {mean!r}")
    if ok and len(summary) != len(SUITE_METHODS) * len(SUITE_METRICS):
        problems.append(f"summary.csv has {len(summary)} rows")
    return problems, ok, failed
