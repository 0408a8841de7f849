"""Evaluation of edge-probability matrices against ground-truth DAGs.

All metrics treat the d*(d-1) off-diagonal cells of the score matrix as
independent binary decisions about ordered pairs; the diagonal never
participates. AUROC uses the midrank (tie-aware) formulation, AUPRC is
step-interpolated average precision, and F1/accuracy binarize at a
threshold (0.5 by default). AUROC and AUPRC need both classes: a report
on a truth without edges (or without non-edges) leaves them None.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, StructuralInputError, UndefinedMetricError
from .graph import Dag

__all__ = [
    "MetricReport",
    "auroc",
    "auprc",
    "f1_acc",
    "evaluate",
    "aggregate",
]


@dataclass(frozen=True)
class MetricReport:
    auroc: float | None
    auprc: float | None
    f1: float
    acc: float
    threshold: float
    n_positive: int
    n_negative: int

    def to_json(self) -> dict:
        return asdict(self)


def _offdiag(scores, truth: Dag) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralInputError(f"score matrix must be square, got {arr.shape}")
    if arr.shape[0] != truth.d:
        raise StructuralInputError(
            f"score matrix d={arr.shape[0]} but truth d={truth.d}"
        )
    if not np.isfinite(arr).all():
        raise StructuralInputError("score matrix has non-finite entries")
    mask = ~np.eye(truth.d, dtype=bool)
    return arr[mask], truth.adjacency[mask].astype(float)


def _midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    sx = x[order]
    n = x.shape[0]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sx[1:] != sx[:-1]
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    avg = starts + (counts - 1) / 2.0 + 1.0
    out = np.empty(n, dtype=float)
    out[order] = avg[group]
    return out


def auroc(scores, truth: Dag) -> float:
    """Area under the ROC curve with midrank tie handling.

    Raises UndefinedMetricError when the truth has no positive or no
    negative off-diagonal cells.
    """
    y_score, y_true = _offdiag(scores, truth)
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc undefined: {n_pos} positives, {n_neg} negatives"
        )
    ranks = _midranks(y_score)
    pos_rank_sum = float(ranks[y_true == 1.0].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, truth: Dag) -> float:
    """Step-interpolated average precision over descending unique
    thresholds; tied scores enter as one block."""
    y_score, y_true = _offdiag(scores, truth)
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auprc undefined: {n_pos} positives, {n_neg} negatives"
        )
    order = np.argsort(-y_score, kind="stable")
    ys = y_true[order]
    ss = y_score[order]
    tp = np.cumsum(ys)
    fp = np.cumsum(1.0 - ys)
    # last index of each tied block
    n = ys.size
    block_end = np.empty(n, dtype=bool)
    block_end[-1] = True
    block_end[:-1] = ss[:-1] != ss[1:]
    tp_b = tp[block_end]
    fp_b = fp[block_end]
    recall = tp_b / n_pos
    precision = tp_b / (tp_b + fp_b)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def f1_acc(scores, truth: Dag, threshold: float = 0.5) -> tuple[float, float]:
    """Binary F1 and accuracy after thresholding at `threshold`
    (prediction positive iff score >= threshold). A 0/0 F1 is defined
    as 0."""
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    y_score, y_true = _offdiag(scores, truth)
    pred = (y_score >= threshold).astype(float)
    tp = float(np.sum((pred == 1) & (y_true == 1)))
    fp = float(np.sum((pred == 1) & (y_true == 0)))
    fn = float(np.sum((pred == 0) & (y_true == 1)))
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom > 0 else 0.0
    acc = float(np.mean(pred == y_true))
    return f1, acc


def evaluate(scores, truth: Dag, threshold: float = 0.5) -> MetricReport:
    """All four metrics in one report; AUROC and AUPRC are None when the
    truth has no positive or no negative off-diagonal cell."""
    y_score, y_true = _offdiag(scores, truth)
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    f1, acc = f1_acc(scores, truth, threshold)
    ranked = n_pos > 0 and n_neg > 0
    return MetricReport(
        auroc=auroc(scores, truth) if ranked else None,
        auprc=auprc(scores, truth) if ranked else None,
        f1=f1,
        acc=acc,
        threshold=threshold,
        n_positive=n_pos,
        n_negative=n_neg,
    )


def aggregate(reports: list[MetricReport]) -> dict:
    """Per-metric count `n`, mean and sample standard deviation over the
    reports where the metric is defined (ddof=1; a single value has std
    0.0, and a metric defined in no report has None for both)."""
    if not reports:
        raise ConfigError("aggregate needs at least one report")
    out = {}
    for name in ("auroc", "auprc", "f1", "acc"):
        vals = np.array([v for r in reports if (v := getattr(r, name)) is not None], dtype=float)
        if vals.size == 0:
            out[name] = {"n": 0, "mean": None, "std": None}
            continue
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[name] = {"n": int(vals.size), "mean": float(vals.mean()), "std": std}
    return out
