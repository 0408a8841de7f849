"""Structure-induced mechanism fitting.

Given a candidate DAG and a dataset, fit each node on its parents with a
closed-form ridge regression over a per-parent additive basis expansion,
store the residual distribution, and support forward sampling from the
fitted model. The fit is deterministic: same (dag, dataset, config) gives
a bit-identical result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegreeCapError,
    NumericalError,
    StructuralInputError,
)
from .graph import Dag, topological_order
from .scm import Dataset

__all__ = [
    "Basis",
    "RegressorConfig",
    "FittedNode",
    "FittedScm",
    "fit_node",
    "predict_node",
    "sample_from_fitted",
    "skip_sample",
    "SIGMA_FLOOR",
]

SIGMA_FLOOR = 1e-3
# penalty on every coefficient but the intercept; it keeps the normal
# equations solvable when expanded parent features are collinear
_RIDGE = 1e-6


class Basis(str, enum.Enum):
    LINEAR = "linear"
    FOURIER = "fourier"
    SPLINE = "spline"


@dataclass(frozen=True)
class RegressorConfig:
    """Controls the per-node regressions used for fitting and scoring.

    basis_size is the number of expanded features per parent (ignored for
    the linear basis, which uses the raw column). max_in_degree is a hard
    cap: fitting a node with more parents raises DegreeCapError rather than
    truncating.
    """

    basis: Basis = Basis.FOURIER
    basis_size: int = 8
    max_in_degree: int | None = 6

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        if self.basis_size < 1:
            raise ConfigError("basis_size must be >= 1")
        if self.max_in_degree is not None and self.max_in_degree < 0:
            raise ConfigError("max_in_degree must be >= 0 or None")


@dataclass(frozen=True)
class ParentTransform:
    """Frozen per-parent statistics so the expansion applied at prediction
    time matches the one used during fitting."""

    loc: float
    scale: float
    centers: tuple[float, ...] = ()
    width: float = 1.0


@dataclass
class FittedNode:
    node: int
    parents: tuple[int, ...]
    intercept: float
    weights: np.ndarray  # (p * basis features,) — raw-scale coefs for linear basis
    residual_sigma: float
    residual_samples: np.ndarray | None  # centered; None in a ScoreEngine's cached fits
    transforms: tuple[ParentTransform, ...]
    residual_ss: float  # sum of the squared centered residuals


@dataclass
class FittedScm:
    dag: Dag
    config: RegressorConfig
    nodes: list[FittedNode] = field(default_factory=list)


# ----------------------------------------------------------------------
# basis expansion


def _fit_transform(column: np.ndarray, config: RegressorConfig) -> ParentTransform:
    if config.basis == Basis.LINEAR:
        # raw scale so fitted weights are directly interpretable coefficients
        return ParentTransform(loc=0.0, scale=1.0)
    loc = float(column.mean())
    scale = float(column.std())
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    if config.basis == Basis.FOURIER:
        return ParentTransform(loc=loc, scale=scale)
    # spline-like: Gaussian bumps at quantile-spaced centers of the column
    k = config.basis_size
    qs = (np.arange(k) + 0.5) / k
    centers = np.quantile(column, qs)
    span = float(column.max() - column.min())
    width = span / k if span > 0 else 1.0
    return ParentTransform(loc=loc, scale=scale, centers=tuple(float(c) for c in centers), width=width)


def _expand_parent(column: np.ndarray, tr: ParentTransform, config: RegressorConfig) -> np.ndarray:
    """Features for one parent column; shape (n, 1) for the linear basis,
    else (n, basis_size)."""
    if config.basis == Basis.LINEAR:
        return column[:, None]
    if config.basis == Basis.FOURIER:
        t = (column - tr.loc) / tr.scale
        k = config.basis_size
        out = np.empty((column.shape[0], k), dtype=float)
        for idx in range(k):
            freq = idx // 2 + 1
            out[:, idx] = np.sin(freq * t) if idx % 2 == 0 else np.cos(freq * t)
        return out
    centers = np.asarray(tr.centers)
    z = (column[:, None] - centers[None, :]) / tr.width
    return np.exp(-0.5 * z * z)


def expand_column(column: np.ndarray, config: RegressorConfig) -> tuple[ParentTransform, np.ndarray]:
    """A parent column's fitted transform and its expanded features."""
    tr = _fit_transform(column, config)
    return tr, _expand_parent(column, tr, config)


def _design(parent_matrix: np.ndarray, transforms, config: RegressorConfig) -> np.ndarray:
    blocks = [
        _expand_parent(parent_matrix[:, idx], transforms[idx], config)
        for idx in range(parent_matrix.shape[1])
    ]
    return np.concatenate(blocks, axis=1)


# ----------------------------------------------------------------------
# fitting


def fit_node(
    node: int,
    parents: tuple[int, ...],
    x: np.ndarray,
    parent_matrix: np.ndarray | None,
    config: RegressorConfig,
    expanded: list[tuple[ParentTransform, np.ndarray]] | None = None,
) -> FittedNode:
    """Ridge fit of one node on its parents' expanded features.

    The intercept is unpenalized. Residuals are centered before storage;
    residual_sigma is the sample std of the residuals floored at
    SIGMA_FLOOR so downstream likelihoods stay finite, and residual_ss is
    the sum of the squared centered residuals it was taken from.
    expanded, when given, holds expand_column of each column of
    parent_matrix, in parent order, so a caller that fits many parent sets
    on one dataset expands each column once; the fit is bit-identical to
    expanding here, and parent_matrix is not read (it may be None).
    """
    check_in_degree(node, len(parents), config)
    if expanded is None:
        expanded = [expand_column(parent_matrix[:, idx], config) for idx in range(len(parents))]
    coef, resid, ss = _residuals(node, x, expanded)
    n = x.shape[0]
    sigma = math.sqrt(ss / (n - 1)) if n > 1 else 0.0
    return FittedNode(
        node=node,
        parents=parents,
        intercept=float(coef[0]),
        weights=coef[1:],
        residual_sigma=max(sigma, SIGMA_FLOOR),
        residual_samples=resid,
        transforms=tuple(tr for tr, _ in expanded),
        residual_ss=ss,
    )


def check_in_degree(node: int, in_degree: int, config: RegressorConfig) -> None:
    """DegreeCapError when a node with in_degree parents breaks config's cap."""
    if config.max_in_degree is not None and in_degree > config.max_in_degree:
        raise DegreeCapError(f"node {node} has in-degree {in_degree} > cap {config.max_in_degree}")


def rederive_residuals(
    fitted: FittedNode, x: np.ndarray, expanded: list[tuple[ParentTransform, np.ndarray]]
) -> np.ndarray:
    """The centred residuals fit_node stored for fitted, bit for bit,
    rebuilt from its intercept and weights: x is the node's column it was
    fitted on, expanded its parents' expand_column blocks in parent
    order."""
    return _residuals(fitted.node, x, expanded, np.concatenate(([fitted.intercept], fitted.weights)))[1]


def _residuals(
    node: int,
    x: np.ndarray,
    expanded: list[tuple[ParentTransform, np.ndarray]],
    coef: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(coef, centred residuals, their sum of squares) of x on the design
    [1 | expanded blocks]. coef = [intercept, *weights] is solved here when
    None (without blocks, the intercept is x's mean); given, the residuals
    are computed with the arithmetic that solved it, so fit_node and
    rederive_residuals agree bit for bit."""
    if not expanded:
        if coef is None:
            coef = np.array([x.mean()])
        resid = x - coef[0]
    else:
        # [1 | blocks], filled in place
        k = 1 + sum(block.shape[1] for _, block in expanded)
        full = np.empty((x.shape[0], k))
        full[:, 0] = 1.0
        col = 1
        for _, block in expanded:
            full[:, col : col + block.shape[1]] = block
            col += block.shape[1]
        if coef is None:
            gram = full.T @ full
            gram.flat[k + 1 :: k + 1] += _RIDGE  # the diagonal but the unpenalized intercept
            rhs = full.T @ x
            try:
                coef = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular system fitting node {node}: {exc}") from exc
            if not np.isfinite(coef).all():
                raise NumericalError(f"non-finite coefficients fitting node {node}")
        resid = x - full @ coef
    # one pass: the residuals are centred once, and their sum of squares
    # gives sigma and the mean squared residual of the score term
    resid = resid - resid.mean()
    return coef, resid, float(np.square(resid).sum())


def predict_node(fitted: FittedNode, parent_matrix: np.ndarray, config: RegressorConfig) -> np.ndarray:
    """Fitted conditional mean at new parent values; (n, p) -> (n,)."""
    n = parent_matrix.shape[0]
    if len(fitted.parents) == 0:
        return np.full(n, fitted.intercept)
    if parent_matrix.shape[1] != len(fitted.parents):
        raise StructuralInputError(
            f"node {fitted.node} expects {len(fitted.parents)} parent columns"
        )
    phi = _design(parent_matrix, fitted.transforms, config)
    return fitted.intercept + phi @ fitted.weights


def sample_from_fitted(fitted: FittedScm, n: int, rng: np.random.Generator) -> Dataset:
    """Ancestral sampling from the fitted model.

    Node noise bootstraps the stored centered residuals, preserving their
    shape. Nodes are visited in deterministic topological order and noise
    for node j is drawn when that node is reached, so identical seeds give
    identical datasets. What the draws take from rng depends only on the
    residual counts and n, never on data values, so skip_sample can
    advance a generator past one dataset without computing it.

    A node's column is final once the node is sampled, so each (parent
    column, transform) is expanded once per sampled dataset and every
    child that uses it reuses the block; the means equal predict_node on
    the parents' columns bit for bit.
    """
    if n < 1:
        raise StructuralInputError("n must be >= 1")
    d = fitted.dag.d
    config = fitted.config
    values = np.zeros((n, d), dtype=float)
    by_node = {fn.node: fn for fn in fitted.nodes}
    # keyed by transform too: nodes fitted on different data carry
    # different transforms for the same parent column
    expanded: dict[tuple[int, ParentTransform], np.ndarray] = {}
    for j in topological_order(fitted.dag):
        fn = by_node[j]
        if fn.parents:
            blocks = []
            for p, tr in zip(fn.parents, fn.transforms, strict=True):
                block = expanded.get((p, tr))
                if block is None:
                    block = expanded[(p, tr)] = _expand_parent(values[:, p], tr, config)
                blocks.append(block)
            mean = fn.intercept + np.concatenate(blocks, axis=1) @ fn.weights
        else:
            mean = np.full(n, fn.intercept)
        values[:, j] = mean + fn.residual_samples[_bootstrap_indices(fn.residual_samples.shape[0], n, rng)]
    return Dataset(values)


def _bootstrap_indices(residuals: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws with replacement from the indices of `residuals` residuals;
    the same draws, and the same generator state after them, as
    rng.choice(residual_samples, size=n)."""
    return rng.integers(0, residuals, size=n)


def skip_sample(dag: Dag, residuals: int, n: int, rng: np.random.Generator) -> None:
    """Advance rng past exactly the draws of sample_from_fitted(fitted, n,
    rng) for a fit on dag whose nodes hold `residuals` residuals each, with
    no fit and no dataset: d index draws of one size, so in any order."""
    if n < 1:
        raise StructuralInputError("n must be >= 1")
    for _ in range(dag.d):
        _bootstrap_indices(residuals, n, rng)
