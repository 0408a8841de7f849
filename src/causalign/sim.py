"""Structure-induced mechanism fitting.

Given a candidate DAG and a dataset, fit each node on its parents with a
closed-form ridge regression over a per-parent additive basis expansion,
store the residual distribution, and support forward sampling from the
fitted model. The fit is deterministic: same (dag, dataset, config) gives
a bit-identical result.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, field

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
    "fit_sim",
    "fit_node",
    "predict_node",
    "residual_log_likelihood",
    "sample_from_fitted",
    "SIGMA_FLOOR",
]

SIGMA_FLOOR = 1e-3

_LOG_2PI = math.log(2.0 * math.pi)


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
    ridge: float = 1e-6
    max_in_degree: int | None = 6

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        if self.basis_size < 1:
            raise ConfigError("basis_size must be >= 1")
        if self.ridge < 0:
            raise ConfigError("ridge must be >= 0")
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
    residual_samples: np.ndarray  # centered
    transforms: tuple[ParentTransform, ...]


@dataclass
class FittedScm:
    dag: Dag
    config: RegressorConfig
    nodes: list[FittedNode] = field(default_factory=list)

    def to_json(self) -> str:
        obj = {
            "d": self.dag.d,
            "edges": [[i, j] for i, j in self.dag.edges()],
            "config": asdict(self.config),  # Basis is a str enum: dumps as its value
            "nodes": [
                {
                    "node": fn.node,
                    "parents": list(fn.parents),
                    "intercept": fn.intercept,
                    "weights": fn.weights.tolist(),
                    "residual_sigma": fn.residual_sigma,
                    "residual_samples": fn.residual_samples.tolist(),
                    "transforms": [
                        {
                            "loc": tr.loc,
                            "scale": tr.scale,
                            "centers": list(tr.centers),
                            "width": tr.width,
                        }
                        for tr in fn.transforms
                    ],
                }
                for fn in self.nodes
            ],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "FittedScm":
        obj = json.loads(text)
        d = int(obj["d"])
        adj = np.zeros((d, d), dtype=np.int8)
        for i, j in obj["edges"]:
            adj[int(i), int(j)] = 1
        config = RegressorConfig(**obj["config"])
        nodes = [
            FittedNode(
                node=int(fn["node"]),
                parents=tuple(int(p) for p in fn["parents"]),
                intercept=float(fn["intercept"]),
                weights=np.asarray(fn["weights"], dtype=float),
                residual_sigma=float(fn["residual_sigma"]),
                residual_samples=np.asarray(fn["residual_samples"], dtype=float),
                transforms=tuple(
                    ParentTransform(
                        loc=float(tr["loc"]),
                        scale=float(tr["scale"]),
                        centers=tuple(float(c) for c in tr["centers"]),
                        width=float(tr["width"]),
                    )
                    for tr in fn["transforms"]
                ),
            )
            for fn in obj["nodes"]
        ]
        return FittedScm(dag=Dag(adj), config=config, nodes=nodes)


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
    """Features for one parent column; shape (n, features_per_parent)."""
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


def features_per_parent(config: RegressorConfig) -> int:
    return 1 if config.basis == Basis.LINEAR else config.basis_size


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
    parent_matrix: np.ndarray,
    config: RegressorConfig,
) -> FittedNode:
    """Ridge fit of one node on its parents' expanded features.

    The intercept is unpenalized. Residuals are centered before storage;
    residual_sigma is the sample std of the residuals floored at
    SIGMA_FLOOR so downstream likelihoods stay finite.
    """
    if config.max_in_degree is not None and len(parents) > config.max_in_degree:
        raise DegreeCapError(
            f"node {node} has in-degree {len(parents)} > cap {config.max_in_degree}"
        )
    n = x.shape[0]
    if len(parents) == 0:
        intercept = float(x.mean())
        resid = x - intercept
        weights = np.zeros(0)
        transforms: tuple[ParentTransform, ...] = ()
    else:
        transforms = tuple(
            _fit_transform(parent_matrix[:, idx], config) for idx in range(len(parents))
        )
        phi = _design(parent_matrix, transforms, config)
        ones = np.ones((n, 1))
        full = np.concatenate([ones, phi], axis=1)
        k = full.shape[1]
        if config.ridge > 0:
            gram = full.T @ full
            penalty = np.full(k, config.ridge)
            penalty[0] = 0.0  # intercept unpenalized
            gram[np.diag_indices(k)] += penalty
            rhs = full.T @ x
            try:
                coef = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular system fitting node {node}: {exc}") from exc
        else:
            coef, *_ = np.linalg.lstsq(full, x, rcond=None)
        if not np.isfinite(coef).all():
            raise NumericalError(f"non-finite coefficients fitting node {node}")
        intercept = float(coef[0])
        weights = coef[1:]
        resid = x - full @ coef
    sigma = float(resid.std(ddof=1)) if n > 1 else 0.0
    sigma = max(sigma, SIGMA_FLOOR)
    resid = resid - resid.mean()
    return FittedNode(
        node=node,
        parents=parents,
        intercept=intercept,
        weights=weights,
        residual_sigma=sigma,
        residual_samples=resid,
        transforms=transforms,
    )


def fit_sim(dag: Dag, dataset: Dataset, config: RegressorConfig) -> FittedScm:
    """Fit every node of the DAG on the dataset.

    Raises DegreeCapError if any node's in-degree exceeds the configured
    cap (never truncates parent sets). Node fits are independent of each
    other, so the result does not depend on fit order.
    """
    if dag.d != dataset.d:
        raise StructuralInputError(
            f"dag has d={dag.d} but dataset has d={dataset.d}"
        )
    values = dataset.values
    nodes = []
    for j in range(dag.d):
        parents = dag.parents(j)
        pm = values[:, parents] if parents else np.zeros((dataset.n, 0))
        nodes.append(fit_node(j, parents, values[:, j], pm, config))
    return FittedScm(dag=dag, config=config, nodes=nodes)


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


def residual_log_likelihood(fitted: FittedNode, x: float, parent_values, config: RegressorConfig) -> float:
    """Gaussian log-density of one observation under the fitted node:
    N(x; prediction, residual_sigma^2)."""
    pv = np.asarray(parent_values, dtype=float).reshape(1, -1)
    pred = predict_node(fitted, pv, config)[0]
    r = float(x) - pred
    s2 = fitted.residual_sigma**2
    return -0.5 * (_LOG_2PI + math.log(s2)) - r * r / (2.0 * s2)


def sample_from_fitted(
    fitted: FittedScm,
    n: int,
    rng: np.random.Generator,
    noise_mode: str = "empirical",
) -> Dataset:
    """Ancestral sampling from the fitted model.

    noise_mode 'parametric' draws node noise from N(0, residual_sigma^2);
    'empirical' bootstraps the stored centered residuals, preserving their
    shape. Nodes are visited in deterministic topological order and noise
    for node j is drawn when that node is reached, so identical seeds give
    identical datasets.

    A node's column is final once the node is sampled, so each (parent
    column, transform) is expanded once per sampled dataset and every
    child that uses it reuses the block; the means equal predict_node on
    the parents' columns bit for bit.
    """
    if noise_mode not in ("parametric", "empirical"):
        raise ConfigError(f"unknown noise_mode {noise_mode!r}")
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
        if noise_mode == "parametric":
            eps = rng.normal(0.0, fn.residual_sigma, size=n)
        else:
            eps = rng.choice(fn.residual_samples, size=n, replace=True)
        values[:, j] = mean + eps
    return Dataset(values)
