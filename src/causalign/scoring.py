"""Graph scores: data-alignment term minus an L0 sparsity penalty.

total(G, D) = AD(G, D) - lambda * |edges(G)|

AD is the mean over nodes of each node's average Gaussian residual
log-density under its per-node SIM fit.

AD decomposes over nodes, so the ScoreEngine caches one term per
(node, parent set) and rescoring after an edge move only refits the nodes
whose parents changed: the target for adds/deletes, both endpoints for a
reversal. Cache reads are safe from multiple threads; inserts are
last-writer-wins of identical values (fits are deterministic).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructuralInputError
from .graph import Dag
from .scm import Dataset
from .sim import FittedNode, ParentTransform, RegressorConfig, expand_column, fit_node, rederive_residuals

__all__ = [
    "ScoreConfig",
    "ScoreValue",
    "ScoreEngine",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ScoreConfig:
    sparsity_weight: float | None = None  # None -> resolved per dataset
    regressor: RegressorConfig = field(default_factory=RegressorConfig)

    def __post_init__(self):
        if self.sparsity_weight is not None and self.sparsity_weight < 0:
            raise ConfigError("sparsity_weight must be >= 0")

    def resolve_lambda(self, n: int, d: int) -> float:
        """Default penalty: 2/(n*d), an AIC-like 2-per-edge penalty under
        the averaged likelihood normalization."""
        if self.sparsity_weight is not None:
            return float(self.sparsity_weight)
        return 2.0 / (n * d)


@dataclass(frozen=True)
class ScoreValue:
    ad: float
    sparsity: int
    total: float
    sparsity_weight: float = 0.0

    def to_json(self) -> dict:
        return {
            "ad": self.ad,
            "sparsity": self.sparsity,
            "total": self.total,
            "lambda": self.sparsity_weight,
        }


class ScoreEngine:
    """Scores DAGs against one dataset under one configuration, caching
    per-(node, parents) fits and AD terms so successive scores of
    neighboring graphs cost only the changed nodes.

    A cached fit keeps its coefficients, sigma, residual sum of squares
    and transforms but not its n residuals, so an entry costs O(k), not
    O(n); node_fit re-derives the residuals when a caller needs them.
    """

    def __init__(self, dataset: Dataset, config: ScoreConfig | None = None):
        self.dataset = dataset
        self.config = config if config is not None else ScoreConfig()
        self.sparsity_weight = self.config.resolve_lambda(dataset.n, dataset.d)
        self._values = dataset.values
        # (node, parents) -> (the fit with residual_samples None, its AD term)
        self._cache: dict[tuple[int, tuple[int, ...]], tuple[FittedNode, float]] = {}
        # per column: its parent transform and basis expansion, which
        # depend on the column alone
        self._columns: dict[int, tuple[ParentTransform, np.ndarray]] = {}

    # -- per-node machinery -------------------------------------------------

    def node_fit(self, node: int, parents: tuple[int, ...]) -> FittedNode:
        """The node's fit on parents with its residuals, as a new
        FittedNode on every call: on a cache miss the fit just made, on a
        hit the cached fit with its residuals re-derived from the
        coefficients and the cached column expansions (fit_node's
        arithmetic, so the same bits, without solving again)."""
        hit = self._cache.get((node, parents))
        if hit is None:
            return self._fit(node, parents)[0]
        fitted = hit[0]
        resid = rederive_residuals(fitted, self._values[:, node], [self._column(p) for p in parents])
        return dataclasses.replace(fitted, residual_samples=resid)

    def node_term(self, node: int, parents: tuple[int, ...]) -> float:
        hit = self._cache.get((node, parents))
        return hit[1] if hit is not None else self._fit(node, parents)[1]

    def _fit(self, node: int, parents: tuple[int, ...]) -> tuple[FittedNode, float]:
        """Fit the node on parents from scratch and cache the fit, less its
        residual vector, with its term; returns the whole fit and the term."""
        # the expanded columns replace the parent matrix, so none is gathered
        fitted = fit_node(
            node, parents, self._values[:, node], None, self.config.regressor, [self._column(p) for p in parents]
        )
        term = self._term_from_fit(fitted)
        self._cache[(node, parents)] = (dataclasses.replace(fitted, residual_samples=None), term)
        return fitted, term

    def _column(self, p: int) -> tuple[ParentTransform, np.ndarray]:
        hit = self._columns.get(p)
        if hit is None:
            hit = self._columns[p] = expand_column(self._values[:, p], self.config.regressor)
        return hit

    def refit_term(self, node: int, parents: tuple[int, ...]) -> float:
        """Recompute this node's fit and AD term from scratch, storing the
        result. Refinement calls this for every node a move changes, so
        each step pays the full refit cost the complexity model assumes;
        the stored fits are still reusable afterwards (e.g. by
        training-set synthesis)."""
        return self._fit(node, parents)[1]

    @staticmethod
    def _term_from_fit(fitted: FittedNode) -> float:
        """Mean Gaussian log-density of the node's residuals under the
        fitted sigma."""
        s2 = fitted.residual_sigma**2
        msr = fitted.residual_ss / fitted.residual_samples.shape[0]
        return -0.5 * (_LOG_2PI + math.log(s2)) - msr / (2.0 * s2)

    # -- whole-graph scores --------------------------------------------------

    def combine_terms(self, terms) -> float:
        """Per-node AD terms -> graph AD, their mean over the d nodes.
        Summation via fsum in node order, so incremental rescoring and a
        full rescore of the same graph agree exactly."""
        return math.fsum(terms) / self.dataset.d

    def total_from_ad(self, ad_value: float, edge_count: int) -> float:
        """The total score: AD minus the sparsity penalty."""
        return ad_value - self.sparsity_weight * edge_count

    def value_from_ad(self, ad_value: float, edge_count: int) -> ScoreValue:
        return ScoreValue(
            ad=ad_value,
            sparsity=edge_count,
            total=self.total_from_ad(ad_value, edge_count),
            sparsity_weight=self.sparsity_weight,
        )

    def ad(self, dag: Dag) -> float:
        if dag.d != self.dataset.d:
            raise StructuralInputError(f"dag d={dag.d} vs dataset d={self.dataset.d}")
        return self.combine_terms(self.node_term(j, dag.parents(j)) for j in range(dag.d))

    def score(self, dag: Dag) -> ScoreValue:
        return self.value_from_ad(self.ad(dag), dag.edge_count)

    def cache_size(self) -> int:
        return len(self._cache)

