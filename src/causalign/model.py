"""Supervised edge prediction from instance-aligned synthetic training sets.

The training set pairs datasets sampled from fitted mechanisms with the
graphs that induced them. Each ordered node pair is summarized by a fixed
16-dimensional feature vector and a small MLP (two tanh hidden layers of
width 64, sigmoid output) is trained with mini-batch gradient descent to
predict edge membership. A 1-nearest-neighbor reduction that just returns
the best-scoring collected graph is the degenerate special case: it reads
only the graphs and the score, so it needs no synthesized data.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegreeCapError,
    InputQualityError,
    StructuralInputError,
)
from .graph import Dag
from .scm import Dataset
from .sim import FittedScm, sample_from_fitted
from .scoring import ScoreEngine

__all__ = [
    "PAIR_FEATURE_NAMES",
    "TrainingSet",
    "TrainConfig",
    "EdgePredictor",
    "pair_order",
    "featurize_all",
    "generate_training_set",
    "train",
    "predict",
    "knn_score_predict",
]

PAIR_FEATURE_NAMES = (
    "mean_src",
    "std_src",
    "skew_src",
    "kurt_src",
    "mean_dst",
    "std_dst",
    "skew_dst",
    "kurt_dst",
    "pearson",
    "spearman",
    "fwd_resid_var_ratio",
    "fwd_resid_mag_corr",
    "rev_resid_var_ratio",
    "rev_resid_mag_corr",
    "partial_abs_max",
    "partial_abs_mean",
)

_HIDDEN = (64, 64)
_DIR_RIDGE = 1e-6


def _rank_std(x: np.ndarray) -> np.ndarray:
    """Standardized midranks in one pass.

    Rank mean is exactly (n+1)/2; without ties the rank std has the
    closed form sqrt((n^2-1)/12), and with ties it is computed over the
    value-sorted rank vector, so the result never depends on the order
    the values arrived in.
    """
    n = x.shape[0]
    order = np.argsort(x)  # any sort kind: tied values share one midrank
    sx = x[order]
    mu = (n + 1) / 2.0
    tied = sx[1:] == sx[:-1]
    if not tied.any():
        sd = math.sqrt((n * n - 1) / 12.0)
        out = np.empty(n, dtype=float)
        out[order] = np.arange(1, n + 1, dtype=float)
        out -= mu
        out /= sd
        return out
    boundaries = np.flatnonzero(~tied) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    mid = (starts + ends + 1) / 2.0
    ranks_sorted = np.repeat(mid, ends - starts)
    sd = float(np.sqrt(np.mean((ranks_sorted - mu) ** 2)))
    if sd == 0.0:
        return np.zeros(n, dtype=float)
    out = np.empty(n, dtype=float)
    out[order] = ranks_sorted
    out -= mu
    out /= sd
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of contiguous rows (b may be one shared
    vector). np.vecdot runs the same BLAS ddot per row that np.dot runs on
    a single pair of vectors, so each value equals that pair's np.dot."""
    if hasattr(np, "vecdot"):
        return np.vecdot(a, b)
    b = np.broadcast_to(b, a.shape)
    return np.array([np.dot(x, y) for x, y in zip(a, b)], dtype=float)


def _standardize_rows(x: np.ndarray, ones: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, population stds and z-scored rows of a (rows, n) array;
    a row with zero std standardizes to zeros."""
    n = x.shape[1]
    mean = _rowdot(x, ones) / n
    centered = x - mean[:, None]
    std = np.sqrt(_rowdot(centered, centered) / n)
    constant = std == 0.0
    z = centered / np.where(constant, 1.0, std)[:, None]
    z[constant] = 0.0
    return mean, std, z


class _DatasetStats:
    """Per-dataset statistics behind every pair's features, computed in
    array passes over the (d, n) matrix of contiguous columns.

    Every reduction is one BLAS call per column or per pair: a ddot per
    row through _rowdot, and for the direction regressions the same
    per-target gemv that a matrix-vector product issues, stacked over the
    targets of one source. Axis reductions of the whole matrix are never
    used (they are not bitwise stable under column reordering), so a value
    never depends on which other columns exist and permuting variable
    labels permutes the features bit for bit.
    """

    def __init__(self, values: np.ndarray):
        self.n, self.d = values.shape
        self._ones = np.ones(self.n)
        cols = np.ascontiguousarray(values.T, dtype=float)
        self.mean, self.std, self._z = _standardize_rows(cols, self._ones)
        constant = self.std == 0.0
        z2 = self._z * self._z
        self.skew = np.where(constant, 0.0, _rowdot(z2, self._z) / self.n)
        self.kurt = np.where(constant, 0.0, _rowdot(z2, z2) / self.n - 3.0)
        rz = np.zeros_like(cols)
        for j in np.flatnonzero(~constant):
            rz[j] = _rank_std(cols[j])
        self.pearson = self._correlations(self._z)
        self.spearman = self._correlations(rz)

    def _correlations(self, z: np.ndarray) -> np.ndarray:
        """Correlation matrix from standardized rows, one dot per pair."""
        out = np.eye(self.d)
        for i in range(self.d - 1):
            r = _rowdot(z[i + 1 :], z[i]) / self.n
            out[i, i + 1 :] = r
            out[i + 1 :, i] = r
        return out

    def direction_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Residual variance ratio and residual-magnitude correlation for
        every regression dst ~ basis(src), as (src, dst) matrices.

        The basis is intercept, linear and two Fourier harmonics of the
        standardized source, fitted by ridge through the inverse penalized
        Gram. The magnitude correlation is Pearson between |residual| and
        |standardized source|: a plain signed correlation is ~0 for any
        least-squares fit, while magnitude dependence (heteroscedastic
        bowtie) is exactly the anti-causal footprint of additive-noise
        data, which is what this feature is for. A constant target gives
        (0, 0).
        """
        ratio = np.zeros((self.d, self.d))
        corr = np.zeros((self.d, self.d))
        for src in range(self.d):
            dsts = [k for k in range(self.d) if k != src and self.std[k] != 0.0]
            if not dsts:
                continue
            t = self._z[src]
            design = np.column_stack(
                [self._ones, t, np.sin(t), np.cos(t), np.sin(2 * t), np.cos(2 * t)]
            )
            gram = design.T @ design
            penalty = np.full(design.shape[1], _DIR_RIDGE)
            penalty[0] = 0.0
            gram[np.diag_indices_from(gram)] += penalty
            inv_gram = np.linalg.inv(gram)
            _, _, mag_src = _standardize_rows(np.abs(t)[None, :], self._ones)
            # stacked matrix @ column products: one gemv per target
            targets = self._z[dsts]
            coef = inv_gram @ (design.T @ targets[:, :, None])
            resid = targets - (design @ coef)[:, :, 0]
            centered = resid - (_rowdot(resid, self._ones) / self.n)[:, None]
            ratio[src, dsts] = _rowdot(centered, centered) / self.n
            _, _, mag_resid = _standardize_rows(np.abs(resid), self._ones)
            corr[src, dsts] = _rowdot(mag_resid, mag_src[0]) / self.n
        return ratio, corr

    def partial_summaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Max and mean of |partial corr(i, j | k)| over single conditioners
        k, as symmetric matrices; each mean sums in sorted order so it is
        independent of node labelling. Without a conditioner (d <= 2)
        both are |pearson|."""
        r = self.pearson
        if self.d <= 2:
            base = np.abs(r)
            return base, base
        iu, ju = np.triu_indices(self.d, 1)
        one_minus = 1.0 - r**2
        denom_sq = one_minus[iu] * one_minus[ju]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs((r[iu, ju][:, None] - r[iu] * r[ju]) / np.sqrt(denom_sq))
        vals[denom_sq <= 1e-12] = 0.0
        # the two columns k = i and k = j are not conditioners: sort them
        # below every |partial| and drop them
        rows = np.arange(iu.size)
        vals[rows, iu] = vals[rows, ju] = -1.0
        vals.sort(axis=1)
        vals = vals[:, 2:]
        p_max = np.zeros((self.d, self.d))
        p_mean = np.zeros((self.d, self.d))
        p_max[iu, ju] = p_max[ju, iu] = vals[:, -1]
        p_mean[iu, ju] = p_mean[ju, iu] = vals.mean(axis=1)
        return p_max, p_mean


def pair_order(d: int) -> list[tuple[int, int]]:
    """Row order used by featurize_all and the flattened label vectors."""
    return [(i, j) for i in range(d) for j in range(d) if i != j]


def featurize_all(dataset: Dataset) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Features for every ordered pair, one row per pair in pair_order.

    The per-dataset statistics are computed once in array passes and the
    16 columns are gathered by pair index. The values are byte-equal to
    the per-pair definition kept as an oracle in tests/oracles.py. They
    are a deterministic function of the data; swapping a pair's endpoints
    swaps its per-endpoint and per-direction blocks and leaves the
    symmetric entries unchanged.
    """
    stats = _DatasetStats(dataset.values)
    pairs = pair_order(dataset.d)
    src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    ratio, corr = stats.direction_matrices()
    p_max, p_mean = stats.partial_summaries()
    feats = np.empty((len(pairs), len(PAIR_FEATURE_NAMES)))
    for col, per_node in enumerate((stats.mean, stats.std, stats.skew, stats.kurt)):
        feats[:, col] = per_node[src]
        feats[:, col + 4] = per_node[dst]
    for col, matrix in enumerate((stats.pearson, stats.spearman), start=8):
        feats[:, col] = matrix[src, dst]
    feats[:, 10] = ratio[src, dst]
    feats[:, 11] = corr[src, dst]
    feats[:, 12] = ratio[dst, src]
    feats[:, 13] = corr[dst, src]
    feats[:, 14] = p_max[src, dst]
    feats[:, 15] = p_mean[src, dst]
    return pairs, feats


# ----------------------------------------------------------------------
# training-set synthesis


@dataclass
class TrainingSet:
    """Instance-aligned training data: (dataset, graph) pairs where each
    dataset was sampled from mechanisms fitted on the test data under the
    paired graph."""

    instances: list[tuple[Dataset, Dag]]
    provenance: dict = field(default_factory=dict)


def generate_training_set(graphs: list[Dag], engine: ScoreEngine, rng: np.random.Generator) -> TrainingSet:
    """Fit each graph's mechanisms on the engine's dataset and
    forward-sample one aligned dataset of the same size per graph,
    bootstrapping each node's fitted residuals as its noise.

    Node fits come from the engine's (node, parent set) cache, which
    collected ensembles overlap heavily and a search has mostly filled
    already. Graphs violating the in-degree cap are skipped with a
    warning; if every graph is skipped the cap error propagates.
    """
    if not graphs:
        raise ConfigError("graphs list is empty")
    dataset = engine.dataset
    instances: list[tuple[Dataset, Dag]] = []
    kept: list[int] = []
    skipped: list[int] = []
    for idx, g in enumerate(graphs):
        if g.d != dataset.d:
            raise StructuralInputError(f"graph {idx} has d={g.d}, dataset d={dataset.d}")
        try:
            nodes = [engine.node_fit(node, g.parents(node)) for node in range(g.d)]
        except DegreeCapError as exc:
            warnings.warn(f"skipping graph {idx}: {exc}", RuntimeWarning, stacklevel=2)
            skipped.append(idx)
            continue
        fitted = FittedScm(dag=g, config=engine.config.regressor, nodes=nodes)
        sampled = sample_from_fitted(fitted, dataset.n, rng)
        instances.append((sampled, g))
        kept.append(idx)
    if not instances:
        raise DegreeCapError("every graph exceeded the in-degree cap")
    return TrainingSet(
        instances=instances,
        provenance={
            "source_indices": kept,
            "skipped_indices": skipped,
            "n": dataset.n,
        },
    )


# ----------------------------------------------------------------------
# MLP edge predictor


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    epochs: int = 20
    batch_size: int = 256
    momentum: float = 0.9
    seed: int | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _param_layout(n_features: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Name and shape of every MLP parameter, in their order in theta."""
    h1, h2 = _HIDDEN
    return (
        ("w1", (n_features, h1)),
        ("b1", (h1,)),
        ("w2", (h1, h2)),
        ("b2", (h2,)),
        ("w3", (h2,)),
        ("b3", ()),
    )


def _param_views(vec: np.ndarray, n_features: int) -> dict[str, np.ndarray]:
    """One view of vec per parameter, shaped and ordered by _param_layout."""
    views = {}
    pos = 0
    for name, shape in _param_layout(n_features):
        size = math.prod(shape)
        views[name] = vec[pos : pos + size].reshape(shape)
        pos += size
    return views


class EdgePredictor:
    """Two-hidden-layer tanh MLP with sigmoid output over pair features.

    Every parameter lives in one float64 vector, `theta`; the attributes
    w1, b1, w2, b2, w3 and b3 are views of it, so writing into theta (as
    the optimizer does, in place) changes the network. Normalization
    statistics are frozen at training time and applied to every later
    input. All math is plain numpy with analytic gradients.
    """

    def __init__(self, theta, feature_mean, feature_std, config: TrainConfig, epoch_losses=None):
        self.theta = np.asarray(theta, dtype=float)
        self.feature_mean = np.asarray(feature_mean, dtype=float)
        self.feature_std = np.asarray(feature_std, dtype=float)
        vars(self).update(_param_views(self.theta, self.feature_mean.shape[0]))
        self.config = config
        self.epoch_losses = list(epoch_losses) if epoch_losses is not None else []

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]

    @staticmethod
    def initialize(n_features: int, config: TrainConfig, rng: np.random.Generator) -> "EdgePredictor":
        """Glorot-uniform weights, drawn in layout order, and zero biases."""
        theta = np.zeros(sum(math.prod(shape) for _, shape in _param_layout(n_features)))
        for name, view in _param_views(theta, n_features).items():
            if name.startswith("w"):
                fan_in, fan_out = (*view.shape, 1)[:2]  # w3 is one output column
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                view[...] = rng.uniform(-limit, limit, size=view.shape)
        return EdgePredictor(theta, np.zeros(n_features), np.ones(n_features), config)

    # -- math ---------------------------------------------------------------

    def normalize(self, feats: np.ndarray) -> np.ndarray:
        return (feats - self.feature_mean) / self.feature_std

    def logits(self, fn: np.ndarray) -> np.ndarray:
        h1 = np.tanh(fn @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3

    def forward(self, fn: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(fn))

    def loss_and_grads(self, fn: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean binary cross-entropy on one batch and its gradient, laid
        out like theta."""
        batch = fn.shape[0]
        z1 = fn @ self.w1 + self.b1
        h1 = np.tanh(z1)
        z2 = h1 @ self.w2 + self.b2
        h2 = np.tanh(z2)
        z = h2 @ self.w3 + self.b3
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        p = _sigmoid(z)
        dz = (p - y) / batch
        grad = np.empty_like(self.theta)
        g = _param_views(grad, self.n_features)
        g["w3"][...] = h2.T @ dz
        g["b3"][...] = dz.sum()
        dh2 = np.outer(dz, self.w3)
        dz2 = dh2 * (1.0 - h2 * h2)
        g["w2"][...] = h1.T @ dz2
        g["b2"][...] = dz2.sum(axis=0)
        dh1 = dz2 @ self.w2.T
        dz1 = dh1 * (1.0 - h1 * h1)
        g["w1"][...] = fn.T @ dz1
        g["b1"][...] = dz1.sum(axis=0)
        return loss, grad

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "arch": {"n_features": self.n_features, "hidden": list(_HIDDEN)},
                "weights": {
                    name: view.tolist()
                    for name, view in _param_views(self.theta, self.n_features).items()
                },
                "feature_mean": self.feature_mean.tolist(),
                "feature_std": self.feature_std.tolist(),
                "feature_names": list(PAIR_FEATURE_NAMES),
                "train_config": asdict(self.config),
                "epoch_losses": self.epoch_losses,
            }
        )

    @staticmethod
    def from_json(text: str) -> "EdgePredictor":
        obj = json.loads(text)
        layout = _param_layout(len(obj["feature_mean"]))
        return EdgePredictor(
            np.concatenate([np.ravel(obj["weights"][name]) for name, _ in layout]),
            obj["feature_mean"],
            obj["feature_std"],
            TrainConfig(**obj["train_config"]),
            obj.get("epoch_losses"),
        )


def train(training_set: TrainingSet, config: TrainConfig | None = None) -> EdgePredictor:
    """Featurize every instance, freeze normalization statistics, and run
    mini-batch gradient descent with momentum on mean BCE, seeded from
    config.seed; the momentum step updates theta in place."""
    config = config if config is not None else TrainConfig()
    rng = np.random.default_rng(config.seed)
    feats_list = []
    labels_list = []
    for data, g in training_set.instances:
        pairs, feats = featurize_all(data)
        if not np.isfinite(feats).all():
            raise InputQualityError("non-finite pair features in training set")
        idx = np.asarray(pairs)
        labels_list.append(g.adjacency[idx[:, 0], idx[:, 1]].astype(float))
        feats_list.append(feats)
    feats = np.vstack(feats_list)
    labels = np.concatenate(labels_list)

    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    fn = (feats - mean) / std

    model = EdgePredictor.initialize(feats.shape[1], config, rng)
    model.feature_mean = mean
    model.feature_std = std

    velocity = np.zeros_like(model.theta)
    n = fn.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grad = model.loss_and_grads(fn[idx], labels[idx])
            velocity *= config.momentum
            velocity -= config.learning_rate * grad
            model.theta += velocity
            batch_losses.append(loss)
        model.epoch_losses.append(float(np.mean(batch_losses)))
    return model


def predict(predictor: EdgePredictor, dataset: Dataset) -> np.ndarray:
    """Edge-probability matrix for every ordered pair; diagonal is 0."""
    pairs, feats = featurize_all(dataset)
    if not np.isfinite(feats).all():
        raise InputQualityError("non-finite pair features at prediction time")
    if feats.shape[1] != predictor.n_features:
        raise StructuralInputError(
            f"predictor expects {predictor.n_features} features, got {feats.shape[1]}"
        )
    probs = predictor.forward(predictor.normalize(feats))
    out = np.zeros((dataset.d, dataset.d), dtype=float)
    for (i, j), p in zip(pairs, probs):
        out[i, j] = p
    return out


def knn_score_predict(graphs: list[Dag], engine: ScoreEngine) -> Dag:
    """1-nearest-neighbor on the score: return the candidate graph whose
    total engine score against the test dataset is highest (ties -> lowest
    index). A run passes its collected graphs and the engine its search
    filled, so graphs it visited cost no refit."""
    totals = np.array([engine.score(g).total for g in graphs])
    return graphs[int(np.argmax(totals))]
