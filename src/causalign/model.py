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

import collections
import contextlib
import copy
import json
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
from .sim import FittedNode, FittedScm, check_in_degree, sample_from_fitted, skip_sample
from .scoring import ScoreEngine

__all__ = [
    "PAIR_FEATURE_NAMES",
    "TrainingSet",
    "TrainingFeatures",
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
    """Standardized midranks of every row of a (rows, n) array.

    Rank mean is exactly (n+1)/2. One argsort ranks all rows; a row
    without ties takes the closed-form rank std sqrt((n^2-1)/12), and a
    row with ties takes its midranks and their std over the value-sorted
    rank vector, so the result never depends on the order the values
    arrived in.
    """
    rows, n = x.shape
    order = np.argsort(x, axis=1)  # any sort kind: tied values share one midrank
    # order as indices into the flattened rows: plain fancy indexing is
    # several times faster than take_along_axis / put_along_axis here
    flat = order + n * np.arange(rows)[:, None]
    sx = x.ravel()[flat]
    mu = (n + 1) / 2.0
    out = np.empty((rows, n))
    out.ravel()[flat] = (np.arange(1, n + 1, dtype=float) - mu) / math.sqrt((n * n - 1) / 12.0)
    tied = sx[:, 1:] == sx[:, :-1]
    for row in np.flatnonzero(tied.any(axis=1)):
        boundaries = np.flatnonzero(~tied[row]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        mid = (starts + ends + 1) / 2.0
        ranks_sorted = np.repeat(mid, ends - starts)
        sd = float(np.sqrt(np.mean((ranks_sorted - mu) ** 2)))
        out[row, order[row]] = (ranks_sorted - mu) / sd if sd else 0.0
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of two arrays that broadcast
    against each other, each over contiguous vectors. np.vecdot runs the
    same BLAS ddot per vector pair that np.dot runs on a single pair, so
    each value equals that pair's np.dot (which the fallback calls)."""
    if hasattr(np, "vecdot"):
        return np.vecdot(a, b)
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = np.dot(a[idx], b[idx])
    return out


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
    per-source Gram product and per-target gemv that the two-dimensional
    products run. The passes are stacked over all d columns at once
    (standardization, moments, the pairwise correlation dots, the
    sources' Fourier designs, their Gram matrices and one batched
    inverse, and one argsort for the ranks), so the only Python loops
    left are the midranks of tied columns and the per-source target fit.
    Axis reductions of the whole matrix are never used (they are not
    bitwise stable under column reordering), so a value never depends on
    which other columns exist and permuting variable labels permutes the
    features bit for bit.
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
        live = np.flatnonzero(~constant)
        rz[live] = _rank_std(cols[live])
        self.pearson = self._correlations(self._z)
        self.spearman = self._correlations(rz)

    def _correlations(self, z: np.ndarray) -> np.ndarray:
        """Correlation matrix from standardized rows, one dot per ordered
        pair in a single _rowdot of every row against every row. A dot
        does not depend on its operands' order, so the result is exactly
        symmetric, and broadcasting gathers no row copies."""
        out = _rowdot(z[:, None, :], z[None, :, :]) / self.n
        np.fill_diagonal(out, 1.0)
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

        The (d, n, 6) designs, their Gram matrices (one product per
        source), one batched inverse and the standardized |source| rows
        are built for all sources in stacked passes; the loop over
        sources keeps only the per-target fit (one gemv per target) and
        the residual reductions.
        """
        ratio = np.zeros((self.d, self.d))
        corr = np.zeros((self.d, self.d))
        live = np.flatnonzero(self.std != 0.0)
        z = self._z
        design = np.empty((self.d, self.n, 6))
        design[:, :, 0] = 1.0
        design[:, :, 1] = z
        design[:, :, 2] = np.sin(z)
        design[:, :, 3] = np.cos(z)
        design[:, :, 4] = np.sin(2 * z)
        design[:, :, 5] = np.cos(2 * z)
        design_t = design.transpose(0, 2, 1)
        gram = design_t @ design
        gram[:, np.arange(1, 6), np.arange(1, 6)] += _DIR_RIDGE  # not the intercept
        inv_gram = np.linalg.inv(gram)
        _, _, mag_src = _standardize_rows(np.abs(z), self._ones)
        for src in range(self.d):
            dsts = live[live != src]
            if dsts.size == 0:
                continue
            # stacked matrix @ column products: one gemv per target; the
            # gathered targets are overwritten by their residuals
            resid = z[dsts]
            coef = inv_gram[src] @ (design_t[src] @ resid[:, :, None])
            resid -= (design[src] @ coef)[:, :, 0]
            _, _, mag_resid = _standardize_rows(np.abs(resid), self._ones)
            corr[src, dsts] = _rowdot(mag_resid, mag_src[src]) / self.n
            resid -= (_rowdot(resid, self._ones) / self.n)[:, None]
            ratio[src, dsts] = _rowdot(resid, resid) / self.n
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


def _pair_index(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Source and target index arrays of a list of ordered pairs."""
    src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return src, dst


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
    src, dst = _pair_index(pairs)
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
    paired graph.

    It is generate_training_set's default sink: start records the
    provenance and add appends the pair, so every dataset stays in
    memory."""

    instances: list[tuple[Dataset, Dag]]
    provenance: dict = field(default_factory=dict)

    def start(self, count: int, provenance: dict) -> None:
        self.provenance = provenance

    def add(self, dataset: Dataset, graph: Dag) -> None:
        self.instances.append((dataset, graph))


def generate_training_set(graphs: list[Dag], engine: ScoreEngine, rng: np.random.Generator, sink=None):
    """Fit each graph's mechanisms on the engine's dataset and
    forward-sample one aligned dataset of the same size per graph,
    bootstrapping each node's fitted residuals as its noise.

    Graphs violating the in-degree cap, read from their in-degrees, are
    skipped with a warning; if every graph is skipped the cap error
    propagates. One serial pass then records rng's state before each kept
    graph's dataset (skip_sample advances it past one dataset's draws,
    which depend on the graph's d and the data's n alone), and _Draw draws
    dataset k from state k with node fits from the engine's cache, in the
    process that draws it: on every core this process may use, here and
    in forked worker processes that inherit the engine (see
    _synthesis_workers and ordered_map), or only here when there is one.
    Either way the datasets are the bytes a serial loop on rng draws, and
    rng ends in the state that loop leaves it in. The first draw that
    fails raises its error here, BrokenProcessPool when a worker died.

    sink.start(count, provenance) receives the number kept and the
    provenance, then, in graph order, sink.add(dataset, graph) receives
    each dataset as soon as it arrives, and nothing here keeps it. A sink
    whose `takes_features` is true also gets featurize_all's rows of each
    dataset, computed where the dataset was drawn, through
    sink.add_features(feats, graph); one whose `takes_data` is false gets
    no datasets, so none is sent back from a worker. Returns the sink, by
    default a new TrainingSet holding every pair.
    """
    if not graphs:
        raise ConfigError("graphs list is empty")
    dataset = engine.dataset
    kept: list[Dag] = []
    provenance: dict = {"source_indices": [], "skipped_indices": [], "n": dataset.n}
    for idx, g in enumerate(graphs):
        if g.d != dataset.d:
            raise StructuralInputError(f"graph {idx} has d={g.d}, dataset d={dataset.d}")
        try:
            for node, degree in enumerate(g.in_degrees().tolist()):
                check_in_degree(node, degree, engine.config.regressor)
        except DegreeCapError as exc:
            warnings.warn(f"skipping graph {idx}: {exc}", RuntimeWarning, stacklevel=2)
            provenance["skipped_indices"].append(idx)
            continue
        provenance["source_indices"].append(idx)
        kept.append(g)
    if not kept:
        raise DegreeCapError("every graph exceeded the in-degree cap")
    sink = sink if sink is not None else TrainingSet(instances=[])
    sink.start(len(kept), provenance)
    states = []
    for g in kept:
        states.append(rng.bit_generator.state)
        skip_sample(g, dataset.n, dataset.n, rng)
    draw = _Draw(
        kept,
        engine,
        states,
        rng,
        keep_data=getattr(sink, "takes_data", True),
        featurize=getattr(sink, "takes_features", False),
    )

    def deliver(k: int, result) -> None:
        if isinstance(result, Exception):
            raise result
        drawn, feats = result
        if drawn is not None:
            sink.add(drawn, kept[k])
        if feats is not None:
            sink.add_features(feats, kept[k])

    ordered_map(draw, len(kept), _synthesis_workers(), deliver, caller_works=True)
    return sink


class _Draw:
    """Dataset k of a training set, drawn from its recorded generator
    state, and (if asked) its pair features, in whichever process calls
    it: (dataset or None, feats or None).

    Graph k's node fits come from engine.node_fit, which re-derives their
    residuals; a call keeps those of the keys graph k shares with the
    graph this process drew last (a search's tail shares most) and drops
    the rest first, so no process holds more than d residual vectors."""

    def __init__(self, graphs: list[Dag], engine: ScoreEngine, states: list[dict], rng, keep_data, featurize):
        self.graphs = graphs
        self.engine = engine
        self.states = states
        self.rng = copy.deepcopy(rng)  # its state is set per dataset
        self.keep_data = keep_data
        self.featurize = featurize
        self.fits: dict[tuple[int, tuple[int, ...]], FittedNode] = {}

    def __call__(self, k: int) -> tuple[Dataset | None, np.ndarray | None]:
        g = self.graphs[k]
        keys = [(node, g.parents(node)) for node in range(g.d)]
        self.fits = {key: self.fits[key] for key in keys if key in self.fits}
        self.fits.update({key: self.engine.node_fit(*key) for key in keys if key not in self.fits})
        fitted = FittedScm(dag=g, config=self.engine.config.regressor, nodes=[self.fits[key] for key in keys])
        self.rng.bit_generator.state = self.states[k]
        dataset = sample_from_fitted(fitted, self.engine.dataset.n, self.rng)
        feats = featurize_all(dataset)[1] if self.featurize else None
        return (dataset if self.keep_data else None), feats


# tasks in flight per forked worker when this process works too: enough to
# keep a worker busy while this process runs its own share and handles
# results, and the bound on the (dataset-sized) results waiting here
_IN_FLIGHT_PER_WORKER = 2


def _synthesis_workers() -> int:
    """Processes that draw a training set, this one included: one per
    core this process may run on; 1 inside a pool worker, so a suite's
    workers never nest pools, and where the affinity mask is
    unavailable."""
    if multiprocessing.parent_process() is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


_pool_fn = None  # set in each forked worker by its initializer


def _install_fn(fn) -> None:
    global _pool_fn
    _pool_fn = fn


def _pool_call(k: int):
    return _pool_fn(k)


def _fork_pool(fn, workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_install_fn, initargs=(fn,)
    )


def _outcome(call, *args):
    """call(*args), or the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def ordered_map(fn, count: int, workers: int, deliver, caller_works: bool = False) -> None:
    """deliver(k, fn(k)) for k = 0, ..., count - 1, in order, with the
    exception fn(k) raises delivered in place of its result. A result is
    dropped once delivered.

    The calls run in p = min(workers, count) processes. With caller_works
    this process is one of them and calls fn(k) itself for k = 0, p, 2p,
    ...; each forked worker then has at most _IN_FLIGHT_PER_WORKER tasks
    submitted ahead, which bounds the results waiting here. Otherwise
    this process only waits, all p are forked workers and every task is
    submitted at once, so no worker idles behind a slow task at the head.
    With one process, or without fork, this process makes every call and
    no pool is made.

    Fork hands fn to the workers through the pool's initializer unpickled
    (a Dag cannot be pickled), before the pool starts any thread. When a
    worker dies, the pool is replaced and each task the break failed is
    rerun alone in a one-worker pool, up to p - caller_works of them side
    by side: one that kills that worker too delivers BrokenProcessPool.
    On the way out, an exception from deliver included, tasks not yet
    started are cancelled and every worker is joined."""
    procs = min(workers, count) if "fork" in multiprocessing.get_all_start_methods() else 1
    if procs <= 1:
        for k in range(count):
            deliver(k, _outcome(fn, k))
        return
    forked = procs - caller_works
    window = forked * _IN_FLIGHT_PER_WORKER if caller_works else count
    mine = range(0, count, procs) if caller_works else range(0)
    queue = collections.deque(k for k in range(count) if k not in mine)
    pending: collections.deque = collections.deque()  # [k, future, rerun alone] in task order
    pool = _fork_pool(fn, forked)
    try:
        for k in range(count):
            while len(pending) < window and queue:
                try:
                    pending.append([queue[0], pool.submit(_pool_call, queue[0]), False])
                except BrokenProcessPool:  # a worker died since the last result
                    pool = _replace_broken(pool, fn, forked, pending)
                    continue
                queue.popleft()
            if k in mine:
                deliver(k, _outcome(fn, k))
                continue
            if _broken_by_pool(pending[0]):
                pool = _replace_broken(pool, fn, forked, pending)
            deliver(k, _outcome(pending.popleft()[1].result))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _replace_broken(pool: ProcessPoolExecutor, fn, workers: int, pending) -> ProcessPoolExecutor:
    """A fresh pool of `workers` in place of the broken `pool`, once every
    pending task the break failed has been rerun alone: each in its own
    one-worker pool, `workers` of them at a time."""
    pool.shutdown(wait=True)  # the break has failed every unfinished task
    broken = [entry for entry in pending if _broken_by_pool(entry)]
    for start in range(0, len(broken), workers):
        with contextlib.ExitStack() as solos:  # joins each solo worker on exit
            for entry in broken[start : start + workers]:
                solo = solos.enter_context(_fork_pool(fn, 1))
                entry[1:] = solo.submit(_pool_call, entry[0]), True
    return _fork_pool(fn, workers)


def _broken_by_pool(entry: list) -> bool:
    """Whether a pending [k, future, rerun alone] task failed because its
    pool broke, and has not been rerun alone yet; waits for the task."""
    return not entry[2] and isinstance(entry[1].exception(), BrokenProcessPool)


class TrainingFeatures:
    """A full run's training-set sink on d nodes: start sizes the pair
    feature and edge label rows from the number of kept graphs, and
    add_features stores each dataset's featurize_all rows, computed where
    it was drawn, as the next block. With an io.TrainingSetWriter, start
    and add pass the provenance and each dataset on to it; without one,
    takes_data is false, so no dataset comes back from a worker. A
    training set so costs its feature rows, O(K·d²) floats, rather than
    its datasets' O(K·n·d). The rows are stored as given: train checks
    that they are finite."""

    takes_features = True

    def __init__(self, d: int, writer=None):
        self.pairs = d * (d - 1)
        self.writer = writer
        self.takes_data = writer is not None
        self.count = self.filled = 0
        self.feats = self.labels = None

    def start(self, count: int, provenance: dict) -> None:
        if self.writer is not None:
            self.writer.start(count, provenance)
        self.count = count
        self.feats = np.empty((count * self.pairs, len(PAIR_FEATURE_NAMES)))
        self.labels = np.empty(count * self.pairs)

    def add(self, dataset: Dataset, graph: Dag) -> None:
        self.writer.add(dataset, graph)

    def add_features(self, feats: np.ndarray, graph: Dag) -> None:
        """Store one dataset's featurize_all rows, labelled from its
        graph."""
        block = slice(self.filled, self.filled + feats.shape[0])
        self.feats[block] = feats
        self.labels[block] = graph.adjacency[_pair_index(pair_order(graph.d))]
        self.filled = block.stop


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _tanh_derivative(h: np.ndarray) -> np.ndarray:
    """1 - h**2 for h = tanh(z), computed in place: h is overwritten."""
    np.multiply(h, h, out=h)
    return np.subtract(1.0, h, out=h)


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
        out like theta and freshly allocated on every call.

        The step holds three batch-sized arrays: each hidden layer's
        pre-activation is turned into its tanh, and later into the tanh
        derivative, in place, the second layer's buffer then takes the
        first layer's backward signal, and every gradient block is
        written straight into its view of the gradient vector.
        """
        batch = fn.shape[0]
        h1 = fn @ self.w1
        h1 += self.b1
        np.tanh(h1, out=h1)
        h2 = h1 @ self.w2
        h2 += self.b2
        np.tanh(h2, out=h2)
        z = h2 @ self.w3 + self.b3
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        p = _sigmoid(z)
        dz = (p - y) / batch
        grad = np.empty_like(self.theta)
        g = _param_views(grad, self.n_features)
        np.matmul(h2.T, dz, out=g["w3"])
        g["b3"][...] = dz.sum()
        dz2 = dz[:, None] * self.w3
        dz2 *= _tanh_derivative(h2)
        np.matmul(h1.T, dz2, out=g["w2"])
        np.sum(dz2, axis=0, out=g["b2"])
        dz1 = np.matmul(dz2, self.w2.T, out=h2)  # h2 is spent
        dz1 *= _tanh_derivative(h1)
        np.matmul(fn.T, dz1, out=g["w1"])
        np.sum(dz1, axis=0, out=g["b1"])
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


def train(training_set: TrainingSet | TrainingFeatures, config: TrainConfig | None = None) -> EdgePredictor:
    """Featurize every instance of a TrainingSet on one d (a
    TrainingFeatures holds them already), check that every feature is
    finite (InputQualityError otherwise), freeze normalization
    statistics, and run mini-batch gradient descent with momentum on mean
    BCE, seeded from config.seed; the momentum step updates theta in
    place. The feature matrix is normalized in place."""
    config = config if config is not None else TrainConfig()
    rng = np.random.default_rng(config.seed)
    features = training_set
    if isinstance(training_set, TrainingSet):
        sizes = {data.d for data, _ in training_set.instances}
        if len(sizes) != 1:
            raise StructuralInputError(f"a training set needs instances on one d, got d in {sorted(sizes)}")
        features = TrainingFeatures(sizes.pop())
        features.start(len(training_set.instances), training_set.provenance)
        for data, g in training_set.instances:
            features.add_features(featurize_all(data)[1], g)
    fn, labels = features.feats, features.labels
    if not 0 < features.filled == len(labels):
        raise StructuralInputError(f"training features fill {features.filled} of {len(labels)} rows")
    if not np.isfinite(fn).all():
        raise InputQualityError("non-finite pair features in training set")

    mean = fn.mean(axis=0)
    std = fn.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    fn -= mean
    fn /= std

    model = EdgePredictor.initialize(fn.shape[1], config, rng)
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
            grad *= config.learning_rate
            velocity -= grad
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
    out[_pair_index(pairs)] = probs
    return out


def knn_score_predict(graphs: list[Dag], totals: list[float]) -> Dag:
    """1-nearest-neighbor on the score: return the candidate graph whose
    total score against the test dataset, totals[k] for graphs[k], is
    highest (ties -> lowest index). A run passes its collected graphs and
    the totals its search held for them, so selection scores nothing."""
    if len(totals) != len(graphs):
        raise StructuralInputError(f"{len(graphs)} graphs but {len(totals)} totals")
    return graphs[int(np.argmax(totals))]
