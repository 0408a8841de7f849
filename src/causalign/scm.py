"""Synthetic structural causal models and out-of-distribution suites.

A model is a DAG plus one mechanism per node plus independent additive
noise: x_j = f_j(parents(j)) + eps_j. Three mechanism families are
generated (linear, random Fourier features, Chebyshev polynomials) and
three noise families (Gaussian, Uniform, Laplace), all parameterized so
the noise standard deviation equals the per-node scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputQualityError, StructuralInputError
from .graph import Dag, random_er, random_sf, topological_order

__all__ = [
    "MechanismFamily",
    "NoiseFamily",
    "GraphModel",
    "SpecTriple",
    "ShiftSetting",
    "MechanismSpec",
    "NoiseSpec",
    "ScmInstance",
    "Dataset",
    "CausalInstance",
    "ShiftSuite",
    "sample_scm",
    "eval_mechanism",
    "forward_sample",
    "generate_instance",
    "plan_shift_suite",
    "make_shift_suite",
]


class MechanismFamily(str, enum.Enum):
    LINEAR = "linear"
    RFF = "rff"
    CHEBYSHEV = "chebyshev"


class NoiseFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    LAPLACE = "laplace"


class GraphModel(str, enum.Enum):
    ER = "er"
    SF = "sf"


@dataclass(frozen=True)
class SpecTriple:
    """A data-generating setting: (mechanism, noise, graph model)."""

    mechanism: MechanismFamily
    noise: NoiseFamily
    graph_model: GraphModel

    def label(self) -> str:
        return f"{self.mechanism.value}_{self.noise.value}_{self.graph_model.value}"

    @staticmethod
    def parse(mechanism: str, noise: str, graph_model: str) -> "SpecTriple":
        try:
            return SpecTriple(
                MechanismFamily(mechanism.lower()),
                NoiseFamily(noise.lower()),
                GraphModel(graph_model.lower()),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class ShiftSetting(str, enum.Enum):
    IID = "iid"
    GRAPH_SHIFT = "graph_shift"
    NOISE_SHIFT = "noise_shift"
    MECHANISM_SHIFT = "mechanism_shift"
    COMPONENT_MIXED = "component_mixed"


# ----------------------------------------------------------------------
# mechanism parameterizations


@dataclass
class LinearNode:
    weights: np.ndarray  # (p,)


@dataclass
class RffNode:
    omega: np.ndarray  # (m, p) frequencies
    phase: np.ndarray  # (m,)
    weights: np.ndarray  # (m,) output weights


@dataclass
class ChebNode:
    coeffs: np.ndarray  # (p, degree) coefficient per (parent, degree index)


@dataclass
class MechanismSpec:
    """Per-node mechanism parameters for one family.

    node_params[j] holds the parameters of node j's function over its
    parents in ascending-index order; root nodes carry an empty parameter
    block and evaluate to 0.
    """

    family: MechanismFamily
    node_params: list
    meta: dict = field(default_factory=dict)


@dataclass
class NoiseSpec:
    """Per-node additive noise: family plus a scale vector with
    std(eps_j) == scales[j] for every family."""

    family: NoiseFamily
    scales: np.ndarray

    def sample_matrix(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an (n, d) noise matrix, columns in node-index order."""
        d = len(self.scales)
        out = np.empty((n, d), dtype=float)
        for j in range(d):
            s = float(self.scales[j])
            if self.family == NoiseFamily.GAUSSIAN:
                out[:, j] = rng.normal(0.0, s, size=n)
            elif self.family == NoiseFamily.UNIFORM:
                half = math.sqrt(3.0) * s
                out[:, j] = rng.uniform(-half, half, size=n)
            else:
                out[:, j] = rng.laplace(0.0, s / math.sqrt(2.0), size=n)
        return out


@dataclass
class ScmInstance:
    dag: Dag
    mechanisms: MechanismSpec
    noise: NoiseSpec
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.dag.d
        if len(self.mechanisms.node_params) != d or len(self.noise.scales) != d:
            raise StructuralInputError("mechanism/noise size disagrees with dag")


class Dataset:
    """An (n, d) matrix of observations with optional column names."""

    __slots__ = ("values", "columns")

    def __init__(self, values, columns: list[str] | None = None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise StructuralInputError(f"dataset must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise StructuralInputError(f"dataset shape {arr.shape} is degenerate")
        if not np.isfinite(arr).all():
            raise InputQualityError("dataset contains non-finite entries")
        if columns is not None and len(columns) != arr.shape[1]:
            raise StructuralInputError("column name count disagrees with data width")
        self.values = arr
        self.columns = list(columns) if columns is not None else None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


@dataclass
class CausalInstance:
    """A dataset paired with the SCM (and ground-truth graph) it came from."""

    scm: ScmInstance
    data: Dataset
    spec: SpecTriple
    seed: int

    @property
    def dag(self) -> Dag:
        return self.scm.dag


# ----------------------------------------------------------------------
# generation

_WEIGHT_RANGE = (0.5, 2.0)
_NOISE_SCALE_RANGE = (0.4, 0.8)
_RFF_FEATURES = 100
_RFF_LENGTHSCALE = 1.0
_CHEB_DEGREE = 3


def _signed_uniform(rng: np.random.Generator, low: float, high: float, size) -> np.ndarray:
    mag = rng.uniform(low, high, size=size)
    sign = rng.choice((-1.0, 1.0), size=size)
    return mag * sign


def sample_scm(
    graph_model: GraphModel | str,
    mechanism: MechanismFamily | str,
    noise: NoiseFamily | str,
    d: int,
    rng: np.random.Generator,
    *,
    expected_edges: float | None = None,
    attach_m: int = 1,
    weight_range: tuple[float, float] = _WEIGHT_RANGE,
    noise_scale_range: tuple[float, float] = _NOISE_SCALE_RANGE,
) -> ScmInstance:
    """Draw a complete synthetic SCM.

    Graph first (ER with expected_edges defaulting to d, or scale-free
    preferential attachment with attach_m), then per-node mechanism
    parameters, then per-node noise scales uniform on noise_scale_range.
    Every generation choice is recorded in the instance's meta dict so
    bundles written to disk surface the exact configuration.
    """
    graph_model = GraphModel(graph_model)
    mechanism = MechanismFamily(mechanism)
    noise = NoiseFamily(noise)
    if expected_edges is None:
        expected_edges = float(d)
    if graph_model == GraphModel.ER:
        dag = random_er(d, expected_edges, rng)
    else:
        dag = random_sf(d, attach_m, rng)

    lo, hi = weight_range
    node_params: list = []
    for j in range(d):
        p = len(dag.parents(j))
        if mechanism == MechanismFamily.LINEAR:
            node_params.append(LinearNode(weights=_signed_uniform(rng, lo, hi, p)))
        elif mechanism == MechanismFamily.RFF:
            node_params.append(
                RffNode(
                    omega=rng.normal(0.0, 1.0 / _RFF_LENGTHSCALE, size=(_RFF_FEATURES, p)),
                    phase=rng.uniform(0.0, 2.0 * math.pi, size=_RFF_FEATURES),
                    weights=rng.normal(0.0, 1.0, size=_RFF_FEATURES),
                )
            )
        else:
            # damped magnitudes keep deep descendants off the clamp rails
            coeffs = np.empty((p, _CHEB_DEGREE), dtype=float)
            for deg in range(_CHEB_DEGREE):
                coeffs[:, deg] = _signed_uniform(rng, lo, hi, p) / (2.0**deg)
            node_params.append(ChebNode(coeffs=coeffs))

    meta = {
        "graph_model": graph_model.value,
        "mechanism": mechanism.value,
        "noise": noise.value,
        "d": d,
        "expected_edges": expected_edges,
        "attach_m": attach_m,
        "weight_range": list(weight_range),
        "noise_scale_range": list(noise_scale_range),
        "rff_features": _RFF_FEATURES,
        "rff_lengthscale": _RFF_LENGTHSCALE,
        "cheb_degree": _CHEB_DEGREE,
    }
    mechanisms = MechanismSpec(family=mechanism, node_params=node_params, meta=meta)
    scales = rng.uniform(noise_scale_range[0], noise_scale_range[1], size=d)
    return ScmInstance(dag=dag, mechanisms=mechanisms, noise=NoiseSpec(noise, scales), meta=meta)


def _cheb_polys(x: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev T_1..T_degree evaluated on clamp(x, -1, 1); shape (n, degree)."""
    t = np.clip(x, -1.0, 1.0)
    out = np.empty(x.shape + (degree,), dtype=float)
    prev = np.ones_like(t)  # T_0
    cur = t  # T_1
    out[..., 0] = cur
    for k in range(1, degree):
        prev, cur = cur, 2.0 * t * cur - prev
        out[..., k] = cur
    return out


def _eval_node_batch(spec: MechanismSpec, node: int, parent_values: np.ndarray) -> np.ndarray:
    """Vectorized mechanism value for one node; parent_values is (n, p) in
    ascending parent-index order. Root nodes return zeros."""
    params = spec.node_params[node]
    n = parent_values.shape[0]
    p = parent_values.shape[1] if parent_values.ndim == 2 else 0
    if p == 0:
        return np.zeros(n, dtype=float)
    if spec.family == MechanismFamily.LINEAR:
        return parent_values @ params.weights
    if spec.family == MechanismFamily.RFF:
        m = params.weights.shape[0]
        feats = np.cos(parent_values @ params.omega.T + params.phase) * math.sqrt(2.0 / m)
        return feats @ params.weights
    total = np.zeros(n, dtype=float)
    degree = params.coeffs.shape[1]
    for col in range(p):
        polys = _cheb_polys(parent_values[:, col], degree)
        total += polys @ params.coeffs[col]
    return total


def eval_mechanism(spec: MechanismSpec, node: int, parent_values) -> float:
    """Mechanism value for a single observation.

    parent_values is a 1-d vector over the node's parents in ascending
    index order; an empty vector (root node) evaluates to 0.0.
    """
    vals = np.asarray(parent_values, dtype=float).reshape(1, -1)
    expected = _node_param_arity(spec, node)
    if vals.shape[1] != expected:
        raise StructuralInputError(
            f"node {node} expects {expected} parent values, got {vals.shape[1]}"
        )
    return float(_eval_node_batch(spec, node, vals)[0])


def _node_param_arity(spec: MechanismSpec, node: int) -> int:
    params = spec.node_params[node]
    if spec.family == MechanismFamily.LINEAR:
        return params.weights.shape[0]
    if spec.family == MechanismFamily.RFF:
        return params.omega.shape[1]
    return params.coeffs.shape[0]


def forward_sample(
    scm: ScmInstance,
    n: int,
    rng: np.random.Generator,
    *,
    noise: np.ndarray | None = None,
) -> Dataset:
    """Ancestral sampling: one pass over a deterministic topological order.

    Noise is drawn up-front as an (n, d) matrix in node-index order (or
    taken from the `noise` argument, which lets callers pin per-node draws
    exactly); each node then receives mechanism(parents) + its noise
    column. The values are returned raw, not standardized.
    """
    if n < 1:
        raise StructuralInputError("n must be >= 1")
    d = scm.dag.d
    if noise is None:
        noise = scm.noise.sample_matrix(n, rng)
    else:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n, d):
            raise StructuralInputError(f"noise must have shape ({n}, {d})")
    values = np.zeros((n, d), dtype=float)
    for j in topological_order(scm.dag):
        pa = scm.dag.parents(j)
        parent_vals = values[:, pa] if pa else np.zeros((n, 0))
        values[:, j] = _eval_node_batch(scm.mechanisms, j, parent_vals) + noise[:, j]
    return Dataset(values)


# ----------------------------------------------------------------------
# shift suites

_NOISE_CYCLE = {
    NoiseFamily.GAUSSIAN: NoiseFamily.UNIFORM,
    NoiseFamily.UNIFORM: NoiseFamily.LAPLACE,
    NoiseFamily.LAPLACE: NoiseFamily.GAUSSIAN,
}

_MECH_SHIFT = {
    MechanismFamily.RFF: MechanismFamily.CHEBYSHEV,
    MechanismFamily.CHEBYSHEV: MechanismFamily.RFF,
    MechanismFamily.LINEAR: MechanismFamily.RFF,
}


@dataclass
class ShiftSuite:
    """A test setting plus the training settings (with mixture weights)
    implied by a distribution-shift scenario."""

    setting: ShiftSetting
    test_spec: SpecTriple
    train_specs: list[tuple[SpecTriple, float]]


def plan_shift_suite(setting: ShiftSetting | str, test_spec: SpecTriple) -> ShiftSuite:
    """Map (setting, test triple) to the training triples.

    iid keeps the triple; graph_shift swaps ER <-> SF; noise_shift advances
    the noise family one step along Gaussian -> Uniform -> Laplace ->
    Gaussian; mechanism_shift maps RFF <-> Chebyshev and Linear -> RFF;
    component_mixed trains on all three mechanisms under both graph
    models, with the test's own mechanism paired with a shifted noise so
    the exact test triple never appears while every individual component
    does.
    """
    setting = ShiftSetting(setting)
    t = test_spec
    if setting == ShiftSetting.IID:
        train = [t]
    elif setting == ShiftSetting.GRAPH_SHIFT:
        other = GraphModel.SF if t.graph_model == GraphModel.ER else GraphModel.ER
        train = [SpecTriple(t.mechanism, t.noise, other)]
    elif setting == ShiftSetting.NOISE_SHIFT:
        train = [SpecTriple(t.mechanism, _NOISE_CYCLE[t.noise], t.graph_model)]
    elif setting == ShiftSetting.MECHANISM_SHIFT:
        train = [SpecTriple(_MECH_SHIFT[t.mechanism], t.noise, t.graph_model)]
    else:
        train = []
        for mech in MechanismFamily:
            noise = _NOISE_CYCLE[t.noise] if mech == t.mechanism else t.noise
            for gm in GraphModel:
                train.append(SpecTriple(mech, noise, gm))
        if any(spec == t for spec in train):
            raise ConfigError(
                f"component_mixed could not exclude the test triple {t.label()}"
            )
        missing = []
        if not any(s.mechanism == t.mechanism for s in train):
            missing.append("mechanism")
        if not any(s.noise == t.noise for s in train):
            missing.append("noise")
        if not any(s.graph_model == t.graph_model for s in train):
            missing.append("graph_model")
        if missing:
            raise ConfigError(f"component_mixed failed to cover: {missing}")
    weight = 1.0 / len(train)
    return ShiftSuite(setting, t, [(spec, weight) for spec in train])


def generate_instance(
    spec: SpecTriple, d: int, n: int, seed: int, **scm_kwargs
) -> CausalInstance:
    """One instance of `spec`: an SCM and n rows forward-sampled from it,
    both drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    scm = sample_scm(spec.graph_model, spec.mechanism, spec.noise, d, rng, **scm_kwargs)
    data = forward_sample(scm, n, rng)
    return CausalInstance(scm=scm, data=data, spec=spec, seed=seed)


def make_shift_suite(
    setting: ShiftSetting | str,
    test_spec: SpecTriple,
    d: int,
    n: int,
    count: int,
    rng: np.random.Generator,
    **scm_kwargs,
) -> tuple[list[CausalInstance], list[CausalInstance]]:
    """Materialize a shift suite: `count` training instances drawn from the
    setting's training mixture (uniform weights) and `count` test instances
    from the test triple. Every instance carries its ground-truth graph and
    the child seed it was generated from, so suites replay exactly and can
    be regenerated per-instance in parallel.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    suite = plan_shift_suite(setting, test_spec)
    specs = [s for s, _ in suite.train_specs]
    train: list[CausalInstance] = []
    for k in range(count):
        child_seed = int(rng.integers(0, 2**63 - 1))
        spec = specs[k % len(specs)]
        train.append(generate_instance(spec, d, n, child_seed, **scm_kwargs))
    test: list[CausalInstance] = []
    for _ in range(count):
        child_seed = int(rng.integers(0, 2**63 - 1))
        test.append(generate_instance(test_spec, d, n, child_seed, **scm_kwargs))
    return train, test
