import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from causalign.errors import ConfigError, DegreeCapError, StructuralInputError
from causalign.graph import Dag, random_er
from causalign.scm import Dataset, forward_sample, sample_scm
from causalign.sim import (
    SIGMA_FLOOR,
    Basis,
    FittedNode,
    ParentTransform,
    FittedScm,
    RegressorConfig,
    fit_node,
    predict_node,
    sample_from_fitted,
    skip_sample,
)

from conftest import chain_dag, dag_from_edges, empty_dag, make_rng
from oracles import fit_sim, sample_per_node

LINEAR = RegressorConfig(basis=Basis.LINEAR)


def _two_col_linear(seed, n=2000, weight=1.5, noise=0.3):
    rng = make_rng(seed)
    x0 = rng.normal(size=n)
    x1 = weight * x0 + rng.normal(0.0, noise, size=n)
    return Dataset(np.column_stack([x0, x1]))


class TestFitSim:
    def test_recovers_linear_coefficient(self):
        data = _two_col_linear(0)
        fitted = fit_sim(dag_from_edges(2, [(0, 1)]), data, LINEAR)
        w = fitted.nodes[1].weights
        assert abs(1.5 - w[0]) < 0.05

    def test_root_node_intercept_is_mean(self):
        data = _two_col_linear(1)
        fitted = fit_sim(empty_dag(2), data, LINEAR)
        for j in range(2):
            col = data.values[:, j]
            node = fitted.nodes[j]
            assert node.intercept == pytest.approx(col.mean())
            assert np.allclose(node.residual_samples, col - col.mean())

    def test_empty_graph_sigma_is_column_std(self):
        data = _two_col_linear(2)
        fitted = fit_sim(empty_dag(2), data, LINEAR)
        for j in range(2):
            expected = data.values[:, j].std(ddof=1)
            assert fitted.nodes[j].residual_sigma == pytest.approx(expected)

    def test_parent_sets_match_dag(self):
        data = Dataset(make_rng(3).normal(size=(100, 3)))
        dag = dag_from_edges(3, [(0, 2), (1, 2)])
        fitted = fit_sim(dag, data, LINEAR)
        for j in range(3):
            assert tuple(fitted.nodes[j].parents) == dag.parents(j)

    def test_residuals_centered(self):
        data = _two_col_linear(4)
        fitted = fit_sim(dag_from_edges(2, [(0, 1)]), data, LINEAR)
        for node in fitted.nodes:
            assert abs(node.residual_samples.mean()) < 1e-8

    def test_degree_cap_raises(self):
        rng = make_rng(5)
        d = 5
        adj = np.zeros((d, d), dtype=np.int8)
        adj[:4, 4] = 1  # in-degree 4 on the last node
        data = Dataset(rng.normal(size=(50, d)))
        cfg = RegressorConfig(basis=Basis.LINEAR, max_in_degree=3)
        with pytest.raises(DegreeCapError):
            fit_sim(Dag(adj), data, cfg)

    def test_sigma_floor_applied_to_deterministic_node(self):
        x0 = make_rng(6).normal(size=500)
        data = Dataset(np.column_stack([x0, 2.0 * x0]))
        fitted = fit_sim(dag_from_edges(2, [(0, 1)]), data, LINEAR)
        assert fitted.nodes[1].residual_sigma == SIGMA_FLOOR

    def test_deterministic_fit(self):
        data = _two_col_linear(7)
        dag = dag_from_edges(2, [(0, 1)])
        a = fit_sim(dag, data, LINEAR)
        b = fit_sim(dag, data, LINEAR)
        for na, nb in zip(a.nodes, b.nodes):
            assert np.array_equal(na.weights, nb.weights)
            assert na.intercept == nb.intercept
            assert na.residual_sigma == nb.residual_sigma

    @pytest.mark.parametrize("basis", [Basis.LINEAR, Basis.FOURIER, Basis.SPLINE])
    def test_nested_parent_sets_monotone_mse(self, basis):
        """More parents never fit worse, up to ridge slack."""
        rng = make_rng(8)
        n = 400
        x0 = rng.normal(size=n)
        x1 = rng.normal(size=n)
        x2 = 0.8 * x0 - 0.5 * x1 + rng.normal(0.0, 0.4, size=n)
        values = np.column_stack([x0, x1, x2])
        cfg = RegressorConfig(basis=basis)
        mses = []
        for parents in [(), (0,), (0, 1)]:
            pm = values[:, parents] if parents else np.zeros((n, 0))
            fitted = fit_node(2, parents, values[:, 2], pm, cfg)
            mses.append(float((fitted.residual_samples**2).mean()))
        assert mses[1] <= mses[0] + 1e-6
        assert mses[2] <= mses[1] + 1e-6

    def test_fourier_fits_nonlinear_signal(self):
        rng = make_rng(9)
        n = 1000
        x0 = rng.uniform(-2, 2, size=n)
        x1 = np.sin(2.5 * x0) + rng.normal(0.0, 0.1, size=n)
        data = Dataset(np.column_stack([x0, x1]))
        lin = fit_sim(dag_from_edges(2, [(0, 1)]), data, LINEAR)
        fou = fit_sim(dag_from_edges(2, [(0, 1)]), data, RegressorConfig(basis=Basis.FOURIER))
        mse_lin = float((lin.nodes[1].residual_samples ** 2).mean())
        mse_fou = float((fou.nodes[1].residual_samples ** 2).mean())
        assert mse_fou < 0.5 * mse_lin


class TestSampleFromFitted:
    def test_empirical_bootstrap_support_on_empty_graph(self):
        data = _two_col_linear(11, n=200)
        fitted = fit_sim(empty_dag(2), data, LINEAR)
        sampled = sample_from_fitted(fitted, 500, make_rng(1))
        for j in range(2):
            support = fitted.nodes[j].intercept + fitted.nodes[j].residual_samples
            assert np.isin(sampled.values[:, j], support).all()

    def test_round_trip_refit_recovers_coefficients(self):
        data = _two_col_linear(13, n=2000)
        dag = dag_from_edges(2, [(0, 1)])
        first = fit_sim(dag, data, LINEAR)
        resampled = sample_from_fitted(first, 2000, make_rng(3))
        second = fit_sim(dag, resampled, LINEAR)
        assert abs(first.nodes[1].weights[0] - second.nodes[1].weights[0]) < 0.1

    def test_root_cdf_preserved_under_empirical_noise(self):
        rng = make_rng(14)
        scm = sample_scm("er", "linear", "gaussian", 4, rng, expected_edges=3.0)
        data = forward_sample(scm, 2000, rng)
        fitted = fit_sim(scm.dag, data, LINEAR)
        sampled = sample_from_fitted(fitted, 2000, make_rng(4))
        roots = [j for j in range(4) if not scm.dag.parents(j)]
        assert roots
        for j in roots:
            ks = stats.ks_2samp(data.values[:, j], sampled.values[:, j]).statistic
            assert ks < 0.08

    def test_respects_topological_order(self):
        """Downstream columns reproduce mechanism(parents) + noise exactly
        when sigma is floored (deterministic child)."""
        x0 = make_rng(15).normal(size=300)
        data = Dataset(np.column_stack([x0, 2.0 * x0, -1.0 * (2.0 * x0)]))
        dag = dag_from_edges(3, [(0, 1), (1, 2)])
        fitted = fit_sim(dag, data, LINEAR)
        sampled = sample_from_fitted(fitted, 300, make_rng(5))
        v = sampled.values
        assert np.allclose(v[:, 1], 2.0 * v[:, 0], atol=0.02)
        assert np.allclose(v[:, 2], -v[:, 1], atol=0.02)

    def test_determinism(self):
        data = _two_col_linear(17, n=100)
        fitted = fit_sim(dag_from_edges(2, [(0, 1)]), data, LINEAR)
        a = sample_from_fitted(fitted, 50, make_rng(6)).values
        b = sample_from_fitted(fitted, 50, make_rng(6)).values
        assert np.array_equal(a, b)


class TestSampleAgainstPerNodeOracle:
    """sample_from_fitted expands each (parent column, transform) once per
    dataset; its values must equal predicting every node from a copy of
    its parents' columns, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        basis=st.sampled_from(Basis),
        basis_size=st.integers(1, 8),
        d=st.integers(2, 8),
        n=st.integers(1, 300),
    )
    def test_bytes_equal_per_node_oracle(self, seed, basis, basis_size, d, n):
        gen = make_rng(seed)
        dag = random_er(d, gen.uniform(0.0, d), gen)
        values = gen.normal(size=(80, d))
        for j in range(1, d):
            values[:, j] += np.sin(values[:, j - 1])
        config = RegressorConfig(basis=basis, basis_size=basis_size, max_in_degree=None)
        fitted = fit_sim(dag, Dataset(values), config)
        got = sample_from_fitted(fitted, n, make_rng(seed + 1)).values
        expected = sample_per_node(fitted, n, make_rng(seed + 1))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("basis", list(Basis))
    def test_children_with_different_transforms_of_one_parent(self, basis):
        """Two children of node 0 fitted on data where column 0 differs in
        location and scale: each must be predicted through its own
        transform, not through whichever the other child stored first."""
        gen = make_rng(30)
        a = gen.normal(size=(120, 3))
        b = a.copy()
        b[:, 0] = 3.0 * a[:, 0] + 1.0
        a[:, 1] += np.sin(a[:, 0])
        b[:, 2] += np.cos(b[:, 0])
        config = RegressorConfig(basis=basis, basis_size=5)
        dag = dag_from_edges(3, [(0, 1), (0, 2)])
        nodes = [
            fit_node(0, (), a[:, 0], np.zeros((120, 0)), config),
            fit_node(1, (0,), a[:, 1], a[:, [0]], config),
            fit_node(2, (0,), b[:, 2], b[:, [0]], config),
        ]
        if basis != Basis.LINEAR:  # the linear basis has no fitted transform
            assert nodes[1].transforms != nodes[2].transforms
        fitted = FittedScm(dag=dag, config=config, nodes=nodes)
        got = sample_from_fitted(fitted, 200, make_rng(31)).values
        assert got.tobytes() == sample_per_node(fitted, 200, make_rng(31)).tobytes()


class TestSkipSample:
    """skip_sample takes from a generator exactly what sample_from_fitted
    takes (and what bootstrapping with rng.choice takes), so a training
    set's datasets can be drawn from recorded states in any process."""

    @pytest.mark.parametrize(
        "graph, n",
        [("root_only", 150), ("dense", 150), ("dense", 77), ("dense", 301)],
        ids=["root_only", "dense", "fewer_rows_than_residuals", "more_rows_than_residuals"],
    )
    def test_state_after_skip_equals_state_after_sampling(self, graph, n):
        d = 5
        dag = empty_dag(d) if graph == "root_only" else Dag(np.triu(np.ones((d, d), dtype=np.int8), 1))
        values = make_rng(40).normal(size=(150, d))
        fitted = fit_sim(dag, Dataset(values), RegressorConfig(max_in_degree=None))
        assert all(fn.residual_samples.shape[0] == 150 for fn in fitted.nodes)
        sampled, skipped, bootstrapped = make_rng(41), make_rng(41), make_rng(41)
        start = skipped.bit_generator.state
        sample_from_fitted(fitted, n, sampled)
        skip_sample(fitted, n, skipped)
        sample_per_node(fitted, n, bootstrapped)  # rng.choice per node
        assert skipped.bit_generator.state != start
        assert sampled.bit_generator.state == skipped.bit_generator.state
        assert bootstrapped.bit_generator.state == skipped.bit_generator.state

    def test_rejects_empty_sample(self):
        fitted = fit_sim(empty_dag(2), _two_col_linear(1, n=20), LINEAR)
        with pytest.raises(StructuralInputError):
            skip_sample(fitted, 0, make_rng(0))


class TestPredictNode:
    def test_linear_prediction(self):
        node = FittedNode(
            node=1,
            parents=(0,),
            weights=np.array([1.5]),
            intercept=0.5,
            residual_sigma=1.0,
            residual_samples=np.zeros(3),
            transforms=(ParentTransform(loc=0.0, scale=1.0),),
        )
        pm = np.array([[0.0], [1.0], [2.0]])
        pred = predict_node(node, pm, LINEAR)
        assert np.allclose(pred, [0.5, 2.0, 3.5])

    def test_root_prediction_is_intercept(self):
        node = FittedNode(
            node=0,
            parents=(),
            weights=np.array([]),
            intercept=1.25,
            residual_sigma=1.0,
            residual_samples=np.zeros(3),
            transforms=(),
        )
        pred = predict_node(node, np.zeros((4, 0)), LINEAR)
        assert np.allclose(pred, 1.25)


class TestRegressorConfig:
    def test_rejects_bad_basis_size(self):
        with pytest.raises(ConfigError):
            RegressorConfig(basis_size=0)
