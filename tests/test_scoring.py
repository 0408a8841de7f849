import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalign.errors import DegreeCapError, NumericalError, StructuralInputError
from causalign.graph import Dag, random_er
from causalign.refine import RefineConfig, refine
from causalign.scm import Dataset, forward_sample, sample_scm
from causalign.sim import Basis, RegressorConfig, fit_node
from causalign.scoring import (
    ScoreConfig,
    ScoreEngine,
    ScoreValue,
)

from conftest import dag_from_edges, empty_dag, linear_dataset, make_rng
from oracles import all_dags, fit_node_reference

LINEAR_CFG = ScoreConfig(regressor=RegressorConfig(basis=Basis.LINEAR))


class TestScoreConfig:
    def test_lambda_default_averaged(self):
        cfg = ScoreConfig()
        assert cfg.resolve_lambda(n=200, d=10) == pytest.approx(2.0 / (200 * 10))

    def test_explicit_lambda_wins(self):
        cfg = ScoreConfig(sparsity_weight=0.25)
        assert cfg.resolve_lambda(n=50, d=3) == 0.25

    def test_negative_lambda_rejected(self):
        from causalign.errors import ConfigError

        with pytest.raises(ConfigError):
            ScoreConfig(sparsity_weight=-0.1)


class TestAdLikelihood:
    def test_empty_graph_on_standard_normal(self):
        data = Dataset(make_rng(0).normal(size=(5000, 3)))
        val = ScoreEngine(data, LINEAR_CFG).ad(empty_dag(3))
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=0.03)

    def test_deterministic_node_term_is_large_positive(self):
        x0 = make_rng(1).normal(size=500)
        data = Dataset(np.column_stack([x0, 2.0 * x0]))
        engine = ScoreEngine(data, LINEAR_CFG)
        term = engine.node_term(1, (0,))
        assert term == pytest.approx(-0.5 * math.log(2 * math.pi * 1e-6), abs=0.01)
        assert 5.9 < term < 6.1  # ~= +5.99, finite

    def test_true_graph_beats_empty_graph(self):
        for seed in range(10):
            rng = make_rng(seed)
            scm = sample_scm(
                "er", "linear", "gaussian", 4, rng,
                expected_edges=4.0, weight_range=(1.0, 2.0),
            )
            data = forward_sample(scm, 2000, rng)
            true_ad = ScoreEngine(data, LINEAR_CFG).ad(scm.dag)
            empty_ad = ScoreEngine(data, LINEAR_CFG).ad(empty_dag(4))
            assert true_ad >= empty_ad

    def test_degree_cap_propagates(self):
        from causalign.errors import DegreeCapError

        d = 6
        adj = np.zeros((d, d), dtype=np.int8)
        adj[:5, 5] = 1
        cfg = ScoreConfig(regressor=RegressorConfig(basis=Basis.LINEAR, max_in_degree=3))
        data = Dataset(make_rng(2).normal(size=(50, d)))
        with pytest.raises(DegreeCapError):
            ScoreEngine(data, cfg).ad(Dag(adj))


class TestScore:
    def test_lambda_zero_total_equals_ad(self):
        data = linear_dataset(10, d=3, n=200)
        cfg = ScoreConfig(sparsity_weight=0.0, regressor=RegressorConfig(basis=Basis.LINEAR))
        val = ScoreEngine(data, cfg).score(dag_from_edges(3, [(0, 1)]))
        assert val.total == val.ad

    def test_empty_graph_sparsity_zero(self):
        data = linear_dataset(11, d=3, n=200)
        val = ScoreEngine(data, LINEAR_CFG).score(empty_dag(3))
        assert val.sparsity == 0
        assert val.total == val.ad

    def test_total_recomputable_from_parts(self):
        data = linear_dataset(12, d=3, n=200)
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        val = ScoreEngine(data, LINEAR_CFG).score(g)
        assert val.sparsity == g.edge_count
        assert val.total == pytest.approx(val.ad - val.sparsity_weight * val.sparsity)

    def test_adding_edge_never_hurts_ad_but_can_hurt_total(self):
        data = Dataset(make_rng(13).normal(size=(300, 3)))  # independent noise
        cfg = ScoreConfig(sparsity_weight=0.5, regressor=RegressorConfig(basis=Basis.LINEAR))
        base = ScoreEngine(data, cfg).score(empty_dag(3))
        bigger = ScoreEngine(data, cfg).score(dag_from_edges(3, [(0, 1)]))
        assert bigger.ad >= base.ad - 1e-6
        assert bigger.total < base.total  # spurious-edge gain < lambda

    def test_pure_function(self):
        data = linear_dataset(14, d=3, n=150)
        g = dag_from_edges(3, [(0, 1)])
        a = ScoreEngine(data, LINEAR_CFG).score(g)
        b = ScoreEngine(data, LINEAR_CFG).score(g)
        assert a.total == b.total and a.ad == b.ad

    def test_json_keys(self):
        data = linear_dataset(15, d=3, n=100)
        obj = ScoreEngine(data, LINEAR_CFG).score(dag_from_edges(3, [(0, 2)])).to_json()
        assert set(obj) == {"ad", "sparsity", "total", "lambda"}

    def test_true_graph_in_top3_of_exhaustive_sweep(self):
        hits = 0
        for seed in range(10):
            rng = make_rng(100 + seed)
            scm = sample_scm(
                "er", "linear", "uniform", 3, rng,
                expected_edges=1.5, weight_range=(1.0, 2.0), noise_scale_range=(0.5, 0.5),
            )
            data = forward_sample(scm, 2000, rng)
            engine = ScoreEngine(data, LINEAR_CFG)
            totals = sorted(
                (engine.score(Dag(adj)).total for adj in all_dags(3)), reverse=True
            )
            true_total = engine.score(scm.dag).total
            if true_total >= totals[2] - 1e-12:
                hits += 1
        assert hits >= 8


class TestScoreEngine:
    def test_incremental_matches_full_rescore_exactly(self):
        data = linear_dataset(16, d=4, n=200)
        engine = ScoreEngine(data, LINEAR_CFG)
        fresh = ScoreEngine(data, LINEAR_CFG)
        for seed in range(10):
            g = random_er(4, 3.0, make_rng(seed))
            terms = [engine.refit_term(j, g.parents(j)) for j in range(4)]
            total = engine.value_from_ad(engine.combine_terms(terms), g.edge_count).total
            assert total == fresh.score(g).total

    def test_refit_term_overwrites_cache_with_equal_value(self):
        data = linear_dataset(17, d=3, n=150)
        engine = ScoreEngine(data, LINEAR_CFG)
        first = engine.node_term(1, (0,))
        again = engine.refit_term(1, (0,))
        assert first == again

    def test_cache_reuse_stable(self):
        data = linear_dataset(18, d=3, n=150)
        engine = ScoreEngine(data, LINEAR_CFG)
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        a = engine.score(g)
        size_after_first = engine.cache_size()
        b = engine.score(g)
        assert engine.cache_size() == size_after_first
        assert a.total == b.total

    def test_node_fit_returns_reusable_fit(self):
        data = linear_dataset(19, d=3, n=150)
        engine = ScoreEngine(data, LINEAR_CFG)
        fit = engine.node_fit(1, (0,))
        assert fit.node == 1 and tuple(fit.parents) == (0,)
        again = engine.node_fit(1, (0,))  # a hit: a new object, the same bits
        assert again is not fit
        for f in dataclasses.fields(fit):
            got, want = getattr(again, f.name), getattr(fit, f.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), f.name
            else:
                assert got == want, f.name

    def test_dimension_mismatch_raises(self):
        data = linear_dataset(20, d=3, n=100)
        engine = ScoreEngine(data, LINEAR_CFG)
        with pytest.raises(StructuralInputError):
            engine.score(empty_dag(4))


class TestExpansionCacheOracle:
    """ScoreEngine expands each column once and hands the blocks to
    fit_node; every fit must equal fit_node expanding the parent matrix
    itself, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        basis=st.sampled_from(Basis),
        basis_size=st.integers(1, 8),
        d=st.integers(2, 8),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_engine_fit_equals_uncached_fit(self, basis, basis_size, d, n, seed, data):
        rng = make_rng(seed)
        values = rng.normal(size=(n, d))
        values[:, int(rng.integers(d))] = 1.5  # a constant column
        regressor = RegressorConfig(basis=basis, basis_size=basis_size, max_in_degree=None)
        engine = ScoreEngine(Dataset(values), ScoreConfig(regressor=regressor))
        for _ in range(4):
            node = data.draw(st.integers(0, d - 1))
            others = [p for p in range(d) if p != node]
            parents = tuple(data.draw(st.permutations(others))[: data.draw(st.integers(0, d - 1))])
            try:
                want = fit_node(node, parents, values[:, node], values[:, parents], regressor)
            except NumericalError:
                with pytest.raises(NumericalError):
                    engine.node_fit(node, parents)
                continue
            got = engine.node_fit(node, parents)
            assert got.parents == want.parents
            assert got.intercept == want.intercept
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.residual_samples, want.residual_samples)
            assert got.residual_sigma == want.residual_sigma
            assert got.transforms == want.transforms
            assert engine.node_term(node, parents) == ScoreEngine._term_from_fit(want)
        assert len(engine._columns) <= d


class TestRederivedFit:
    """The engine caches fits without their residual vectors and node_fit
    re-derives them from the coefficients; whatever the cache holds, the
    fit it returns is the reference fit bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        basis=st.sampled_from(Basis),
        basis_size=st.integers(1, 8),
        n=st.sampled_from([2, 3, 7, 40, 400]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_miss_hit_and_refit_equal_the_reference(self, basis, basis_size, n, scale, seed, data):
        rng = make_rng(seed)
        values = scale * rng.normal(size=(n, 8))
        values[:, 1] += scale * np.sin(values[:, 0] / scale)
        values[:, 6] = 2.5 * scale  # a constant column
        values[:, 7] = values[:, 0]  # a duplicated column
        regressor = RegressorConfig(basis=basis, basis_size=basis_size)
        engine = ScoreEngine(Dataset(values), ScoreConfig(regressor=regressor))
        node = data.draw(st.integers(0, 7))
        others = [p for p in range(8) if p != node]
        parents = tuple(data.draw(st.permutations(others))[: data.draw(st.integers(0, 6))])
        try:
            intercept, weights, sigma, resid, term = fit_node_reference(
                node, parents, values[:, node], values[:, list(parents)], regressor
            )
        except (NumericalError, DegreeCapError) as exc:
            with pytest.raises(type(exc)):
                engine.node_fit(node, parents)
            return

        def check(got):
            assert (got.node, got.parents) == (node, parents)
            assert got.intercept == intercept
            assert weights.tobytes() == got.weights.tobytes()
            assert got.residual_sigma == sigma
            assert resid.tobytes() == got.residual_samples.tobytes()
            assert engine.node_term(node, parents) == term

        check(engine.node_fit(node, parents))  # a miss
        check(engine.node_fit(node, parents))  # a hit
        assert engine.refit_term(node, parents) == term
        check(engine.node_fit(node, parents))  # the entry refit_term stored
        assert engine.cache_size() == 1

    def test_no_cached_entry_holds_a_per_row_array(self):
        n = 400
        data = linear_dataset(21, d=5, n=n)
        engine = ScoreEngine(data, ScoreConfig(regressor=RegressorConfig(basis=Basis.SPLINE)))
        seed = random_er(5, 5.0, make_rng(22))
        refine(engine, seed, RefineConfig(n_steps=60, collect_k=10), make_rng(23))
        assert engine.cache_size() > 5
        for fit, _ in engine._cache.values():
            assert fit.residual_samples is None
            for f in dataclasses.fields(fit):
                value = getattr(fit, f.name)
                if isinstance(value, np.ndarray):
                    for array in (value, value.base):
                        assert array is None or array.size < n, f.name
            # the fit node_fit hands out still has its n residuals
            assert engine.node_fit(fit.node, fit.parents).residual_samples.shape == (n,)
