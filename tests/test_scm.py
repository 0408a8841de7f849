import math

import numpy as np
import pytest
from scipy import stats

from causalign.errors import ConfigError, StructuralInputError
from causalign.graph import Dag, topological_order
from causalign.scm import (
    CausalInstance,
    Dataset,
    GraphModel,
    LinearNode,
    MechanismFamily,
    MechanismSpec,
    NoiseFamily,
    NoiseSpec,
    ScmInstance,
    ShiftSetting,
    SpecTriple,
    forward_sample,
    make_shift_suite,
    plan_shift_suite,
    sample_scm,
)

from conftest import dag_from_edges, make_rng


class TestDataset:
    def test_rejects_nonfinite(self):
        bad = np.ones((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises((StructuralInputError, Exception)):
            Dataset(bad)

    def test_shape_accessors(self):
        data = Dataset(np.zeros((5, 3)))
        assert data.n == 5 and data.d == 3


class TestSampleScm:
    def test_same_seed_identical_instance(self):
        a = sample_scm("er", "linear", "gaussian", 6, make_rng(4))
        b = sample_scm("er", "linear", "gaussian", 6, make_rng(4))
        assert a.dag == b.dag
        for pa, pb in zip(a.mechanisms.node_params, b.mechanisms.node_params):
            assert np.array_equal(pa.weights, pb.weights)
        assert np.array_equal(a.noise.scales, b.noise.scales)

    def test_linear_weight_lengths_match_in_degree(self):
        scm = sample_scm("er", "linear", "gaussian", 8, make_rng(1))
        for j in range(8):
            assert len(scm.mechanisms.node_params[j].weights) == len(scm.dag.parents(j))

    def test_forward_sample_smoke_sweep(self):
        for seed in range(100):
            rng = make_rng(seed)
            scm = sample_scm("er", "linear", "uniform", 10, rng)
            data = forward_sample(scm, 50, rng)
            assert data.values.shape == (50, 10)
            assert np.isfinite(data.values).all()

    def test_weight_range_respected(self):
        scm = sample_scm(
            "er", "linear", "gaussian", 6, make_rng(3),
            weight_range=(1.0, 2.0), expected_edges=8.0,
        )
        mags = np.concatenate(
            [np.abs(p.weights) for p in scm.mechanisms.node_params if p.weights.size]
        )
        assert mags.size > 0
        assert ((mags >= 1.0) & (mags <= 2.0)).all()

    def test_noise_scale_range_respected(self):
        scm = sample_scm(
            "er", "linear", "gaussian", 5, make_rng(3), noise_scale_range=(0.5, 0.5)
        )
        assert np.allclose(scm.noise.scales, 0.5)

    def test_meta_records_generation_choices(self):
        scm = sample_scm("sf", "rff", "laplace", 5, make_rng(2), attach_m=2)
        for key in ("graph_model", "mechanism", "noise"):
            assert key in scm.meta


def _noiseless(dag, spec, root_values):
    """forward_sample of one row with zero noise, except that the roots
    named in root_values take those values through their noise column."""
    d = dag.d
    noise = np.zeros((1, d))
    for j, value in root_values.items():
        noise[0, j] = value
    scm = ScmInstance(dag=dag, mechanisms=spec, noise=NoiseSpec(NoiseFamily.GAUSSIAN, np.ones(d)))
    return forward_sample(scm, 1, make_rng(0), noise=noise).values[0]


class TestEvalMechanism:
    """Mechanism values, read off forward_sample with the noise pinned."""

    def test_linear_dot_product(self):
        spec = MechanismSpec(
            family=MechanismFamily.LINEAR,
            node_params=[
                LinearNode(weights=np.array([])),
                LinearNode(weights=np.array([])),
                LinearNode(weights=np.array([2.0, -1.0])),
            ],
        )
        row = _noiseless(dag_from_edges(3, [(0, 2), (1, 2)]), spec, {0: 1.0, 1: 3.0})
        assert row[2] == pytest.approx(-1.0)

    def test_root_node_returns_zero(self):
        for family in ("linear", "rff", "chebyshev"):
            scm = sample_scm("er", family, "gaussian", 4, make_rng(6), expected_edges=0.0)
            data = forward_sample(scm, 5, make_rng(0), noise=np.zeros((5, 4)))
            assert (data.values == 0.0).all()

    def test_chebyshev_degree_two(self):
        # coefficient 1 at degree 2 only: T_2(0.5) = 2*(0.5)^2 - 1 = -0.5
        from causalign.scm import ChebNode

        coeffs = np.zeros((1, 3))
        coeffs[0, 1] = 1.0  # degrees are 1..3, column 1 is degree 2
        spec = MechanismSpec(
            family=MechanismFamily.CHEBYSHEV,
            node_params=[ChebNode(coeffs=np.zeros((0, 3))), ChebNode(coeffs=coeffs)],
        )
        row = _noiseless(dag_from_edges(2, [(0, 1)]), spec, {0: 0.5})
        assert row[1] == pytest.approx(-0.5)


def _independent_scm(d, scale, family):
    """All-root SCM: zero-weight linear mechanisms, shared noise scale."""
    dag = Dag(np.zeros((d, d), dtype=np.int8))
    return ScmInstance(
        dag=dag,
        mechanisms=MechanismSpec(
            family=MechanismFamily.LINEAR,
            node_params=[LinearNode(weights=np.array([])) for _ in range(d)],
        ),
        noise=NoiseSpec(family=NoiseFamily(family), scales=np.full(d, scale)),
    )


class TestForwardSample:
    def test_zero_weight_gaussian_moments(self):
        scm = _independent_scm(3, 1.0, "gaussian")
        data = forward_sample(scm, 2000, make_rng(8)).values
        for j in range(3):
            assert abs(data[:, j].mean()) < 4.0 / math.sqrt(2000)
            assert 0.8 < data[:, j].var() < 1.2

    @pytest.mark.parametrize(
        "family,cdf",
        [
            ("gaussian", lambda s: stats.norm(scale=s).cdf),
            ("uniform", lambda s: stats.uniform(-math.sqrt(3) * s, 2 * math.sqrt(3) * s).cdf),
            ("laplace", lambda s: stats.laplace(scale=s / math.sqrt(2)).cdf),
        ],
    )
    def test_root_column_matches_noise_family(self, family, cdf):
        scale = 0.7
        scm = _independent_scm(2, scale, family)
        data = forward_sample(scm, 2000, make_rng(10)).values
        ks = stats.kstest(data[:, 0], cdf(scale)).statistic
        assert ks < 0.05

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "laplace"])
    def test_noise_std_equals_scale(self, family):
        scm = _independent_scm(2, 0.5, family)
        data = forward_sample(scm, 200000, make_rng(3)).values
        assert data[:, 0].std() == pytest.approx(0.5, rel=0.02)

    def test_single_row(self):
        scm = _independent_scm(4, 1.0, "gaussian")
        assert forward_sample(scm, 1, make_rng(0)).values.shape == (1, 4)

    def test_n_zero_rejected(self):
        scm = _independent_scm(2, 1.0, "gaussian")
        with pytest.raises(StructuralInputError):
            forward_sample(scm, 0, make_rng(0))

    def test_determinism(self):
        scm = sample_scm("er", "linear", "gaussian", 5, make_rng(5))
        a = forward_sample(scm, 100, make_rng(9)).values
        b = forward_sample(scm, 100, make_rng(9)).values
        assert np.array_equal(a, b)

    def test_label_permutation_commutes_with_sampling(self):
        """Relabeling nodes and un-permuting the output columns is a no-op
        when the same per-node noise draws are pinned."""
        d, n = 5, 64
        rng = make_rng(21)
        scm = sample_scm("er", "linear", "gaussian", d, rng, expected_edges=6.0)
        noise = scm.noise.sample_matrix(n, make_rng(33))
        base = forward_sample(scm, n, make_rng(0), noise=noise).values

        perm = np.array([3, 0, 4, 1, 2])  # perm[old] = new label
        adj = np.zeros((d, d), dtype=np.int8)
        for i, j in scm.dag.edges():
            adj[perm[i], perm[j]] = 1
        pdag = Dag(adj)
        params = [None] * d
        for old in range(d):
            new = perm[old]
            old_parents = scm.dag.parents(old)
            w = scm.mechanisms.node_params[old].weights
            by_parent = dict(zip(old_parents, w))
            new_parents = pdag.parents(new)  # sorted new labels
            inv = np.argsort(perm)  # new label -> old label
            params[new] = LinearNode(
                weights=np.array([by_parent[inv[q]] for q in new_parents])
            )
        scales = np.empty(d)
        scales[perm] = scm.noise.scales
        permuted_scm = ScmInstance(
            dag=pdag,
            mechanisms=MechanismSpec(family=MechanismFamily.LINEAR, node_params=params),
            noise=NoiseSpec(family=scm.noise.family, scales=scales),
        )
        pnoise = np.empty_like(noise)
        pnoise[:, perm] = noise
        permuted = forward_sample(permuted_scm, n, make_rng(0), noise=pnoise).values
        assert np.array_equal(permuted[:, perm], base)

    def test_linear_gaussian_population_covariance(self):
        d, n = 4, 20000
        rng = make_rng(17)
        scm = sample_scm("er", "linear", "gaussian", d, rng, expected_edges=4.0)
        data = forward_sample(scm, n, make_rng(2)).values
        w = np.zeros((d, d))
        for j in range(d):
            for k, p in enumerate(scm.dag.parents(j)):
                w[p, j] = scm.mechanisms.node_params[j].weights[k]
        # x = (I - W^T)^-1 eps  =>  cov = M diag(s^2) M^T
        m = np.linalg.inv(np.eye(d) - w.T)
        pop = m @ np.diag(scm.noise.scales**2) @ m.T
        sample = np.cov(data, rowvar=False)
        rel = np.linalg.norm(sample - pop) / np.linalg.norm(pop)
        assert rel < 0.05


class TestShiftSuite:
    def test_iid_keeps_triple(self):
        t = SpecTriple.parse("rff", "gaussian", "er")
        assert plan_shift_suite("iid", t) == [t]

    def test_graph_shift_swaps_model(self):
        t = SpecTriple.parse("linear", "uniform", "er")
        (spec,) = plan_shift_suite("graph_shift", t)
        assert spec.graph_model == GraphModel.SF
        assert spec.mechanism == t.mechanism and spec.noise == t.noise

    def test_mechanism_shift_rff_becomes_chebyshev(self):
        t = SpecTriple.parse("rff", "gaussian", "er")
        (spec,) = plan_shift_suite("mechanism_shift", t)
        assert spec.mechanism == MechanismFamily.CHEBYSHEV
        assert spec.noise == t.noise and spec.graph_model == t.graph_model

    def test_component_mixed_excludes_triple_but_covers_components(self):
        t = SpecTriple.parse("rff", "gaussian", "er")
        specs = plan_shift_suite("component_mixed", t)
        assert all(s != t for s in specs)
        assert any(s.mechanism == t.mechanism for s in specs)
        assert any(s.noise == t.noise for s in specs)
        assert any(s.graph_model == t.graph_model for s in specs)

    def test_component_mixed_all_triples(self):
        for mech in MechanismFamily:
            for noise in NoiseFamily:
                for gm in GraphModel:
                    t = SpecTriple(mech, noise, gm)
                    specs = plan_shift_suite(ShiftSetting.COMPONENT_MIXED, t)
                    assert all(s != t for s in specs)
                    assert any(s.mechanism == t.mechanism for s in specs)
                    assert any(s.noise == t.noise for s in specs)
                    assert any(s.graph_model == t.graph_model for s in specs)

    def test_make_shift_suite_materializes_counts(self):
        t = SpecTriple.parse("linear", "gaussian", "er")
        train, test = make_shift_suite("iid", t, d=4, n=30, count=3, rng=make_rng(0))
        assert len(train) == 3 and len(test) == 3
        for inst in train + test:
            assert isinstance(inst, CausalInstance)
            assert inst.data.values.shape == (30, 4)
            assert inst.dag.d == 4

    def test_make_shift_suite_bad_count(self):
        t = SpecTriple.parse("linear", "gaussian", "er")
        with pytest.raises(ConfigError):
            make_shift_suite("iid", t, d=4, n=30, count=0, rng=make_rng(0))

    def test_unknown_setting_rejected(self):
        t = SpecTriple.parse("linear", "gaussian", "er")
        with pytest.raises(ValueError):
            plan_shift_suite("sideways", t)


class TestSpecTriple:
    def test_label_and_parse(self):
        t = SpecTriple.parse("RFF", "Gaussian", "SF")
        assert t.mechanism == MechanismFamily.RFF
        assert t.label() == "rff_gaussian_sf"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            SpecTriple.parse("quadratic", "gaussian", "er")
