"""Tests for pair featurization, training-set synthesis, the MLP edge
predictor, and the nearest-neighbor score baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalign import model, scoring
from causalign.errors import (
    ConfigError,
    DegreeCapError,
    InputQualityError,
    StructuralInputError,
)
from causalign.graph import Dag
from causalign.metrics import auroc
from causalign.model import (
    PAIR_FEATURE_NAMES,
    EdgePredictor,
    TrainConfig,
    TrainingFeatures,
    TrainingSet,
    featurize_all,
    generate_training_set,
    knn_score_predict,
    pair_order,
    predict,
    train,
)
from causalign.scm import Dataset
from causalign.scoring import ScoreConfig, ScoreEngine
from causalign.sim import RegressorConfig, fit_node

from conftest import dag_from_edges, empty_dag, linear_dataset, make_rng, noise_dataset
from oracles import (
    central_difference_gradient,
    featurize_pairwise,
    loss_and_grads_reference,
    train_reference,
)


def _pair_features(data, i, j):
    """The featurize_all row of the ordered pair (i, j)."""
    pairs, feats = featurize_all(data)
    return feats[pairs.index((i, j))]


def _random_dataset(seed, n=150, d=4):
    rng = make_rng(seed)
    base = rng.normal(size=(n, d))
    base[:, 1] = 0.8 * base[:, 0] + 0.6 * base[:, 1]
    base[:, 3] = np.tanh(base[:, 2]) + 0.5 * base[:, 3]
    return Dataset(base)


class TestFeaturize:
    def test_feature_vector_matches_names(self):
        data = _random_dataset(0)
        f = _pair_features(data, 0, 1)
        assert f.shape == (len(PAIR_FEATURE_NAMES),)
        assert len(PAIR_FEATURE_NAMES) == 16

    def test_moment_features_are_exact(self):
        data = _random_dataset(1)
        f = _pair_features(data, 2, 0)
        x = data.values[:, 2]
        assert f[0] == pytest.approx(x.mean(), abs=1e-12)
        assert f[1] == pytest.approx(x.std(), abs=1e-12)
        z = (x - x.mean()) / x.std()
        assert f[2] == pytest.approx((z**3).mean(), abs=1e-10)
        assert f[3] == pytest.approx((z**4).mean() - 3.0, abs=1e-10)

    def test_pearson_matches_numpy(self):
        data = _random_dataset(2)
        f = _pair_features(data, 0, 1)
        expect = np.corrcoef(data.values[:, 0], data.values[:, 1])[0, 1]
        assert f[8] == pytest.approx(expect, abs=1e-10)

    def test_spearman_is_pearson_of_ranks(self):
        from scipy.stats import spearmanr

        data = _random_dataset(3)
        f = _pair_features(data, 1, 3)
        expect = spearmanr(data.values[:, 1], data.values[:, 3]).statistic
        assert f[9] == pytest.approx(expect, abs=1e-10)

    def test_swapped_pair_swaps_blocks(self):
        data = _random_dataset(4)
        fij = _pair_features(data, 0, 3)
        fji = _pair_features(data, 3, 0)
        assert np.array_equal(fij[0:4], fji[4:8])
        assert np.array_equal(fij[4:8], fji[0:4])
        assert np.array_equal(fij[8:10], fji[8:10])
        assert np.array_equal(fij[10:12], fji[12:14])
        assert np.array_equal(fij[12:14], fji[10:12])
        assert np.array_equal(fij[14:16], fji[14:16])

    def test_featurize_all_matches_pairwise_calls(self):
        data = _random_dataset(5)
        pairs, feats = featurize_all(data)
        assert pairs == pair_order(data.d)
        assert feats.shape == (data.d * (data.d - 1), 16)
        for row, (i, j) in enumerate(pairs):
            assert feats[row, 0] == pytest.approx(data.values[:, i].mean(), abs=1e-12)
            assert feats[row, 4] == pytest.approx(data.values[:, j].mean(), abs=1e-12)

    def test_label_permutation_equivariance_is_exact(self):
        """Relabeling variables permutes feature rows bit for bit."""
        data = _random_dataset(7, n=120, d=5)
        perm = [2, 0, 4, 1, 3]
        permuted = Dataset(data.values[:, perm])
        pairs, feats = featurize_all(data)
        ppairs, pfeats = featurize_all(permuted)
        row_of = {pair: k for k, pair in enumerate(pairs)}
        for k, (a, b) in enumerate(ppairs):
            orig_row = row_of[(perm[a], perm[b])]
            assert np.array_equal(pfeats[k], feats[orig_row])

    def test_constant_column_yields_finite_features(self):
        rng = make_rng(8)
        vals = np.column_stack([rng.normal(size=60), np.full(60, 2.5)])
        data = Dataset(vals)
        pairs, feats = featurize_all(data)
        assert np.isfinite(feats).all()
        f = _pair_features(data, 1, 0)
        assert f[1] == 0.0  # std of constant source
        assert f[2] == 0.0 and f[3] == 0.0
        assert f[8] == 0.0  # correlation against a constant

    def test_direction_features_detect_anticausal_fit(self):
        """x -> y with additive noise: regressing cause on effect leaves
        magnitude-dependent residuals, so the reverse correlation feature
        should be visibly larger than the forward one."""
        rng = make_rng(9)
        x = rng.uniform(-2, 2, size=2000)
        y = x + 0.3 * rng.normal(size=2000)
        data = Dataset(np.column_stack([x, y]))
        f = _pair_features(data, 0, 1)
        fwd_corr, rev_corr = f[11], f[13]
        assert abs(rev_corr) > abs(fwd_corr) + 0.05


class TestFeaturizeAgainstPairwise:
    """featurize_all computes every pair in array passes; its bytes must
    equal the one-pair-at-a-time definition in tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(2, 40),
        n=st.integers(3, 120),
        ties=st.booleans(),
        constant=st.booleans(),
        duplicate=st.booleans(),
    )
    def test_bytes_equal_pairwise_oracle(self, seed, d, n, ties, constant, duplicate):
        gen = make_rng(seed)
        values = gen.normal(size=(n, d)) * gen.uniform(0.1, 10.0, size=d)
        for j in range(1, d):
            values[:, j] += gen.uniform(-1.5, 1.5) * np.tanh(values[:, j - 1])
        if ties:  # repeated values exercise the midrank path
            values = np.round(values)
        if constant:
            values[:, gen.integers(d)] = 2.5
        if duplicate:
            values[:, d - 1] = values[:, 0]
        _, feats = featurize_all(Dataset(values))
        assert feats.tobytes() == featurize_pairwise(values).tobytes()

    # (10, 200) and (10, 2000) are the benchmark's shapes, beyond the
    # n <= 120 that the property test draws
    @pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (12, 50), (40, 30), (10, 200), (10, 2000)])
    def test_edge_shapes_equal_pairwise_oracle(self, d, n):
        values = make_rng(d * n).normal(size=(n, d))
        _, feats = featurize_all(Dataset(values))
        assert feats.tobytes() == featurize_pairwise(values).tobytes()

    @pytest.mark.parametrize(
        "d, live",
        [
            (6, [3]),  # the one live column, as a source, has no live target
            (5, []),  # no column is live: no source has a live target
            (2, [0]),  # d=2 with one constant column
            (2, [1]),
        ],
    )
    def test_constant_columns_equal_pairwise_oracle(self, d, live):
        values = np.full((40, d), 2.5)
        values[:, live] = make_rng(d).normal(size=(40, len(live)))
        _, feats = featurize_all(Dataset(values))
        assert np.isfinite(feats).all()
        assert feats.tobytes() == featurize_pairwise(values).tobytes()

    def test_rowdot_fallback_without_vecdot_gives_the_same_bytes(self, monkeypatch):
        """numpy before 2.0 has no np.vecdot; _rowdot then calls np.dot once
        per vector pair, and every feature keeps its bytes."""
        tied = np.round(3.0 * make_rng(3).normal(size=(60, 5)))
        one_constant = make_rng(4).normal(size=(30, 2))
        one_constant[:, 1] = 2.5
        cases = [make_rng(2).normal(size=(200, 10)), tied, one_constant]
        expected = [featurize_all(Dataset(v))[1].tobytes() for v in cases]
        monkeypatch.delattr(np, "vecdot")
        assert not hasattr(np, "vecdot")
        for values, want in zip(cases, expected):
            assert featurize_all(Dataset(values))[1].tobytes() == want


class TestGenerateTrainingSet:
    def test_shapes_and_alignment(self):
        data = _random_dataset(10)
        graphs = [empty_dag(4), dag_from_edges(4, [(0, 1), (2, 3)])]
        ts = generate_training_set(graphs, ScoreEngine(data), make_rng(0))
        assert len(ts.instances) == 2
        for (sampled, g), src in zip(ts.instances, graphs):
            assert (sampled.n, sampled.d) == (data.n, data.d)
            assert g == src

    def test_provenance_contents(self):
        data = _random_dataset(11)
        ts = generate_training_set([empty_dag(4)], ScoreEngine(data), make_rng(0))
        assert ts.provenance["source_indices"] == [0]
        assert ts.provenance["skipped_indices"] == []
        assert ts.provenance["n"] == data.n

    def test_degree_cap_violator_skipped_with_warning(self):
        data = _random_dataset(12)
        star = dag_from_edges(4, [(0, 3), (1, 3), (2, 3)])  # in-degree 3
        cfg = ScoreConfig(regressor=RegressorConfig(max_in_degree=2))
        with pytest.warns(RuntimeWarning, match="skipping graph 1"):
            ts = generate_training_set([empty_dag(4), star], ScoreEngine(data, cfg), make_rng(0))
        assert ts.provenance["skipped_indices"] == [1]
        assert len(ts.instances) == 1

    def test_over_cap_graph_is_skipped_before_any_fit_of_its_keys(self, monkeypatch):
        monkeypatch.setattr(model, "_synthesis_workers", lambda: 1)  # every fit in this process
        data = _random_dataset(12)
        star = dag_from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 3)])  # node 3 has in-degree 3
        engine = ScoreEngine(data, ScoreConfig(regressor=RegressorConfig(max_in_degree=2)))
        asked = []
        real = engine.node_fit

        def node_fit(*key):
            asked.append(key)
            return real(*key)

        monkeypatch.setattr(engine, "node_fit", node_fit)
        with pytest.warns(RuntimeWarning) as caught:
            ts = generate_training_set([star, empty_dag(4), star], engine, make_rng(0))
        assert [str(w.message) for w in caught] == [
            f"skipping graph {idx}: node 3 has in-degree 3 > cap 2" for idx in (0, 2)
        ]
        assert ts.provenance == {"source_indices": [1], "skipped_indices": [0, 2], "n": data.n}
        assert sorted(asked) == [(node, ()) for node in range(4)]  # the kept graph's keys only

    def test_all_skipped_raises(self):
        data = _random_dataset(13)
        star = dag_from_edges(4, [(0, 3), (1, 3), (2, 3)])
        cfg = ScoreConfig(regressor=RegressorConfig(max_in_degree=2))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DegreeCapError):
                generate_training_set([star], ScoreEngine(data, cfg), make_rng(0))

    def test_dimension_mismatch_raises(self):
        data = _random_dataset(14)
        with pytest.raises(StructuralInputError):
            generate_training_set([empty_dag(3)], ScoreEngine(data), make_rng(0))

    def test_empty_graph_list_raises(self):
        data = _random_dataset(15)
        with pytest.raises(ConfigError):
            generate_training_set([], ScoreEngine(data), make_rng(0))

    def test_deterministic_given_rng(self):
        data = _random_dataset(16)
        graphs = [dag_from_edges(4, [(0, 1)]), dag_from_edges(4, [(1, 2)])]
        a = generate_training_set(graphs, ScoreEngine(data), make_rng(3))
        b = generate_training_set(graphs, ScoreEngine(data), make_rng(3))
        for (da, _), (db, _) in zip(a.instances, b.instances):
            assert np.array_equal(da.values, db.values)

    def test_engine_fits_each_parent_set_once(self, monkeypatch):
        data = _random_dataset(17)
        g = dag_from_edges(4, [(0, 1)])
        calls = []

        def counted(node, parents, *args, **kwargs):
            calls.append((node, parents))
            return fit_node(node, parents, *args, **kwargs)

        monkeypatch.setattr(scoring, "fit_node", counted)
        engine = ScoreEngine(data)
        generate_training_set([g, g, g], engine, make_rng(0))
        assert len(calls) == data.d  # one per node, not per graph
        assert len(set(calls)) == data.d
        assert engine.cache_size() == data.d


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"learning_rate": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestEdgePredictor:
    def _fresh(self, seed=0, n_features=16):
        return EdgePredictor.initialize(n_features, TrainConfig(), make_rng(seed))

    def test_architecture_shapes(self):
        m = self._fresh()
        assert m.w1.shape == (16, 64)
        assert m.w2.shape == (64, 64)
        assert m.w3.shape == (64,)
        assert m.n_features == 16

    def test_parameters_are_views_of_theta(self):
        m = self._fresh(1)
        new = make_rng(2).normal(size=m.theta.shape)
        m.theta[:] = new
        parts = [m.w1.ravel(), m.b1, m.w2.ravel(), m.b2, m.w3, [m.b3]]
        assert np.array_equal(np.concatenate(parts), new)

    def test_writing_theta_changes_forward(self):
        m = self._fresh(12)
        fn = make_rng(13).normal(size=(6, 16))
        before = m.forward(fn)
        m.theta[0] += 0.5  # w1[0, 0]
        assert not np.array_equal(m.forward(fn), before)
        m.theta[-1] = 500.0  # the output bias
        assert np.all(m.forward(np.zeros((4, 16))) > 0.99)

    def test_zero_weights_give_log2_loss(self):
        m = self._fresh(3)
        m.theta[:] = 0.0
        fn = make_rng(4).normal(size=(10, 16))
        y = (make_rng(5).random(10) < 0.5).astype(float)
        loss, _ = m.loss_and_grads(fn, y)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_sigmoid_is_stable_at_extreme_logits(self):
        m = self._fresh(6)
        fn = np.zeros((4, 16))
        m.theta[:] = 0.0
        m.theta[-1] = 500.0
        with np.errstate(all="raise"):
            p = m.forward(fn)
        assert np.all(p == 1.0)
        m.theta[-1] = -500.0
        with np.errstate(all="raise"):
            p = m.forward(fn)
        assert np.all(p < 1e-100)

    def test_analytic_gradients_match_central_differences(self):
        m = self._fresh(7)
        rng = make_rng(8)
        fn = rng.normal(size=(8, 16))
        y = (rng.random(8) < 0.5).astype(float)
        base = m.theta.copy()

        def loss_at(vec):
            m.theta[:] = vec
            loss, _ = m.loss_and_grads(fn, y)
            return loss

        m.theta[:] = base
        _, analytic = m.loss_and_grads(fn, y)
        assert analytic.shape == m.theta.shape
        numeric = central_difference_gradient(loss_at, base, eps=1e-5)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6

    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_loss_and_grads_match_reference_bit_for_bit(self, batch):
        m = self._fresh(16)
        rng = make_rng(17)
        m.theta[:] = rng.normal(scale=0.3, size=m.theta.shape)
        fn = rng.normal(size=(batch, 16))
        y = (rng.random(batch) < 0.3).astype(float)
        loss, grad = m.loss_and_grads(fn, y)
        want_loss, want_grad = loss_and_grads_reference(m, fn, y)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()

    def test_consecutive_gradients_are_independent_arrays(self):
        m = self._fresh(14)
        rng = make_rng(15)
        fn_a, fn_b = rng.normal(size=(9, 16)), rng.normal(size=(9, 16))
        y = (rng.random(9) < 0.5).astype(float)
        _, first = m.loss_and_grads(fn_a, y)
        kept = first.copy()
        _, second = m.loss_and_grads(fn_b, y)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, m.theta)
        assert first.tobytes() == kept.tobytes()
        assert not np.array_equal(first, second)

    def test_json_round_trip(self):
        m = self._fresh(9)
        m.feature_mean = make_rng(10).normal(size=16)
        m.feature_std = np.abs(make_rng(11).normal(size=16)) + 0.5
        m.epoch_losses = [0.7, 0.6, 0.5]
        back = EdgePredictor.from_json(m.to_json())
        assert np.array_equal(back.theta, m.theta)
        assert np.array_equal(back.feature_mean, m.feature_mean)
        assert np.array_equal(back.feature_std, m.feature_std)
        assert back.epoch_losses == m.epoch_losses
        assert back.config == m.config


def _training_set(seed, n=80, d=4, k=8):
    data = _random_dataset(seed, n=n, d=d)
    rng = make_rng(seed + 500)
    graphs = []
    from causalign.graph import random_er

    for _ in range(k):
        graphs.append(random_er(d, 3.0, rng))
    return data, generate_training_set(graphs, ScoreEngine(data), rng)


class TestTrain:
    def test_loss_decreases(self):
        for seed in range(5):
            _, ts = _training_set(20 + seed)
            model = train(ts, TrainConfig(epochs=30, seed=seed))
            assert model.epoch_losses[-1] < model.epoch_losses[0]
            assert len(model.epoch_losses) == 30

    def test_bit_exact_reproducibility(self):
        _, ts = _training_set(30)
        cfg = TrainConfig(epochs=10, seed=5)
        a = train(ts, cfg)
        b = train(ts, cfg)
        assert np.array_equal(a.theta, b.theta)
        assert a.epoch_losses == b.epoch_losses

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_matches_reference_loop_bit_for_bit(self, batch_size):
        """15 datasets of 20 ordered pairs give 300 rows, a multiple of
        neither 7 nor 256, so every epoch ends on a short batch."""
        _, ts = _training_set(35, n=60, d=5, k=15)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=3)
        model = train(ts, cfg)
        theta, epoch_losses = train_reference(ts, cfg)
        assert len(ts.instances) * 20 == 300
        assert model.theta.tobytes() == theta.tobytes()
        assert model.epoch_losses == epoch_losses

    def test_partly_filled_features_rejected(self):
        _, ts = _training_set(36, n=60, d=5, k=3)
        features = TrainingFeatures(5)
        features.start(3, {})
        for data, g in ts.instances[:2]:
            features.add_features(featurize_all(data)[1], g)
        with pytest.raises(StructuralInputError, match="fill 40 of 60 rows"):
            train(features, TrainConfig(epochs=1, seed=0))

    def test_training_set_on_several_d_rejected(self):
        _, ts = _training_set(38, n=60, d=4, k=2)
        _, other = _training_set(39, n=60, d=5, k=1)
        mixed = TrainingSet(instances=ts.instances + other.instances)
        with pytest.raises(StructuralInputError, match=r"one d, got d in \[4, 5\]"):
            train(mixed, TrainConfig(epochs=1, seed=0))
        with pytest.raises(StructuralInputError, match=r"one d, got d in \[\]"):
            train(TrainingSet(instances=[]), TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        _, ts = _training_set(37, n=60, d=5, k=3)
        features = TrainingFeatures(5)
        features.start(3, {})
        for k, (data, g) in enumerate(ts.instances):
            feats = featurize_all(data)[1]
            if k == 1:
                feats[4, 2] = value
            features.add_features(feats, g)
        with pytest.raises(InputQualityError, match="non-finite pair features in training set"):
            train(features, TrainConfig(epochs=1, seed=0))

    def test_normalization_statistics_frozen_from_training_features(self):
        _, ts = _training_set(31)
        model = train(ts, TrainConfig(epochs=2, seed=0))
        feats = np.vstack([featurize_all(ds)[1] for ds, _ in ts.instances])
        expect_mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        expect_std = np.where(std < 1e-8, 1.0, std)
        assert np.allclose(model.feature_mean, expect_mean, atol=1e-12)
        assert np.allclose(model.feature_std, expect_std, atol=1e-12)

    def test_overfits_repeated_single_labelling(self):
        # uniform noise keeps the direction identifiable, so the repeated
        # labelling is fully separable in feature space
        rng = make_rng(32)
        n = 400
        x0 = rng.uniform(-1, 1, size=n)
        x1 = 2.0 * x0 + rng.uniform(-0.3, 0.3, size=n)
        x2 = 2.0 * x1 + rng.uniform(-0.3, 0.3, size=n)
        data = Dataset(np.column_stack([x0, x1, x2]))
        chain = dag_from_edges(3, [(0, 1), (1, 2)])
        ts = generate_training_set([chain] * 10, ScoreEngine(data), make_rng(1))
        model = train(ts, TrainConfig(epochs=80, learning_rate=3e-3, seed=0))
        probs = predict(model, data)
        assert auroc(probs, chain) == 1.0

    def test_pure_noise_probabilities_track_base_rate(self):
        data = noise_dataset(33, d=4, n=200)
        from causalign.graph import random_er

        rng = make_rng(34)
        graphs = [random_er(4, 3.0, rng) for _ in range(12)]
        ts = generate_training_set(graphs, ScoreEngine(data), rng)
        labels = np.concatenate(
            [
                g.adjacency[~np.eye(4, dtype=bool)].astype(float)
                for _, g in ts.instances
            ]
        )
        model = train(ts, TrainConfig(epochs=40, seed=0))
        probs = predict(model, data)
        mean_prob = probs[~np.eye(4, dtype=bool)].mean()
        assert abs(mean_prob - labels.mean()) < 0.2


class TestPredict:
    def test_output_shape_and_range(self):
        data, ts = _training_set(40)
        model = train(ts, TrainConfig(epochs=5, seed=0))
        probs = predict(model, data)
        assert probs.shape == (4, 4)
        assert np.all(np.diag(probs) == 0.0)
        off = probs[~np.eye(4, dtype=bool)]
        assert np.all((off > 0.0) & (off < 1.0))

    def test_feature_count_mismatch_raises(self):
        data = _random_dataset(41)
        stub = EdgePredictor.initialize(5, TrainConfig(), make_rng(0))
        with pytest.raises(StructuralInputError):
            predict(stub, data)

    def test_prediction_equivariance_under_relabelling(self):
        data, ts = _training_set(42, d=4)
        model = train(ts, TrainConfig(epochs=5, seed=0))
        perm = [3, 1, 0, 2]
        permuted = Dataset(data.values[:, perm])
        base = predict(model, data)
        moved = predict(model, permuted)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                assert moved[a, b] == base[perm[a], perm[b]]


class TestKnnScorePredict:
    def test_matches_argmax_of_fresh_scores(self):
        data = linear_dataset(50, d=3, n=300, weight=1.5, noise=0.5)
        graphs = [
            empty_dag(3),
            dag_from_edges(3, [(0, 1), (1, 2)]),
            dag_from_edges(3, [(1, 0), (2, 1)]),
            dag_from_edges(3, [(0, 2)]),
        ]
        engine = ScoreEngine(data)
        ts = generate_training_set(graphs, engine, make_rng(0))
        instances = [g for _, g in ts.instances]
        chosen = knn_score_predict(instances, [engine.score(g).total for g in instances])
        fresh = ScoreEngine(data)
        totals = [fresh.score(g).total for g in graphs]
        assert chosen == graphs[int(np.argmax(totals))]

    def test_prefers_clearly_better_graph(self):
        data = linear_dataset(51, d=3, n=500, weight=2.0, noise=0.3)
        chain = dag_from_edges(3, [(0, 1), (1, 2)])
        engine = ScoreEngine(data)
        ts = generate_training_set([empty_dag(3), chain], engine, make_rng(0))
        instances = [g for _, g in ts.instances]
        assert knn_score_predict(instances, [engine.score(g).total for g in instances]) == chain

    def test_ties_go_to_the_lowest_index(self):
        data = linear_dataset(51, d=3, n=500, weight=2.0, noise=0.3)
        first = dag_from_edges(3, [(0, 1), (1, 2)])
        again = dag_from_edges(3, [(0, 1), (1, 2)])
        engine = ScoreEngine(data)
        graphs = [empty_dag(3), first, again]
        assert knn_score_predict(graphs, [engine.score(g).total for g in graphs]) is first

    def test_rejects_totals_of_another_length(self):
        with pytest.raises(StructuralInputError, match="2 graphs but 1 totals"):
            knn_score_predict([empty_dag(3), empty_dag(3)], [0.0])
