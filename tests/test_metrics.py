"""Tests for edge-probability evaluation metrics against independent
threshold-sweep references."""

import json
import math

import numpy as np
import pytest

from causalign.errors import ConfigError, StructuralInputError, UndefinedMetricError
from causalign.metrics import MetricReport, aggregate, auprc, auroc, evaluate, f1_acc

from conftest import dag_from_edges, empty_dag, make_rng
from oracles import auprc_sweep, auroc_sweep, f1_acc_sweep


def _score_matrix(d, fill=0.0):
    return np.full((d, d), fill, dtype=float)


def _random_case(rng, d=4, grid=None):
    """Random truth (non-empty) and score matrix, optionally on a small
    value grid to force ties."""
    from causalign.graph import random_er

    while True:
        truth = random_er(d, d * 0.8, rng)
        if truth.edge_count > 0:
            break
    scores = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if grid is None:
                scores[i, j] = rng.random()
            else:
                scores[i, j] = grid[int(rng.integers(len(grid)))]
    return scores, truth


class TestAuroc:
    def test_perfect_prediction(self):
        truth = dag_from_edges(3, [(0, 1)])
        scores = _score_matrix(3, 0.1)
        scores[0, 1] = 0.9
        assert auroc(scores, truth) == 1.0

    def test_inverted_prediction(self):
        truth = dag_from_edges(3, [(0, 1)])
        scores = _score_matrix(3, 0.9)
        scores[0, 1] = 0.1
        np.fill_diagonal(scores, 0.0)
        assert auroc(scores, truth) == 0.0

    def test_constant_scores_give_half(self):
        truth = dag_from_edges(4, [(0, 1), (2, 3)])
        assert auroc(_score_matrix(4, 0.5), truth) == 0.5

    def test_complement_flips_area(self):
        rng = make_rng(0)
        for _ in range(20):
            scores, truth = _random_case(rng)
            a = auroc(scores, truth)
            flipped = 1.0 - scores
            np.fill_diagonal(flipped, 0.0)
            assert auroc(flipped, truth) == pytest.approx(1.0 - a, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = make_rng(1)
        for _ in range(20):
            scores, truth = _random_case(rng)
            a = auroc(scores, truth)
            assert auroc(np.exp(scores), truth) == pytest.approx(a, abs=1e-12)
            assert auroc(scores**3, truth) == pytest.approx(a, abs=1e-12)

    def test_matches_sweep_oracle_with_ties(self):
        rng = make_rng(2)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for k in range(100):
            scores, truth = _random_case(rng, d=4, grid=grid if k % 2 else None)
            expect = auroc_sweep(scores, truth.adjacency)
            assert auroc(scores, truth) == pytest.approx(expect, abs=1e-9)

    def test_empty_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc(_score_matrix(3, 0.5), empty_dag(3))

    def test_diagonal_never_participates(self):
        rng = make_rng(3)
        scores, truth = _random_case(rng)
        a = auroc(scores, truth)
        spiked = scores.copy()
        np.fill_diagonal(spiked, 1e6)
        assert auroc(spiked, truth) == a


class TestAuprc:
    def test_perfect_prediction(self):
        truth = dag_from_edges(3, [(0, 1), (1, 2)])
        scores = _score_matrix(3, 0.1)
        scores[0, 1] = scores[1, 2] = 0.9
        assert auprc(scores, truth) == 1.0

    def test_constant_scores_equal_base_rate(self):
        truth = dag_from_edges(4, [(0, 1), (2, 3), (0, 3)])
        base_rate = 3 / 12
        assert auprc(_score_matrix(4, 0.7), truth) == pytest.approx(
            base_rate, abs=1e-12
        )

    def test_matches_sweep_oracle_with_ties(self):
        rng = make_rng(4)
        grid = [0.1, 0.4, 0.9]
        for k in range(100):
            scores, truth = _random_case(rng, d=4, grid=grid if k % 2 else None)
            expect = auprc_sweep(scores, truth.adjacency)
            assert auprc(scores, truth) == pytest.approx(expect, abs=1e-9)

    def test_empty_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auprc(_score_matrix(3, 0.5), empty_dag(3))

    def test_monotone_transform_invariance(self):
        rng = make_rng(5)
        scores, truth = _random_case(rng)
        assert auprc(np.exp(scores), truth) == pytest.approx(
            auprc(scores, truth), abs=1e-12
        )


class TestF1Acc:
    def test_hand_case(self):
        truth = dag_from_edges(3, [(0, 1)])
        scores = _score_matrix(3, 0.0)
        scores[0, 1] = 0.8  # true positive
        scores[1, 2] = 0.8  # false positive
        f1, acc = f1_acc(scores, truth)
        assert f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert acc == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_threshold_is_inclusive(self):
        truth = dag_from_edges(2, [(0, 1)])
        scores = _score_matrix(2, 0.0)
        scores[0, 1] = 0.5
        f1, acc = f1_acc(scores, truth, threshold=0.5)
        assert f1 == 1.0 and acc == 1.0

    def test_zero_threshold_marks_everything_positive(self):
        truth = dag_from_edges(3, [(0, 1)])
        f1, acc = f1_acc(_score_matrix(3, 0.2), truth, threshold=0.0)
        assert acc == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert f1 == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_no_predictions_no_positives_gives_zero_f1(self):
        truth = dag_from_edges(3, [(0, 1)])
        f1, acc = f1_acc(_score_matrix(3, 0.0), truth, threshold=0.9)
        assert f1 == 0.0
        assert acc == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_matches_sweep_oracle(self):
        rng = make_rng(6)
        for _ in range(50):
            scores, truth = _random_case(rng, d=4)
            thr = float(rng.random())
            ef1, eacc = f1_acc_sweep(scores, truth.adjacency, thr)
            f1, acc = f1_acc(scores, truth, thr)
            assert f1 == pytest.approx(ef1, abs=1e-12)
            assert acc == pytest.approx(eacc, abs=1e-12)

    @pytest.mark.parametrize("thr", [-0.1, 1.1])
    def test_threshold_bounds(self, thr):
        truth = dag_from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError):
            f1_acc(_score_matrix(2, 0.5), truth, threshold=thr)


class TestInputValidation:
    def test_nonsquare_matrix(self):
        with pytest.raises(StructuralInputError):
            auroc(np.zeros((2, 3)), dag_from_edges(2, [(0, 1)]))

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralInputError):
            auroc(np.zeros((3, 3)), dag_from_edges(2, [(0, 1)]))

    def test_non_finite_scores(self):
        scores = _score_matrix(2, 0.5)
        scores[0, 1] = np.nan
        with pytest.raises(StructuralInputError):
            auroc(scores, dag_from_edges(2, [(0, 1)]))


class TestEvaluate:
    def test_fields_match_individual_metrics(self):
        rng = make_rng(7)
        scores, truth = _random_case(rng)
        report = evaluate(scores, truth, threshold=0.4)
        assert report.auroc == auroc(scores, truth)
        assert report.auprc == auprc(scores, truth)
        f1, acc = f1_acc(scores, truth, 0.4)
        assert report.f1 == f1 and report.acc == acc
        assert report.threshold == 0.4
        assert report.n_positive == truth.edge_count
        assert report.n_negative == truth.d * (truth.d - 1) - truth.edge_count

    def test_edgeless_truth_leaves_ranking_metrics_undefined(self):
        scores = _score_matrix(4, 0.3)
        scores[0, 1] = 0.7
        report = evaluate(scores, empty_dag(4))
        assert (report.auroc, report.auprc) == (None, None)
        assert (report.f1, report.acc) == f1_acc(scores, empty_dag(4))
        assert (report.n_positive, report.n_negative) == (0, 12)
        assert json.loads(json.dumps(report.to_json()))["auroc"] is None

    def test_json_keys(self):
        rng = make_rng(8)
        scores, truth = _random_case(rng)
        js = evaluate(scores, truth).to_json()
        assert set(js) == {
            "auroc",
            "auprc",
            "f1",
            "acc",
            "threshold",
            "n_positive",
            "n_negative",
        }


class TestAggregate:
    def _report(self, v):
        return MetricReport(
            auroc=v, auprc=v, f1=v, acc=v, threshold=0.5, n_positive=1, n_negative=5
        )

    def test_mean_and_sample_std(self):
        out = aggregate([self._report(0.8), self._report(0.9)])
        for name in ("auroc", "auprc", "f1", "acc"):
            assert out[name]["mean"] == pytest.approx(0.85, abs=1e-12)
            assert out[name]["std"] == pytest.approx(
                math.sqrt(((0.8 - 0.85) ** 2 + (0.9 - 0.85) ** 2) / 1), abs=1e-12
            )

    def test_single_report_has_zero_std(self):
        out = aggregate([self._report(0.7)])
        assert out["auroc"]["mean"] == 0.7
        assert out["auroc"]["std"] == 0.0

    def test_undefined_values_are_left_out_and_counted(self):
        undefined = MetricReport(
            auroc=None, auprc=None, f1=0.5, acc=0.5, threshold=0.5, n_positive=0, n_negative=6
        )
        out = aggregate([self._report(0.8), undefined, self._report(0.9)])
        assert out["auroc"]["n"] == out["auprc"]["n"] == 2
        assert out["auroc"]["mean"] == pytest.approx(0.85, abs=1e-12)
        assert out["auroc"]["std"] == pytest.approx(math.sqrt(0.005), abs=1e-12)
        assert out["f1"]["n"] == 3
        assert out["f1"]["mean"] == pytest.approx((0.8 + 0.5 + 0.9) / 3, abs=1e-12)

    def test_metric_defined_nowhere_has_no_mean(self):
        undefined = MetricReport(
            auroc=None, auprc=None, f1=0.0, acc=1.0, threshold=0.5, n_positive=0, n_negative=6
        )
        out = aggregate([undefined])
        assert out["auroc"] == {"n": 0, "mean": None, "std": None}
        assert out["acc"] == {"n": 1, "mean": 1.0, "std": 0.0}

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])
