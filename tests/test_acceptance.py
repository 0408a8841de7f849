"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Every test prints "[acceptance] criterion N: PASS/FAIL (detail)" directly to
the real stdout so the verdict survives pytest's capture, then asserts.
"""

import csv
import os
import sys
import time

import numpy as np
import pytest

from causalign.graph import Dag, random_er
from causalign.metrics import auroc, auprc, f1_acc
from causalign.model import (
    EdgePredictor,
    TrainConfig,
    generate_training_set,
    knn_score_predict,
)
from causalign.pipeline import (
    GeneratorConfig,
    PipelineConfig,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
)
from causalign.refine import RefineConfig, init_seed, refine
from causalign.scm import (
    LinearNode,
    MechanismFamily,
    MechanismSpec,
    NoiseFamily,
    NoiseSpec,
    ScmInstance,
    forward_sample,
    sample_scm,
)
from causalign.scoring import ScoreConfig, ScoreEngine
from causalign.sim import RegressorConfig

from oracles import all_dags, central_difference_gradient, exhaustive_best_total, fit_sim
from oracles import auprc_sweep, auroc_sweep, f1_acc_sweep

import conftest


def _emit(num, ok, detail):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_criterion_01_search_matches_exhaustive_optimum():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        scm = sample_scm(
            "er", "linear", "uniform", 3, rng,
            weight_range=(1.0, 2.0), noise_scale_range=(0.5, 0.5),
        )
        ds = forward_sample(scm, 1000, rng)
        engine = ScoreEngine(ds, ScoreConfig())
        seed_dag = init_seed(engine, "random_dag", np.random.default_rng(1000 + seed))
        trace = refine(
            engine, seed_dag, RefineConfig(n_steps=500), np.random.default_rng(2000 + seed)
        )
        best = trace.best_score
        oracle = exhaustive_best_total(ds, ScoreConfig(), 3)
        hits += abs(best.total - oracle) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 60.0
    _emit(1, ok, f"{hits}/10 instances within 1e-9 of the 25-DAG optimum, {elapsed:.1f}s")
    assert hits >= 9
    assert elapsed < 60.0


def test_criterion_02_near_zero_temperature_is_monotone():
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scm = sample_scm("er", "linear", "gaussian", 4, rng)
        ds = forward_sample(scm, 60, rng)
        engine = ScoreEngine(ds, ScoreConfig())
        seed_dag = init_seed(engine, "random_dag", np.random.default_rng(5000 + seed))
        trace = refine(
            engine, seed_dag, RefineConfig(n_steps=80, temperature=1e-300),
            np.random.default_rng(9000 + seed),
        )
        accepted = [s.s_cand for s in trace.steps if s.accepted]
        violations += sum(b < a for a, b in zip(accepted, accepted[1:]))
    ok = violations == 0
    _emit(2, ok, f"{violations} ordering violations across 100 instances")
    assert violations == 0


def test_criterion_03_knn_equals_argmax_selection():
    matches = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scm = sample_scm("er", "linear", "gaussian", 4, rng)
        ds = forward_sample(scm, 80, rng)
        graphs = [random_er(4, 3.0, rng) for _ in range(6)]
        engine = ScoreEngine(ds, ScoreConfig())
        ts = generate_training_set(graphs, engine, rng)
        chosen = knn_score_predict([g for _, g in ts.instances], engine)
        fresh = ScoreEngine(ds, ScoreConfig())
        totals = [fresh.score(g).total for _, g in ts.instances]
        expected = ts.instances[int(np.argmax(totals))][1]
        matches += chosen == expected
    ok = matches == 20
    _emit(3, ok, f"{matches}/20 exact adjacency matches against argmax-of-score")
    assert matches == 20


@pytest.fixture(scope="module")
def standard_suite(tmp_path_factory):
    """Shared 10-instance benchmark used by criteria 4 and 5."""
    out = str(tmp_path_factory.mktemp("suite"))
    config = PipelineConfig(seed=0, generator=GeneratorConfig(noise="uniform"))
    t0 = time.perf_counter()
    run_benchmark(config, "iid", 10, out)
    elapsed = time.perf_counter() - t0
    rows = list(csv.DictReader(open(os.path.join(out, "results.csv"))))
    means = {}
    for method in ("seed_graph", "best_graph", "final"):
        vals = [
            float(r["value"])
            for r in rows
            if r["method"] == method and r["metric"] == "auroc"
        ]
        means[method] = float(np.mean(vals))
    return means, elapsed


def test_criterion_04_end_to_end_accuracy(standard_suite):
    means, elapsed = standard_suite
    ok = means["final"] >= 0.75 and elapsed < 1800.0
    _emit(4, ok, f"mean final AUROC {means['final']:.4f} over 10 instances, {elapsed:.0f}s")
    assert means["final"] >= 0.75
    assert elapsed < 1800.0


def test_criterion_05_stage_wise_improvement(standard_suite):
    means, _ = standard_suite
    ok = (
        means["best_graph"] >= means["seed_graph"]
        and means["final"] >= means["seed_graph"] - 0.02
    )
    _emit(
        5,
        ok,
        f"seed {means['seed_graph']:.4f} -> best {means['best_graph']:.4f} "
        f"-> final {means['final']:.4f}",
    )
    assert means["best_graph"] >= means["seed_graph"]
    assert means["final"] >= means["seed_graph"] - 0.02


def test_criterion_06_sparsity_ablation_direction(tmp_path):
    config = PipelineConfig(
        seed=0,
        generator=GeneratorConfig(mechanism="chebyshev", noise="gaussian"),
        refine=RefineConfig(score=ScoreConfig(sparsity_weight=0.02)),
    )
    rows = run_ablation_sparsity(config, "iid", 10, str(tmp_path / "ablation"))
    pen = [r for r in rows if r["arm"] == "penalized"]
    unp = [r for r in rows if r["arm"] == "unpenalized"]
    auroc_pen = float(np.mean([r["auroc"] for r in pen]))
    auroc_unp = float(np.mean([r["auroc"] for r in unp]))
    edges_pen = float(np.mean([r["collected_mean_edges"] for r in pen]))
    edges_unp = float(np.mean([r["collected_mean_edges"] for r in unp]))
    ok = auroc_pen >= auroc_unp and edges_unp > edges_pen
    _emit(
        6,
        ok,
        f"AUROC {auroc_pen:.4f} vs {auroc_unp:.4f} unpenalized; "
        f"collected edges {edges_pen:.2f} vs {edges_unp:.2f} unpenalized",
    )
    assert auroc_pen >= auroc_unp
    assert edges_unp > edges_pen


def test_criterion_07_metrics_match_sweep_oracles():
    rng = np.random.default_rng(7)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    cases = 0
    worst = 0.0
    for adj in all_dags(4):
        if adj.sum() == 0:
            continue  # AUROC/AUPRC undefined without positives
        for scores in (
            rng.choice(grid, size=(4, 4)),
            rng.random((4, 4)),
        ):
            np.fill_diagonal(scores, 0.0)
            truth = Dag(adj)
            diffs = (
                abs(auroc(scores, truth) - auroc_sweep(scores, truth.adjacency)),
                abs(auprc(scores, truth) - auprc_sweep(scores, truth.adjacency)),
            )
            f1, acc = f1_acc(scores, truth, threshold=0.5)
            of1, oacc = f1_acc_sweep(scores, truth.adjacency, 0.5)
            diffs += (abs(f1 - of1), abs(acc - oacc))
            worst = max(worst, *diffs)
            cases += 1
    ok = cases >= 1000 and worst <= 1e-9
    _emit(7, ok, f"{cases} truth/score cases, worst |diff| {worst:.2e}")
    assert cases >= 1000
    assert worst <= 1e-9


def test_criterion_08_sim_recovers_linear_coefficients():
    adj = np.zeros((5, 5), dtype=np.int8)
    adj[0, 2] = adj[1, 2] = adj[2, 3] = adj[3, 4] = 1
    dag = Dag(adj)
    true_w = {2: np.array([1.3, -0.7]), 3: np.array([0.9]), 4: np.array([-1.1])}
    params = [LinearNode(weights=true_w.get(j, np.zeros(0))) for j in range(5)]
    scm = ScmInstance(
        dag=dag,
        mechanisms=MechanismSpec(family=MechanismFamily.LINEAR, node_params=params),
        noise=NoiseSpec(
            family=NoiseFamily.GAUSSIAN,
            scales=np.array([1.0, 1.0, 0.3, 0.3, 0.3]),
        ),
    )
    hits = 0
    worst = 0.0
    for seed in range(10):
        ds = forward_sample(scm, 2000, np.random.default_rng(seed))
        fitted = fit_sim(dag, ds, RegressorConfig(basis="linear"))
        err = max(
            float(np.max(np.abs(fitted.nodes[j].weights - true_w[j])))
            for j in true_w
        )
        worst = max(worst, err)
        hits += err <= 0.05
    ok = hits == 10
    _emit(8, ok, f"{hits}/10 seeds with every coefficient within 0.05, worst {worst:.4f}")
    assert hits == 10


def test_criterion_09_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    model = EdgePredictor.initialize(16, TrainConfig(), np.random.default_rng(0))
    fn = rng.normal(size=(12, 16))
    y = rng.integers(0, 2, size=12).astype(float)

    def loss_at(vec):
        model.theta[:] = vec
        loss, _ = model.loss_and_grads(fn, y)
        return loss

    worst = 0.0
    for _ in range(5):
        point = rng.normal(scale=0.5, size=model.theta.size)
        model.theta[:] = point
        _, analytic = model.loss_and_grads(fn, y)
        numeric = central_difference_gradient(loss_at, point, eps=1e-5)
        rel = float(
            np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        )
        worst = max(worst, rel)
    ok = worst <= 1e-4
    _emit(9, ok, f"worst relative gradient error {worst:.2e} over 5 points")
    assert worst <= 1e-4


def _refine_seconds(n, n_steps, rep):
    rng = np.random.default_rng(100 + rep)
    scm = sample_scm("er", "linear", "uniform", 10, rng)
    ds = forward_sample(scm, n, rng)
    engine = ScoreEngine(ds, ScoreConfig())
    seed_dag = init_seed(engine, "random_dag", np.random.default_rng(200 + rep))
    cfg = RefineConfig(n_steps=n_steps)
    t0 = time.perf_counter()
    refine(engine, seed_dag, cfg, np.random.default_rng(300 + rep))
    return time.perf_counter() - t0


@pytest.mark.timing
def test_criterion_10_wall_clock_scaling():
    # step term measured at suite scale; sample term at n large enough
    # that the per-step O(n) refit dominates fixed move-enumeration work
    base_steps = np.median([_refine_seconds(200, 1000, r) for r in range(3)])
    dbl_steps = np.median([_refine_seconds(200, 2000, r) for r in range(3)])
    steps_ratio = float(dbl_steps / base_steps)
    base_n = np.median([_refine_seconds(4000, 500, r) for r in range(3)])
    dbl_n = np.median([_refine_seconds(8000, 500, r) for r in range(3)])
    n_ratio = float(dbl_n / base_n)
    ok = 1.6 <= steps_ratio <= 2.5 and 1.5 <= n_ratio <= 2.8
    _emit(
        10,
        ok,
        f"doubling n_steps -> x{steps_ratio:.2f} (want [1.6, 2.5]); "
        f"doubling n -> x{n_ratio:.2f} (want [1.5, 2.8])",
    )
    assert 1.6 <= steps_ratio <= 2.5
    assert 1.5 <= n_ratio <= 2.8


def test_criterion_11_determinism(tmp_path):
    def run(sub):
        config = PipelineConfig(
            seed=123,
            out_dir=str(tmp_path / sub),
            generator=GeneratorConfig(noise="uniform"),
        )
        record = run_pipeline(config)
        return record.out_dir

    dir_a = run("a")
    dir_b = run("b")
    same = {}
    for name in ("prediction.csv", "trace.jsonl"):
        a = open(os.path.join(dir_a, name), "rb").read()
        b = open(os.path.join(dir_b, name), "rb").read()
        same[name] = a == b
    ok = all(same.values())
    _emit(
        11,
        ok,
        "byte-identical prediction.csv and trace.jsonl across two identical runs"
        if ok
        else f"mismatch in {[k for k, v in same.items() if not v]}",
    )
    assert all(same.values())
