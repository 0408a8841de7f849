"""Tests of the benchmark's own output checks.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from causalign.pipeline import GeneratorConfig, PipelineConfig, run_benchmark, run_pipeline  # noqa: E402
from causalign.refine import RefineConfig  # noqa: E402

# truth 0->1, 1->2 over d=3: positives (0,1), (1,2); negatives (0,2), (1,0), (2,0), (2,1)
CHAIN = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def scores(cells: dict) -> np.ndarray:
    out = np.zeros((3, 3))
    for (i, j), v in cells.items():
        out[i, j] = v
    return out


@pytest.mark.parametrize(
    "cells, expected",
    [
        # both positives above every negative
        ({(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1, (1, 0): 0.2, (2, 0): 0.3, (2, 1): 0.4}, 1.0),
        # both positives below every negative
        ({(0, 1): 0.0, (1, 2): 0.0, (0, 2): 0.5, (1, 0): 0.5, (2, 0): 0.5, (2, 1): 0.5}, 0.0),
        # every cell tied: each of the 8 pairs scores 0.5
        ({}, 0.5),
        # negatives 0.1, 0.2, 0.3, 0.7: (0,1)=0.6 beats three of them;
        # (1,2)=0.3 beats two and ties one: (3 + 2 + 0.5) / 8
        ({(0, 1): 0.6, (1, 2): 0.3, (0, 2): 0.1, (1, 0): 0.2, (2, 0): 0.3, (2, 1): 0.7}, 5.5 / 8),
    ],
)
def test_pairwise_auroc_hand_worked(cells, expected):
    assert checks.pairwise_auroc(scores(cells), CHAIN) == expected


def test_pairwise_auroc_ignores_the_diagonal():
    s = scores({(0, 1): 0.9, (1, 2): 0.8})
    np.fill_diagonal(s, 1.0)
    assert checks.pairwise_auroc(s, CHAIN) == 1.0


def test_pairwise_auroc_undefined_without_positives():
    with pytest.raises(ValueError):
        checks.pairwise_auroc(np.zeros((3, 3)), np.zeros((3, 3)))


def test_is_acyclic():
    assert checks.is_acyclic(CHAIN)
    assert checks.is_acyclic(np.zeros((4, 4)))
    assert not checks.is_acyclic(CHAIN + CHAIN.T)
    three_cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert not checks.is_acyclic(three_cycle)


def tiny_config(**kw) -> PipelineConfig:
    gen = GeneratorConfig(mechanism="linear", noise="uniform", d=5, n=60)
    return PipelineConfig(seed=3, generator=gen, refine=RefineConfig(n_steps=40, collect_k=10), **kw)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    record = run_pipeline(tiny_config(out_dir=str(out)))
    return out, record


def test_trace_replay_reaches_the_final_graph(tiny_run):
    out, _ = tiny_run
    art = checks.load_run_dir(str(out))
    assert len(art.steps) == 40 and len(art.collected) == 10
    rep = checks.replay(art.seed, art.seed_total, art.steps)
    assert rep.problems == []
    assert np.array_equal(rep.graphs[-1], art.final)
    assert all(np.array_equal(a, b) for a, b in zip(rep.graphs[-10:], art.collected))
    assert np.array_equal(rep.best, art.best) and rep.best_total == art.best_total


def test_check_run_passes_the_replay_and_rescore_checks(tiny_run):
    out, _ = tiny_run
    assert checks.check_run(checks.load_run_dir(str(out)), tiny_config().refine.score) == []


def _first_accepted(steps) -> int:
    return next(k for k, rec in enumerate(steps) if rec["accepted"])


def test_replay_detects_a_tampered_trace(tiny_run):
    out, _ = tiny_run
    art = checks.load_run_dir(str(out))
    k = _first_accepted(art.steps)
    art.steps[k] = dict(art.steps[k], accepted=False)
    problems = checks.check_run(art, tiny_config().refine.score)
    assert any("replay" in p or "cannot" in p or "collected" in p for p in problems)


def test_check_run_detects_a_wrong_best_total_and_auroc(tiny_run):
    out, _ = tiny_run
    art = checks.load_run_dir(str(out))
    art.best_total += 1e-6
    art.metrics["final"]["auroc"] += 1e-9
    problems = checks.check_run(art, tiny_config().refine.score)
    assert any("full rescore" in p for p in problems)
    assert any("pairwise count" in p for p in problems)


def test_check_prediction():
    good = np.full((3, 3), 0.5)
    np.fill_diagonal(good, 0.0)
    assert checks.check_prediction(good, 3) == []
    bad = good.copy()
    bad[0, 0] = 0.1
    bad[0, 1] = np.nan
    assert len(checks.check_prediction(bad, 3)) == 2
    assert checks.check_prediction(good * 3, 3) != []


def test_suite_tables(tmp_path):
    cfg = tiny_config(stages="knn_only")
    run_benchmark(cfg, "iid", 2, str(tmp_path), threads=1)
    problems, ok, failed = checks.check_suite_tables(str(tmp_path), 2)
    assert (problems, ok, failed) == ([], [0, 1], [])

    summary = (tmp_path / "summary.csv").read_text().splitlines()
    summary[1] = summary[1].rsplit(",", 2)[0] + ",0.123,0.0"
    (tmp_path / "summary.csv").write_text("\n".join(summary) + "\n")
    results = [line for line in (tmp_path / "results.csv").read_text().splitlines() if not line.startswith("1,")]
    (tmp_path / "results.csv").write_text("\n".join(results) + "\n")
    problems, ok, _ = checks.check_suite_tables(str(tmp_path), 2)
    assert ok == [0]
    assert any("do not cover" in p for p in problems)
    assert any("summary mean" in p for p in problems)


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = set(tracing.Tracer().metrics()) | set(run.DRIVER_LAYERS)
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
