"""End-to-end pipeline, benchmark/ablation drivers, and CLI contract."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalign import pipeline
from causalign.cli import main as cli_main
from causalign.errors import ConfigError, StageError
from causalign.io import load_dataset, load_graph, load_matrix, load_training_set, save_dataset
from causalign.model import knn_score_predict
from causalign.pipeline import (
    BENCHMARK_METHODS,
    BENCHMARK_METRICS,
    GeneratorConfig,
    PipelineConfig,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
)
from causalign.refine import AcceptanceRule, RefineConfig, SeedMode
from causalign.scm import Dataset
from causalign.scoring import AdVariant, ScaleMode, ScoreConfig
from causalign.model import TrainConfig
from causalign.sim import Basis, RegressorConfig

from conftest import make_rng


def _small_config(out_dir=None, seed=0, **overrides):
    base = dict(
        seed=seed,
        out_dir=out_dir,
        generator=GeneratorConfig(d=4, n=60, expected_edges=4.0),
        refine=RefineConfig(n_steps=50, collect_k=10),
        train=TrainConfig(learning_rate=3e-3, epochs=3),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _blas_threads():
    """This process's OpenBLAS thread count, or None without OpenBLAS."""
    lib = pipeline._openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One full run at library defaults (d=10, n=200, 2000 steps), shared
    by the smoke and timing tests."""
    out = str(tmp_path_factory.mktemp("default_run"))
    config = PipelineConfig(
        seed=1, out_dir=out, generator=GeneratorConfig(noise="uniform")
    )
    record = run_pipeline(config)
    return config, record


# SHA-256 of default_run's outputs, recorded with numpy 2.4.6 on its
# bundled scipy-openblas 0.3.31; another numpy or BLAS build may round
# differently, so the pin applies only to that build
GOLDEN_BUILD = ("2.4.6", "scipy-openblas", "0.3.31")
GOLDEN_SHA256 = {
    "prediction.csv": "5c9aa82b7e2be1f215dbc8e3f4583e996ec5068657258e5ed9fbf28368c025f3",
    "trace.jsonl": "f3d0cfba441acf8f1fdd2dbcc5e07f9db9f1b6b90ea5a71ec5b32f5fbac154d6",
}


def _golden_build_mismatch():
    """Why this numpy/BLAS build differs from GOLDEN_BUILD, or None."""
    numpy_version, blas_name, blas_version = GOLDEN_BUILD
    if np.__version__ != numpy_version:
        return f"numpy {np.__version__}, goldens recorded with {numpy_version}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    name, version = blas.get("name"), str(blas.get("version"))
    if name != blas_name or not (version == blas_version or version.startswith(blas_version + ".")):
        return f"BLAS {name} {version}, goldens recorded with {blas_name} {blas_version}"
    return None


SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"

_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_paths = st.none() | st.text(min_size=1, max_size=12)
_regressors = st.builds(
    RegressorConfig,
    basis=st.sampled_from(Basis),
    basis_size=st.integers(1, 32),
    ridge=_floats,
    max_in_degree=st.none() | st.integers(0, 12),
)
_scores = st.builds(
    ScoreConfig,
    ad_variant=st.sampled_from(AdVariant),
    sparsity_weight=st.none() | _floats,
    ad_scale_mode=st.sampled_from(ScaleMode),
    regressor=_regressors,
)
_refines = st.builds(
    RefineConfig,
    n_steps=st.integers(0, 10_000),
    collect_k=st.integers(1, 1_000),
    acceptance=st.sampled_from(AcceptanceRule),
    temperature=st.none() | st.floats(min_value=1e-9, max_value=1e6),
    seed_mode=st.sampled_from(SeedMode),
    seed_graph_path=st.text(min_size=1, max_size=12),
    seed_expected_edges=st.none() | _floats,
    dedup_collected=st.booleans(),
    greedy_max_rounds=st.integers(1, 256),
    score=_scores,
)
_ranges = st.none() | st.tuples(_floats, _floats)
_generators = st.builds(
    GeneratorConfig,
    mechanism=st.sampled_from(["linear", "rff", "chebyshev"]),
    noise=st.sampled_from(["gaussian", "uniform", "laplace"]),
    graph_model=st.sampled_from(["er", "sf"]),
    d=st.integers(2, 50),
    n=st.integers(1, 5_000),
    expected_edges=st.none() | _floats,
    attach_m=st.integers(1, 5),
    weight_range=_ranges,
    noise_scale_range=_ranges,
)
_trains = st.builds(
    TrainConfig,
    learning_rate=st.floats(min_value=1e-6, max_value=1.0),
    epochs=st.integers(1, 500),
    batch_size=st.integers(1, 1024),
    momentum=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    seed=st.none() | st.integers(0, 2**63 - 1),
)
_pipeline_configs = st.builds(
    PipelineConfig,
    seed=st.integers(0, 2**63 - 1),
    out_dir=_paths,
    stages=st.sampled_from(["full", "refine_only", "knn_only"]),
    threshold=st.floats(min_value=0.0, max_value=1.0),
    noise_mode=st.sampled_from(["parametric", "empirical"]),
    data_path=_paths,
    truth_path=_paths,
    generator=st.none() | _generators,
    refine=_refines,
    train=_trains,
)


class TestPipelineConfig:
    @settings(max_examples=200, deadline=None)
    @given(_pipeline_configs)
    def test_round_trip_through_json(self, cfg):
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_schema_matches_dataclasses(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        layout = PipelineConfig(generator=GeneratorConfig(), data_path="data.csv").to_dict()
        defaults = PipelineConfig(generator=GeneratorConfig()).to_dict()

        def check(props, keys, default, where):
            assert set(props) == set(keys), where
            for name, prop in props.items():
                if "properties" in prop:
                    check(prop["properties"], keys[name], default.get(name, {}), f"{where}.{name}")
                else:  # a property without a schema default defaults to null
                    assert prop.get("default") == default.get(name), f"{where}.{name}"

        check(schema["properties"], layout, defaults, "config")

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"train": {"epoch": 5}}, "epoch"),
            ({"regressor": {"max_iter": 10}}, "max_iter"),
            ({"data": {"paths": "x.csv"}}, "paths"),
            ({"generator": {"mech": "linear"}}, "mech"),
            # field names that config.json spells differently or nests elsewhere
            ({"out_dir": "runs/x"}, "out_dir"),
            ({"refine": {"seed_graph_path": "g.csv"}}, "seed_graph_path"),
            ({"score": {"regressor": {}}}, "regressor"),
        ],
    )
    def test_unknown_key_in_any_section_rejected(self, obj, key):
        with pytest.raises(ConfigError, match=f"unknown config keys.*'{key}'"):
            PipelineConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"refine": {"dedup_collected": "false"}}, "config.refine.dedup_collected"),
            ({"refine": {"dedup_collected": 0}}, "config.refine.dedup_collected"),
            ({"train": {"epochs": 2.5}}, "config.train.epochs"),
            ({"train": {"epochs": True}}, "config.train.epochs"),
            ({"train": {"epochs": "20"}}, "config.train.epochs"),
            ({"regressor": {"max_in_degree": False}}, "config.regressor.max_in_degree"),
            ({"generator": {"d": 4.5}}, "config.generator.d"),
        ],
    )
    def test_bool_and_int_fields_reject_other_json_types(self, obj, key):
        with pytest.raises(ConfigError, match=f"bad config value for {key}:"):
            PipelineConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"threshold": True}, "config.threshold"),
            ({"train": {"learning_rate": "0.01"}}, "config.train.learning_rate"),
            ({"train": {"momentum": False}}, "config.train.momentum"),
            ({"score": {"sparsity_weight": "0.1"}}, "config.score.sparsity_weight"),
            ({"generator": {"weight_range": [1.0, "2"]}}, "config.generator.weight_range"),
        ],
    )
    def test_float_fields_reject_non_numbers(self, obj, key):
        with pytest.raises(ConfigError, match=f"bad config value for {key}:"):
            PipelineConfig.from_dict(obj)

    def test_integer_reads_as_float(self):
        cfg = PipelineConfig.from_dict({"threshold": 0, "train": {"learning_rate": 1}})
        assert cfg.threshold == 0.0 and type(cfg.threshold) is float
        assert cfg.train.learning_rate == 1.0 and type(cfg.train.learning_rate) is float

    @pytest.mark.parametrize("override", [{"threshold": True}, {"train": {"learning_rate": "0.01"}}])
    def test_float_errors_exit_two_from_cli(self, tmp_path, override):
        path = _write_config(tmp_path / "cfg.json", **override)
        assert cli_main(["pipeline", "--config", path, "--out", str(tmp_path / "run")]) == 2

    def test_integral_number_reads_as_int(self):
        cfg = PipelineConfig.from_dict({"train": {"epochs": 2.0}, "refine": {"dedup_collected": True}})
        assert cfg.train.epochs == 2 and type(cfg.train.epochs) is int
        assert cfg.refine.dedup_collected is True

    def test_coerce_errors_exit_two_from_cli(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", train={"epochs": 2.5})
        assert cli_main(["pipeline", "--config", path, "--out", str(tmp_path / "run")]) == 2

    def test_schema_minimum_in_degree_constructs_and_round_trips(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        lowest = schema["properties"]["regressor"]["properties"]["max_in_degree"]["minimum"]
        cfg = PipelineConfig.from_dict({"regressor": {"max_in_degree": lowest}})
        assert cfg.refine.score.regressor.max_in_degree == lowest
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        with pytest.raises(ConfigError):  # the schema minimum is the code's
            RegressorConfig(max_in_degree=lowest - 1)

    @pytest.mark.parametrize(
        "kwargs", [{"d": 1}, {"mechanism": "cubic"}, {"noise": "pink"}, {"graph_model": "grid"}]
    )
    def test_generator_validates_on_construction(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorConfig(**kwargs)

    def test_round_trip_through_dict(self):
        cfg = PipelineConfig(
            seed=7,
            out_dir="/tmp/x",
            stages="knn_only",
            threshold=0.4,
            noise_mode="parametric",
            generator=GeneratorConfig(
                mechanism="chebyshev",
                noise="laplace",
                d=6,
                n=123,
                expected_edges=5.5,
                weight_range=(1.0, 2.0),
                noise_scale_range=(0.2, 0.2),
            ),
            refine=RefineConfig(
                n_steps=11,
                collect_k=4,
                temperature=0.5,
                score=ScoreConfig(sparsity_weight=0.25),
            ),
            train=TrainConfig(learning_rate=0.01, epochs=2, seed=9),
        )
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"seeed": 3})

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="bad config value"):
            PipelineConfig.from_dict({"train": {"epochs": "many"}})

    def test_bad_generator_mechanism_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"generator": {"mechanism": "cubic"}})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stages": "everything"},
            {"threshold": 1.5},
            {"noise_mode": "exotic"},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_malformed_json_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_file(str(path))

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be an object"):
            PipelineConfig.from_json_file(str(path))


class TestRunPipelineDefaults:
    def test_smoke_emits_three_stage_metrics(self, default_run):
        _, record = default_run
        assert record.status == "ok"
        assert set(record.metrics) == {"seed_graph", "best_graph", "final"}
        for rep in record.metrics.values():
            assert 0.0 <= rep["auroc"] <= 1.0
        assert record.collected_count == 200
        assert record.training_set_size == 200
        assert record.prediction.shape == (10, 10)

    def test_run_directory_layout(self, default_run):
        config, _ = default_run
        out = config.out_dir
        for name in (
            "config.json",
            "data.csv",
            "truth_graph.csv",
            "seed_graph.csv",
            "trace.jsonl",
            "best_graph.csv",
            "predictor.json",
            "prediction.csv",
            "prediction_binary.csv",
            "metrics.json",
            "timings.json",
            "run_record.json",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        graphs = os.listdir(os.path.join(out, "graphs"))
        assert len(graphs) == 200
        ts = os.listdir(os.path.join(out, "trainset"))
        assert "provenance.json" in ts
        assert sum(n.startswith("instance_") for n in ts) == 200

    @pytest.mark.timing
    def test_refinement_dominates_synthesis_plus_training(self, default_run):
        _, record = default_run
        t = record.timings
        assert t["refine"] > t["generate_training_set"] + t["train"]

    def test_outputs_match_golden_hashes(self, default_run):
        reason = _golden_build_mismatch()
        if reason is not None:
            pytest.skip(reason)
        config, _ = default_run
        for name, expected in GOLDEN_SHA256.items():
            data = Path(config.out_dir, name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == expected, name

    def test_trace_has_one_line_per_step(self, default_run):
        config, _ = default_run
        lines = open(os.path.join(config.out_dir, "trace.jsonl")).read().splitlines()
        assert len(lines) == 2000

    def test_prediction_binary_thresholds_prediction(self, default_run):
        config, record = default_run
        binary = np.loadtxt(
            os.path.join(config.out_dir, "prediction_binary.csv"), delimiter=","
        )
        expect = (record.prediction >= config.threshold).astype(float)
        np.fill_diagonal(expect, 0.0)
        assert np.array_equal(binary, expect)


class TestRunPipelineSmall:
    def test_byte_identical_reruns(self, tmp_path):
        rec_a = run_pipeline(_small_config(str(tmp_path / "a"), seed=3))
        rec_b = run_pipeline(_small_config(str(tmp_path / "b"), seed=3))
        for name in ("prediction.csv", "trace.jsonl", "data.csv", "seed_graph.csv"):
            a = open(os.path.join(rec_a.out_dir, name), "rb").read()
            b = open(os.path.join(rec_b.out_dir, name), "rb").read()
            assert a == b, name

    def test_persisted_config_reproduces_run(self, tmp_path):
        rec_a = run_pipeline(_small_config(str(tmp_path / "a"), seed=4))
        cfg = PipelineConfig.from_json_file(os.path.join(rec_a.out_dir, "config.json"))
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "b"))
        rec_b = run_pipeline(cfg)
        a = open(os.path.join(rec_a.out_dir, "prediction.csv"), "rb").read()
        b = open(os.path.join(rec_b.out_dir, "prediction.csv"), "rb").read()
        assert a == b

    def test_train_seed_does_not_touch_refinement(self, tmp_path):
        base = _small_config(str(tmp_path / "a"), seed=5)
        moved = _small_config(
            str(tmp_path / "b"),
            seed=5,
            train=TrainConfig(learning_rate=3e-3, epochs=3, seed=1234),
        )
        rec_a = run_pipeline(base)
        rec_b = run_pipeline(moved)
        trace_a = open(os.path.join(rec_a.out_dir, "trace.jsonl"), "rb").read()
        trace_b = open(os.path.join(rec_b.out_dir, "trace.jsonl"), "rb").read()
        assert trace_a == trace_b
        data_a = open(os.path.join(rec_a.out_dir, "data.csv"), "rb").read()
        data_b = open(os.path.join(rec_b.out_dir, "data.csv"), "rb").read()
        assert data_a == data_b
        pred_a = open(os.path.join(rec_a.out_dir, "predictor.json")).read()
        pred_b = open(os.path.join(rec_b.out_dir, "predictor.json")).read()
        assert pred_a != pred_b

    def test_master_seed_changes_generated_data(self, tmp_path):
        rec_a = run_pipeline(_small_config(str(tmp_path / "a"), seed=6))
        rec_b = run_pipeline(_small_config(str(tmp_path / "b"), seed=7))
        a = open(os.path.join(rec_a.out_dir, "data.csv"), "rb").read()
        b = open(os.path.join(rec_b.out_dir, "data.csv"), "rb").read()
        assert a != b

    def test_explicit_dataset_without_truth_or_outdir(self):
        data = Dataset(make_rng(8).normal(size=(50, 3)))
        config = PipelineConfig(
            seed=0,
            refine=RefineConfig(n_steps=30, collect_k=5),
            train=TrainConfig(learning_rate=3e-3, epochs=2),
        )
        record = run_pipeline(config, dataset=data)
        assert record.status == "ok"
        assert record.metrics is None
        assert record.out_dir is None
        assert record.prediction.shape == (3, 3)

    def test_single_variable_dataset_rejected_before_any_stage(self, tmp_path):
        data = Dataset(make_rng(8).normal(size=(30, 1)))
        out = tmp_path / "r"
        with pytest.raises(ConfigError, match="at least 2 variables"):
            run_pipeline(PipelineConfig(out_dir=str(out)), dataset=data)
        assert not out.exists()

    def test_random_seed_graph_respects_degree_cap(self):
        # this master seed's ER seed graph draws a node with 7 parents (cap 6)
        config = PipelineConfig(
            seed=15002,
            stages="refine_only",
            generator=GeneratorConfig(noise="uniform"),
            refine=RefineConfig(n_steps=20, collect_k=5),
        )
        assert run_pipeline(config).status == "ok"

    def test_no_data_source_fails_load_stage(self, tmp_path):
        config = PipelineConfig(seed=0, out_dir=str(tmp_path / "r"))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "load_data"
        persisted = json.load(open(tmp_path / "r" / "run_record.json"))
        assert persisted["status"] == "error"
        assert persisted["failed_stage"] == "load_data"

    def test_missing_data_path_fails_load_stage(self, tmp_path):
        config = dataclasses.replace(
            _small_config(str(tmp_path / "r")), generator=None, data_path="/nope.csv"
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "load_data"

    def test_refine_only_routing(self, tmp_path):
        config = _small_config(str(tmp_path / "r"), seed=9, stages="refine_only")
        record = run_pipeline(config)
        best = load_graph(os.path.join(config.out_dir, "best_graph.csv"))
        assert np.array_equal(record.prediction, best.adjacency.astype(float))
        assert not os.path.exists(os.path.join(config.out_dir, "predictor.json"))
        assert not os.path.exists(os.path.join(config.out_dir, "trainset"))
        assert record.training_set_size is None

    def test_knn_only_matches_direct_selection(self, tmp_path):
        config = _small_config(str(tmp_path / "r"), seed=10, stages="knn_only")
        record = run_pipeline(config)
        out = config.out_dir
        data = load_dataset(os.path.join(out, "data.csv"))
        ts = load_training_set(os.path.join(out, "trainset"))
        expect = knn_score_predict(ts, data, config.refine.score)
        assert np.array_equal(record.prediction, expect.adjacency.astype(float))
        knn_graph = load_graph(os.path.join(out, "knn_graph.csv"))
        assert knn_graph == expect
        assert not os.path.exists(os.path.join(out, "predictor.json"))

    def test_prediction_matrix_round_trips_from_disk(self, tmp_path):
        config = _small_config(str(tmp_path / "r"), seed=11)
        record = run_pipeline(config)
        on_disk = load_matrix(os.path.join(config.out_dir, "prediction.csv"))
        assert np.array_equal(on_disk, record.prediction)


class TestRunBenchmark:
    def test_row_counts_and_schema(self, tmp_path):
        out = str(tmp_path / "bench")
        summary = run_benchmark(_small_config(), "iid", 2, out)
        rows = open(os.path.join(out, "results.csv")).read().splitlines()
        assert rows[0] == "instance,seed,setting,method,metric,value"
        assert len(rows) - 1 == 2 * len(BENCHMARK_METHODS) * len(BENCHMARK_METRICS)
        assert len(summary) == len(BENCHMARK_METHODS) * len(BENCHMARK_METRICS)
        assert json.load(open(os.path.join(out, "errors.json"))) == []
        assert os.path.isdir(os.path.join(out, "instances", "000"))
        assert os.path.isdir(os.path.join(out, "instances", "001"))

    def test_single_instance_has_zero_std(self, tmp_path):
        summary = run_benchmark(_small_config(), "iid", 1, str(tmp_path / "b"))
        assert all(row["std"] == 0.0 for row in summary)

    def test_summary_matches_results_table(self, tmp_path):
        out = str(tmp_path / "bench")
        summary = run_benchmark(_small_config(seed=2), "iid", 3, out)
        import csv

        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.DictReader(fh))
        for s in summary:
            vals = [
                float(r["value"])
                for r in rows
                if r["method"] == s["method"] and r["metric"] == s["metric"]
            ]
            assert s["mean"] == pytest.approx(np.mean(vals), abs=1e-12)
            assert s["std"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_parallel_equals_serial(self, tmp_path):
        blas_before = _blas_threads()
        a = str(tmp_path / "serial")
        b = str(tmp_path / "parallel")
        run_benchmark(_small_config(seed=3), "iid", 2, a, threads=1)
        run_benchmark(_small_config(seed=3), "iid", 2, b, threads=2)
        assert _blas_threads() == blas_before

        def files(root):
            # every output but the three that hold paths or wall times
            found = {}
            for dirpath, _, names in os.walk(root):
                for name in names:
                    if name not in ("config.json", "run_record.json", "timings.json"):
                        path = os.path.join(dirpath, name)
                        found[os.path.relpath(path, root)] = open(path, "rb").read()
            return found

        serial, pooled = files(a), files(b)
        for i in ("000", "001"):
            for name in ("prediction.csv", "trace.jsonl", "trainset/instance_000/data.csv"):
                assert os.path.join("instances", i, name) in serial
        assert "results.csv" in serial
        assert serial == pooled

    def test_pool_workers_run_single_threaded_blas(self):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        with pipeline._worker_pool(2) as pool:
            assert {pool.submit(_blas_threads).result() for _ in range(4)} == {1}
        assert _blas_threads() == before

    def test_easy_regime_clears_point_nine(self, tmp_path):
        # Sanity sweep on a deliberately easy suite: every weight at the
        # strong end (magnitude 2), one shared noise scale, and density
        # matched to the standard d=10 suite (expected 2.5 edges at d=5).
        # The per-variable-sum score with a moderate penalty separates the
        # regime cleanly: a true edge raises a node's alignment by at least
        # log(sqrt(5)) ~ 0.80 while a spurious one gains only ~basis/(2n),
        # so 0.5 sits between them with a wide margin on both sides.
        config = PipelineConfig(
            seed=0,
            generator=GeneratorConfig(
                mechanism="linear",
                noise="uniform",
                d=5,
                n=200,
                expected_edges=2.5,
                weight_range=(2.0, 2.0),
                noise_scale_range=(0.2, 0.2),
            ),
            refine=RefineConfig(
                score=ScoreConfig(ad_scale_mode="per_variable_sum", sparsity_weight=0.5)
            ),
            train=TrainConfig(learning_rate=3e-3, epochs=60),
        )
        summary = run_benchmark(config, "iid", 6, str(tmp_path / "easy"))
        final_auroc = next(
            row
            for row in summary
            if row["method"] == "final" and row["metric"] == "auroc"
        )
        assert final_auroc["mean"] > 0.9

    def test_requires_generator(self, tmp_path):
        cfg = dataclasses.replace(_small_config(), generator=None)
        with pytest.raises(ConfigError):
            run_benchmark(cfg, "iid", 1, str(tmp_path / "x"))

    def test_rejects_zero_instances(self, tmp_path):
        with pytest.raises(ConfigError):
            run_benchmark(_small_config(), "iid", 0, str(tmp_path / "x"))

    def test_rejects_unknown_setting(self, tmp_path):
        with pytest.raises(ConfigError):
            run_benchmark(_small_config(), "sideways", 1, str(tmp_path / "x"))


class TestRunAblation:
    def test_paired_arms_share_seeds_and_schema(self, tmp_path):
        out = str(tmp_path / "abl")
        config = _small_config(
            seed=4, refine=RefineConfig(n_steps=50, collect_k=10, score=ScoreConfig(sparsity_weight=0.5))
        )
        rows = run_ablation_sparsity(config, "iid", 2, out)
        assert len(rows) == 4
        header = open(os.path.join(out, "ablation.csv")).read().splitlines()[0]
        assert header == "instance,seed,setting,arm,lambda,ad,total,auroc,collected_mean_edges"
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row["instance"], []).append(row)
        for instance_rows in by_instance.values():
            assert {r["arm"] for r in instance_rows} == {"penalized", "unpenalized"}
            seeds = {r["seed"] for r in instance_rows}
            assert len(seeds) == 1
        for row in rows:
            expect = 0.5 if row["arm"] == "penalized" else 0.0
            assert row["lambda"] == expect

    def test_unpenalized_arm_is_denser_on_average(self, tmp_path):
        config = _small_config(
            seed=5,
            refine=RefineConfig(
                n_steps=80, collect_k=20, score=ScoreConfig(sparsity_weight=0.5)
            ),
        )
        rows = run_ablation_sparsity(config, "iid", 3, str(tmp_path / "abl"))
        dense = np.mean(
            [r["collected_mean_edges"] for r in rows if r["arm"] == "unpenalized"]
        )
        sparse = np.mean(
            [r["collected_mean_edges"] for r in rows if r["arm"] == "penalized"]
        )
        assert dense >= sparse


def _write_config(path, **overrides):
    obj = {
        "seed": 0,
        "generator": {"d": 4, "n": 60, "expected_edges": 4.0},
        "refine": {"n_steps": 50, "collect_k": 10},
        "train": {"learning_rate": 3e-3, "epochs": 3},
    }
    obj.update(overrides)
    path.write_text(json.dumps(obj))
    return str(path)


class TestCli:
    def test_full_command_chain(self, tmp_path, capsys):
        # generate one bundle
        bundle_root = tmp_path / "bundles"
        rc = cli_main(
            [
                "generate",
                "--mechanism",
                "linear",
                "--noise",
                "uniform",
                "--d",
                "4",
                "--n",
                "80",
                "--count",
                "1",
                "--expected-edges",
                "4.0",
                "--seed",
                "3",
                "--out",
                str(bundle_root),
            ]
        )
        assert rc == 0
        bundle = bundle_root / "instance_000"
        assert (bundle / "data.csv").exists()
        assert (bundle / "graph.csv").exists()
        assert (bundle / "meta.json").exists()

        # refine on the bundle's data
        cfg_path = _write_config(tmp_path / "cfg.json")
        run_dir = tmp_path / "run"
        rc = cli_main(
            [
                "refine",
                "--config",
                cfg_path,
                "--data",
                str(bundle / "data.csv"),
                "--truth",
                str(bundle / "graph.csv"),
                "--out",
                str(run_dir),
            ]
        )
        assert rc == 0
        assert (run_dir / "best_graph.csv").exists()
        graphs_dir = run_dir / "graphs"
        assert len(list(graphs_dir.glob("*.csv"))) == 10

        # synthesize a training set from the collected graphs
        ts_dir = tmp_path / "ts"
        rc = cli_main(
            [
                "make-trainset",
                "--data",
                str(bundle / "data.csv"),
                "--graphs",
                str(graphs_dir),
                "--seed",
                "1",
                "--out",
                str(ts_dir),
            ]
        )
        assert rc == 0
        assert (ts_dir / "provenance.json").exists()

        # train a predictor on it
        predictor_path = tmp_path / "predictor.json"
        rc = cli_main(
            [
                "train",
                "--trainset",
                str(ts_dir),
                "--epochs",
                "3",
                "--seed",
                "0",
                "--out",
                str(predictor_path),
            ]
        )
        assert rc == 0

        # predict edge probabilities
        pred_path = tmp_path / "pred.csv"
        rc = cli_main(
            [
                "predict",
                "--predictor",
                str(predictor_path),
                "--data",
                str(bundle / "data.csv"),
                "--out",
                str(pred_path),
            ]
        )
        assert rc == 0
        assert load_matrix(str(pred_path)).shape == (4, 4)

        # evaluate against the bundled truth
        capsys.readouterr()  # drain output from the earlier commands
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main(
            [
                "eval",
                "--prediction",
                str(pred_path),
                "--truth",
                str(bundle / "graph.csv"),
                "--out",
                str(metrics_path),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed)
        assert set(payload) >= {"auroc", "auprc", "f1", "acc"}
        assert json.load(open(metrics_path)) == payload

    def test_pipeline_command_runs_full_stages(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        rc = cli_main(
            ["pipeline", "--config", cfg_path, "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "prediction.csv").exists()
        assert "final vs truth" in capsys.readouterr().out

    def test_benchmark_command(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "bench"
        rc = cli_main(
            [
                "benchmark",
                "--config",
                cfg_path,
                "--setting",
                "iid",
                "--instances",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "summary.csv").exists()
        assert "final auroc" in capsys.readouterr().out

    def test_ablate_command(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "abl"
        rc = cli_main(
            [
                "ablate",
                "--config",
                cfg_path,
                "--setting",
                "iid",
                "--instances",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "ablation.csv").exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeed": 1}))
        rc = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_single_variable_data_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_dataset(Dataset(make_rng(0).normal(size=(30, 1))), str(data))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"path": str(data)}}))
        rc = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "at least 2 variables" in capsys.readouterr().err

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json")
        rc = cli_main(
            [
                "refine",
                "--config",
                cfg_path,
                "--data",
                str(tmp_path / "absent.csv"),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert rc == 2

    def test_cyclic_truth_exits_two(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("0.0,0.5\n0.5,0.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("0,1\n1,0\n")
        rc = cli_main(
            ["eval", "--prediction", str(pred), "--truth", str(truth)]
        )
        assert rc == 2

    def test_empty_graphs_directory_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x0,x1\n1.0,2.0\n2.0,1.0\n0.5,0.25\n")
        empty = tmp_path / "graphs"
        empty.mkdir()
        rc = cli_main(
            [
                "make-trainset",
                "--data",
                str(data),
                "--graphs",
                str(empty),
                "--out",
                str(tmp_path / "ts"),
            ]
        )
        assert rc == 2

    def test_stage_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        cfg_path = _write_config(tmp_path / "cfg.json")

        def explode(*args, **kwargs):
            raise StageError("refine", RuntimeError("boom"))

        monkeypatch.setattr("causalign.cli.run_pipeline", explode)
        rc = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "stage 'refine' failed" in capsys.readouterr().err

    def test_console_script_is_installed(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("0.0,0.9\n0.1,0.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("0,1\n0,0\n")
        proc = subprocess.run(
            [
                "causalign",
                "eval",
                "--prediction",
                str(pred),
                "--truth",
                str(truth),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["auroc"] == 1.0
