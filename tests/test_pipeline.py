"""End-to-end pipeline, benchmark/ablation drivers, and CLI contract."""

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalign import model, pipeline, scoring
from causalign.cli import main as cli_main
from causalign.errors import ConfigError, DataFormatError, DegreeCapError, StageError
from causalign.graph import Dag, random_er
from causalign.io import (
    TrainingSetWriter,
    load_dataset,
    load_graph,
    load_matrix,
    load_training_set,
    save_dataset,
    save_graph,
)
from causalign.pipeline import (
    BENCHMARK_METHODS,
    BENCHMARK_METRICS,
    GeneratorConfig,
    PipelineConfig,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
)
from causalign.refine import RefineConfig, SeedMode, refine
from causalign.scm import Dataset, SpecTriple, generate_instance
from causalign.scoring import ScoreConfig, ScoreEngine
from causalign.model import TrainConfig, generate_training_set
from causalign.sim import Basis, RegressorConfig

from conftest import dag_from_edges, make_rng


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


def _pin_synthesis_workers(monkeypatch, count):
    """Draw training sets with `count` processes whatever the machine has:
    1 keeps every draw in this process, where tests can count calls."""
    monkeypatch.setattr(model, "_synthesis_workers", lambda: count)


def _blas_threads():
    """This process's OpenBLAS thread count, or None without OpenBLAS."""
    lib = pipeline._openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _count_fits_inside(mp, callee):
    """Count the score engine's fit_node calls, split by whether they
    happen inside pipeline.<callee>; returns the live counts {"inside",
    "rest"}."""
    fits = {"inside": 0, "rest": 0}
    phase = ["rest"]

    def count_fits(fn):
        def counted(*args, **kwargs):
            fits[phase[0]] += 1
            return fn(*args, **kwargs)

        return counted

    def marked(fn):
        def inside(*args, **kwargs):
            phase[0] = "inside"
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "rest"

        return inside

    mp.setattr(scoring, "fit_node", count_fits(scoring.fit_node))
    mp.setattr(pipeline, callee, marked(getattr(pipeline, callee)))
    return fits


@pytest.fixture(scope="module")
def counted_default_run(tmp_path_factory):
    """One full run at library defaults (d=10, n=200, 2000 steps), with the
    score engine's fit_node calls made inside and outside training-set
    synthesis counted, and the search's engine and trace kept."""
    out = str(tmp_path_factory.mktemp("default_run"))
    config = PipelineConfig(
        seed=1, out_dir=out, generator=GeneratorConfig(noise="uniform")
    )
    search = {}
    real_refine = pipeline.refine

    def kept_search(engine, *args, **kwargs):
        search["engine"] = engine
        search["trace"] = real_refine(engine, *args, **kwargs)
        return search["trace"]

    with pytest.MonkeyPatch.context() as mp:
        fits = _count_fits_inside(mp, "generate_training_set")
        mp.setattr(pipeline, "refine", kept_search)
        record = run_pipeline(config)
    return config, record, fits, search


@pytest.fixture(scope="module")
def default_run(counted_default_run):
    """The default run's config and record, shared by the smoke, golden
    and timing tests."""
    config, record, _, _ = counted_default_run
    return config, record


# SHA-256 of default_run's outputs, recorded with numpy 2.4.6 on its
# bundled scipy-openblas 0.3.31; another numpy or BLAS build may round
# differently, so the pin applies only to that build
GOLDEN_BUILD = ("2.4.6", "scipy-openblas", "0.3.31")
GOLDEN_SHA256 = {
    "prediction.csv": "5c9aa82b7e2be1f215dbc8e3f4583e996ec5068657258e5ed9fbf28368c025f3",
    "trace.jsonl": "f3d0cfba441acf8f1fdd2dbcc5e07f9db9f1b6b90ea5a71ec5b32f5fbac154d6",
    "predictor.json": "15ef9b66a9fae1d5e6e27cfb9d1199b8fb8365ed1c1c8fb2862fe06e70a29296",
}


# SHA-256 of the small greedy-seeded knn_only run's outputs, recorded with
# the same build as GOLDEN_SHA256; the seed graph comes from the greedy
# ascent, whose ties go to the first move in canonical order
GREEDY_GOLDEN_SHA256 = {
    "seed_graph.csv": "5bc00084116a70a66013ca51d20d0f3f253987e6da0758e2153930711ff53f92",
    "trace.jsonl": "1347c9d6da9793ce5db171956f59d6fe155834eeafe7f32aed0b470fe0937508",
    "knn_graph.csv": "0e2cad8c306e2451a6bfbbe739de9929830b0083342df7cc0b5456fe488b70de",
}


# SHA-256 of the make-trainset outputs for the fixed small input of
# TestCli.test_make_trainset_outputs_match_golden_hashes, per basis,
# recorded with the same build as GOLDEN_SHA256
TRAINSET_DATASETS_SHA256 = {
    "linear": "226aafe450943b934bfa94657161027d15af8f1dba518ace721bbb3bd9a53817",
    "fourier": "eabefd188050fe20f15db99a2922af6ad3f3e6b2d8ae53d7ae38ed3e40c6b369",
    "spline": "a951f60f6e272e5980fb8132cbe07047caf98e87a45c07532c2d770e67e5d34a",
}
TRAINSET_GRAPHS_SHA256 = "57b254406f822ae33f1d1be6c3547806ade4088587d964ea86204f117660aaeb"


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
    max_in_degree=st.none() | st.integers(0, 12),
)
_scores = st.builds(
    ScoreConfig,
    sparsity_weight=st.none() | _floats,
    regressor=_regressors,
)
_refines = st.builds(
    RefineConfig,
    n_steps=st.integers(0, 10_000),
    collect_k=st.integers(1, 1_000),
    temperature=st.none() | st.floats(min_value=1e-9, max_value=1e6),
    seed_mode=st.sampled_from(SeedMode),
    seed_graph_path=st.text(min_size=1, max_size=12),
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

    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = {
            line.split("|")[1].strip().strip("`")
            for line in section.splitlines()
            if line.startswith("| `")
        }

        def leaves(obj, prefix=""):
            for key, value in obj.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        layout = PipelineConfig(generator=GeneratorConfig(), data_path="x").to_dict()
        assert documented == set(leaves(layout))

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
            # json reads the NaN and Infinity literals as floats
            ({"refine": {"temperature": float("nan")}}, "config.refine.temperature"),
            ({"score": {"sparsity_weight": float("nan")}}, "config.score.sparsity_weight"),
            ({"train": {"learning_rate": float("inf")}}, "config.train.learning_rate"),
            ({"generator": {"expected_edges": float("inf")}}, "config.generator.expected_edges"),
            ({"generator": {"weight_range": [1.0, float("-inf")]}}, "config.generator.weight_range"),
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
        cfg = PipelineConfig.from_dict({"train": {"epochs": 2.0}})
        assert cfg.train.epochs == 2 and type(cfg.train.epochs) is int

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
            {"threshold": -0.1},
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
        ts = os.path.join(out, "trainset")
        assert sorted(os.listdir(ts)) == ["datasets.npy", "graphs.npy", "provenance.json"]
        assert np.load(os.path.join(ts, "datasets.npy")).shape == (200, 200, 10)
        trained_on = np.load(os.path.join(ts, "graphs.npy"))
        with open(os.path.join(ts, "provenance.json")) as fh:
            sources = json.load(fh)["source_indices"]
        assert len(sources) == len(trained_on) == 200
        for k, src in enumerate(sources):
            collected = load_graph(os.path.join(out, "graphs", f"collected_{src:03d}.csv"))
            assert np.array_equal(trained_on[k], collected.adjacency), k

    @pytest.mark.timing
    def test_refinement_dominates_synthesis(self, counted_default_run, monkeypatch):
        # the search against one serial synthesis of its collected graphs
        # from its engine: the run's generate_training_set stage also
        # featurizes and writes trainset/, and may use every core
        _, record, _, search = counted_default_run
        _pin_synthesis_workers(monkeypatch, 1)
        t0 = time.perf_counter()
        generate_training_set(search["trace"].collected, search["engine"], make_rng(0))
        assert record.timings["refine"] > time.perf_counter() - t0

    def test_synthesis_reuses_the_search_fits(self, counted_default_run):
        # every collected (node, parents) was scored during the search, so
        # synthesis takes all its fits from the engine and fits none itself
        _, _, fits, _ = counted_default_run
        assert fits["inside"] == 0
        assert fits["rest"] > 0

    def test_outputs_match_golden_hashes(self, default_run):
        reason = _golden_build_mismatch()
        if reason is not None:
            pytest.skip(reason)
        config, _ = default_run
        for name, expected in GOLDEN_SHA256.items():
            data = Path(config.out_dir, name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == expected, name

    def test_greedy_knn_outputs_match_golden_hashes(self, tmp_path):
        reason = _golden_build_mismatch()
        if reason is not None:
            pytest.skip(reason)
        config = PipelineConfig(
            seed=0,
            out_dir=str(tmp_path),
            stages="knn_only",
            generator=GeneratorConfig(d=8, n=200),
            refine=RefineConfig(n_steps=100, collect_k=20, seed_mode="greedy_hill_climb"),
        )
        run_pipeline(config)
        for name, expected in GREEDY_GOLDEN_SHA256.items():
            data = Path(tmp_path, name).read_bytes()
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

    def test_zero_steps_refine_only_has_null_collected_stats(self, tmp_path):
        out = tmp_path / "r"
        config = _small_config(str(out), stages="refine_only", refine=RefineConfig(n_steps=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_pipeline(config)
        assert (record.status, record.collected_count) == ("ok", 0)
        assert record.collected_stats is None
        assert json.loads((out / "run_record.json").read_text())["collected_stats"] is None

    def test_refine_stats_summarize_the_trace(self, tmp_path):
        out = tmp_path / "r"
        record = run_pipeline(_small_config(str(out), seed=12, stages="knn_only", refine=RefineConfig(n_steps=60, collect_k=40)))
        steps = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        tail = {p.read_bytes() for p in (out / "graphs").glob("collected_*.csv")}
        expect = {"acceptance_rate": sum(s["accepted"] for s in steps) / len(steps), "distinct_collected": len(tail)}
        assert 1 < expect["distinct_collected"] < 40  # the tail holds repeats
        assert record.refine_stats == expect
        assert json.loads((out / "run_record.json").read_text())["refine_stats"] == expect
        # no step, no rate
        empty = tmp_path / "empty"
        run_pipeline(_small_config(str(empty), stages="refine_only", refine=RefineConfig(n_steps=0)))
        assert json.loads((empty / "run_record.json").read_text())["refine_stats"] is None

    @pytest.mark.parametrize("stages, stage", [("knn_only", "knn_select"), ("full", "generate_training_set")])
    def test_zero_steps_rejected_before_any_stage(self, tmp_path, stages, stage):
        out = tmp_path / "r"
        config = _small_config(str(out), stages=stages, refine=RefineConfig(n_steps=0))
        with pytest.raises(ConfigError, match=f"n_steps=0 .*{stage}"):
            run_pipeline(config)
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
        out = Path(config.out_dir)
        fresh = ScoreEngine(load_dataset(str(out / "data.csv")), config.refine.score)
        graphs = [load_graph(str(p)) for p in sorted((out / "graphs").glob("collected_*.csv"))]
        assert len(graphs) == record.collected_count
        totals = [fresh.score(g).total for g in graphs]
        expect = graphs[totals.index(max(totals))]  # the lowest index among ties
        assert load_graph(str(out / "knn_graph.csv")) == expect
        assert np.array_equal(record.prediction, expect.adjacency.astype(float))
        assert np.array_equal(load_matrix(str(out / "prediction.csv")), expect.adjacency.astype(float))
        assert not (out / "predictor.json").exists()

    def test_knn_only_synthesizes_no_training_set(self, tmp_path, monkeypatch):
        _pin_synthesis_workers(monkeypatch, 1)
        calls = {"generate_training_set": 0, "sample_from_fitted": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(pipeline, "generate_training_set")
        counted(model, "sample_from_fitted")
        config = _small_config(str(tmp_path / "r"), seed=10, stages="knn_only")
        record = run_pipeline(config)
        assert calls == {"generate_training_set": 0, "sample_from_fitted": 0}
        assert record.training_set_size is None
        assert json.loads((tmp_path / "r" / "run_record.json").read_text())["training_set_size"] is None
        assert not (tmp_path / "r" / "trainset").exists()
        assert "generate_training_set" not in record.timings
        # the counters see a full run's synthesis
        run_pipeline(dataclasses.replace(config, stages="full", out_dir=None))
        assert calls == {"generate_training_set": 1, "sample_from_fitted": config.refine.collect_k}

    def test_full_run_holds_one_sampled_dataset_at_a_time(self, tmp_path, monkeypatch):
        # each dataset is written and featurized as it is drawn, then
        # dropped: when the next one is drawn, every earlier one is dead
        _pin_synthesis_workers(monkeypatch, 1)
        real = model.sample_from_fitted
        drawn = []
        alive_at_draw = []

        def tracked(*args, **kwargs):
            dataset = real(*args, **kwargs)
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            drawn.append(weakref.ref(dataset.values))
            return dataset

        monkeypatch.setattr(model, "sample_from_fitted", tracked)
        config = _small_config(str(tmp_path / "r"), seed=10)
        record = run_pipeline(config)
        assert record.training_set_size == config.refine.collect_k
        assert alive_at_draw == [0] * config.refine.collect_k

    @pytest.mark.parametrize("stages", ["full", "knn_only", "refine_only"])
    def test_edgeless_truth_finishes_with_undefined_ranking_metrics(self, tmp_path, stages):
        data = Dataset(make_rng(4).normal(size=(60, 4)))
        truth = Dag(np.zeros((4, 4), dtype=np.int8))
        out = tmp_path / "r"
        record = run_pipeline(_small_config(str(out), stages=stages, generator=None), data, truth)
        assert record.status == "ok"
        persisted = json.loads((out / "run_record.json").read_text())
        assert (persisted["status"], persisted["failed_stage"]) == ("ok", None)
        assert "evaluate" in json.loads((out / "timings.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        for method in BENCHMARK_METHODS:
            assert metrics[method]["auroc"] is None and metrics[method]["auprc"] is None
            assert 0.0 <= metrics[method]["f1"] <= 1.0 and 0.0 <= metrics[method]["acc"] <= 1.0
            assert (metrics[method]["n_positive"], metrics[method]["n_negative"]) == (0, 12)

    def test_generator_names_are_case_insensitive(self, tmp_path):
        shape = dict(d=4, n=60, expected_edges=4.0)
        lower = GeneratorConfig(mechanism="linear", noise="uniform", graph_model="er", **shape)
        mixed = GeneratorConfig(mechanism="Linear", noise="Uniform", graph_model="ER", **shape)
        for name, gen in (("lower", lower), ("mixed", mixed)):
            assert run_pipeline(_small_config(str(tmp_path / name), generator=gen)).status == "ok"
        for name in ("prediction.csv", "trace.jsonl"):
            assert (tmp_path / "lower" / name).read_bytes() == (tmp_path / "mixed" / name).read_bytes(), name

    def test_stages_run_single_threaded_blas_and_restore_the_callers_count(self, tmp_path, monkeypatch):
        lib = pipeline._openblas()
        if lib is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        during = []

        def refine_noting_threads(*args, **kwargs):
            during.append(_blas_threads())
            return refine(*args, **kwargs)

        monkeypatch.setattr(pipeline, "refine", refine_noting_threads)
        before = _blas_threads()
        lib.scipy_openblas_set_num_threads64_(2)
        callers = _blas_threads()  # 2, or fewer on a one-core machine
        try:
            run_pipeline(_small_config(str(tmp_path / "ok"), stages="refine_only"))
            assert _blas_threads() == callers
            missing = RefineConfig(seed_mode="from_file", seed_graph_path=str(tmp_path / "none.csv"))
            with pytest.raises(StageError):
                run_pipeline(_small_config(str(tmp_path / "err"), refine=missing))
            assert _blas_threads() == callers
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        assert during == [1]

    def test_prediction_matrix_round_trips_from_disk(self, tmp_path):
        config = _small_config(str(tmp_path / "r"), seed=11)
        record = run_pipeline(config)
        on_disk = load_matrix(os.path.join(config.out_dir, "prediction.csv"))
        assert np.array_equal(on_disk, record.prediction)


# the stages each mode runs, in order, and the pipeline-module callee that
# does each stage's work
MODE_STAGES = {
    "full": ("load_data", "init_seed", "refine", "generate_training_set", "train", "predict", "evaluate"),
    "knn_only": ("load_data", "init_seed", "refine", "knn_select", "evaluate"),
    "refine_only": ("load_data", "init_seed", "refine", "evaluate"),
}
STAGE_CALLEES = {
    "load_data": "load_dataset",
    "init_seed": "init_seed",
    "refine": "refine",
    "generate_training_set": "generate_training_set",
    "knn_select": "knn_score_predict",
    "train": "train",
    "predict": "predict",
    "evaluate": "evaluate",
}


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """A small instance's data.csv and truth_graph.csv, so a run reads its
    data through pipeline.load_dataset and has a truth to evaluate."""
    out = tmp_path_factory.mktemp("instance")
    run_pipeline(_small_config(str(out), stages="refine_only"))
    return out / "data.csv", out / "truth_graph.csv"


class TestStageFailures:
    @pytest.mark.parametrize(
        "mode,failing", [(mode, stage) for mode, stages in MODE_STAGES.items() for stage in stages]
    )
    def test_failure_is_attributed_to_its_stage(self, instance_files, tmp_path, monkeypatch, mode, failing):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, STAGE_CALLEES[failing], explode)
        data, truth = instance_files
        out = tmp_path / "r"
        config = dataclasses.replace(
            _small_config(str(out), stages=mode), generator=None, data_path=str(data), truth_path=str(truth)
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == failing
        assert isinstance(err.value.cause, RuntimeError)
        persisted = json.loads((out / "run_record.json").read_text())
        assert (persisted["status"], persisted["failed_stage"]) == ("error", failing)
        finished = MODE_STAGES[mode][: MODE_STAGES[mode].index(failing)]
        assert sorted(json.loads((out / "timings.json").read_text())) == sorted(finished)

    def test_stages_record_their_own_time_in_order(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: clock[0])
        run = pipeline._Run(_small_config())
        clock[0] += 1.0  # between stages: counted by neither
        with run.stage("second"):
            clock[0] += 2.0
        with run.stage("first"):
            clock[0] += 4.0
        assert list(run.record.timings.items()) == [("second", 2.0), ("first", 4.0)]

    def test_non_finite_training_features_fail_in_train(self, tmp_path, monkeypatch):
        real = model.featurize_all

        def poisoned(dataset):
            pairs, feats = real(dataset)
            feats[0, 0] = np.nan
            return pairs, feats

        monkeypatch.setattr(model, "featurize_all", poisoned)
        out = tmp_path / "r"
        with pytest.raises(StageError) as err:
            run_pipeline(_small_config(str(out)))
        assert err.value.stage == "train"
        assert "non-finite pair features" in str(err.value.cause)
        persisted = json.loads((out / "run_record.json").read_text())
        assert (persisted["status"], persisted["failed_stage"]) == ("error", "train")
        finished = ["generate_training_set", "init_seed", "load_data", "refine"]
        assert list(json.loads((out / "timings.json").read_text())) == finished

    def test_sampling_error_fails_in_generate_training_set(self, tmp_path, monkeypatch):
        _fail_sampling_call(monkeypatch, 2)
        out = tmp_path / "r"
        with pytest.raises(StageError) as err:
            run_pipeline(_small_config(str(out)))
        assert err.value.stage == "generate_training_set"
        persisted = json.loads((out / "run_record.json").read_text())
        assert persisted["failed_stage"] == "generate_training_set"
        assert list(json.loads((out / "timings.json").read_text())) == ["init_seed", "load_data", "refine"]

    def test_sampling_error_leaves_no_training_set(self, tmp_path, monkeypatch):
        _fail_sampling_call(monkeypatch, 3)
        out = tmp_path / "r"
        with pytest.raises(StageError, match="generate_training_set"):
            run_pipeline(_small_config(str(out)))
        assert not (out / "trainset" / "datasets.npy").exists()
        assert not (out / "trainset" / "graphs.npy").exists()
        with pytest.raises(DataFormatError, match="datasets.npy"):
            load_training_set(str(out / "trainset"))


def _fail_sampling_call(monkeypatch, which):
    """Make model.sample_from_fitted raise on its `which`-th call only,
    with every draw made in this process."""
    _pin_synthesis_workers(monkeypatch, 1)
    real = model.sample_from_fitted
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == which:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "sample_from_fitted", failing)


def _break_forked_sampling(monkeypatch, how):
    """Make model.sample_from_fitted fail in forked workers only: raise
    ("raises") or end the worker at once ("dies")."""
    parent = os.getpid()
    real = model.sample_from_fitted

    def sample(*args, **kwargs):
        if os.getpid() != parent:
            if how == "dies":
                os._exit(1)
            raise RuntimeError("boom in a worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "sample_from_fitted", sample)


def _live_datasets():
    return sum(type(obj) is Dataset for obj in gc.get_objects())


def _count_forks(monkeypatch):
    """The pids of the processes this process forks from now on."""
    forked = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


class TestOrderedMap:
    @pytest.mark.parametrize("caller_works, forks", [(False, 3), (True, 2)])
    def test_forks_no_more_workers_than_tasks(self, monkeypatch, caller_works, forks):
        forked = _count_forks(monkeypatch)
        delivered = []

        def square_but_one(k):
            if k == 1:
                raise ValueError("no square for 1")
            return k * k

        model.ordered_map(square_but_one, 3, 8, lambda k, res: delivered.append((k, res)), caller_works)
        assert len(forked) == forks
        assert [k for k, _ in delivered] == [0, 1, 2]
        assert (delivered[0][1], delivered[2][1]) == (0, 4)
        assert isinstance(delivered[1][1], ValueError) and str(delivered[1][1]) == "no square for 1"
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_costs_only_its_own_task(self):
        # this process and two workers, four tasks in flight: task 2 kills
        # its worker while task 0's result is delivered, so once task 1 is
        # delivered the next submit meets a broken pool; task 2 is rerun
        # alone and dies again, the rest finish
        delivered = []

        def square_but_die_on_two(k):
            if k == 2:
                time.sleep(0.2)
                os._exit(1)
            return k * k

        def deliver(k, res):
            if k == 0:
                time.sleep(1.0)  # ample time for the pool to see the death
            delivered.append((k, res))

        model.ordered_map(square_but_die_on_two, 12, 3, deliver, caller_works=True)
        assert [(k, res) for k, res in delivered if k != 2] == [(k, k * k) for k in range(12) if k != 2]
        assert isinstance(delivered[2][1], BrokenProcessPool)
        assert multiprocessing.active_children() == []

    def test_an_idle_caller_submits_every_task_at_once(self, tmp_path):
        # task 0 waits for tasks 1-5 to finish: with two workers that
        # happens only if the other worker was given all five up front
        def fn(k):
            if k > 0:
                (tmp_path / str(k)).touch()
                return True
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if all((tmp_path / str(j)).exists() for j in range(1, 6)):
                    return True
                time.sleep(0.01)
            return False

        delivered = []
        model.ordered_map(fn, 6, 2, lambda k, res: delivered.append(res))
        assert delivered == [True] * 6
        assert multiprocessing.active_children() == []


class TestPooledSynthesis:
    """A full run draws and featurizes its training set in forked workers
    as well as in this process; these tests force two processes."""

    def test_parallel_synthesis_equals_serial(self, tmp_path, monkeypatch):
        names = ("prediction.csv", "trace.jsonl", "predictor.json", "trainset/datasets.npy", "trainset/graphs.npy")
        written = {}
        for count in (1, 2):
            _pin_synthesis_workers(monkeypatch, count)
            out = tmp_path / f"workers{count}"
            config = _small_config(str(out), seed=12, refine=RefineConfig(n_steps=60, collect_k=15))
            assert run_pipeline(config).training_set_size == 15
            written[count] = {name: (out / name).read_bytes() for name in names}
        assert written[1] == written[2]

    def test_the_sink_takes_datasets_only_to_write_them(self, tmp_path, monkeypatch):
        # a full run's TrainingFeatures gets each dataset only when it has
        # a writer to pass it to; the features, and so the prediction, are
        # the same either way
        _pin_synthesis_workers(monkeypatch, 2)
        handed = []
        real_add = model.TrainingFeatures.add

        def add(features, dataset, graph):
            handed.append(dataset)
            real_add(features, dataset, graph)

        monkeypatch.setattr(model.TrainingFeatures, "add", add)
        records = {}
        for name, out_dir in (("memory", None), ("directory", str(tmp_path / "r"))):
            handed.clear()
            config = _small_config(out_dir, seed=13, refine=RefineConfig(n_steps=60, collect_k=15))
            records[name] = run_pipeline(config)
            assert len(handed) == (0 if out_dir is None else 15), name
        assert records["memory"].prediction.tobytes() == records["directory"].prediction.tobytes()
        assert records["memory"].training_set_size == records["directory"].training_set_size == 15
        assert "trainset" not in records["memory"].paths

    def test_parallel_run_holds_at_most_the_in_flight_window(self, tmp_path, monkeypatch):
        # with one forked worker, this process holds the run's dataset, the
        # dataset it is writing and at most the window of results waiting
        _pin_synthesis_workers(monkeypatch, 2)
        window = model._IN_FLIGHT_PER_WORKER
        held, workers_seen = [], []
        baseline = _live_datasets()
        real_add = TrainingSetWriter.add

        def add(writer, dataset, graph):
            held.append(_live_datasets() - baseline)
            workers_seen.append(len(multiprocessing.active_children()))
            real_add(writer, dataset, graph)

        monkeypatch.setattr(TrainingSetWriter, "add", add)
        config = _small_config(str(tmp_path / "r"), seed=10, refine=RefineConfig(n_steps=60, collect_k=20))
        assert run_pipeline(config).training_set_size == 20
        assert len(held) == 20
        assert max(held) <= 2 + window < 20
        assert max(workers_seen) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("how", ["raises", "dies"])
    def test_worker_failure_fails_generate_training_set(self, tmp_path, monkeypatch, how):
        _pin_synthesis_workers(monkeypatch, 2)
        _break_forked_sampling(monkeypatch, how)
        out = tmp_path / "r"
        with pytest.raises(StageError) as err:
            run_pipeline(_small_config(str(out)))
        assert err.value.stage == "generate_training_set"
        cause = err.value.cause
        if how == "dies":
            assert isinstance(cause, BrokenProcessPool)
        else:
            assert isinstance(cause, RuntimeError) and "boom in a worker" in str(cause)
        persisted = json.loads((out / "run_record.json").read_text())
        assert (persisted["status"], persisted["failed_stage"]) == ("error", "generate_training_set")
        assert persisted["paths"]["trainset"] == str(out / "trainset")  # the writer had started
        assert not (out / "trainset" / "datasets.npy").exists()
        assert not (out / "trainset" / "graphs.npy").exists()
        assert multiprocessing.active_children() == []

    def test_every_graph_skipped_names_no_trainset(self, tmp_path, monkeypatch):
        # the writer never starts, so the record names no trainset/ directory
        real = pipeline.generate_training_set

        def every_graph_over_the_cap(graphs, engine, rng, sink):
            def node_fit(node, parents):
                raise DegreeCapError(f"node {node} over the cap")

            engine.node_fit = node_fit
            return real(graphs, engine, rng, sink)

        monkeypatch.setattr(pipeline, "generate_training_set", every_graph_over_the_cap)
        out = tmp_path / "r"
        with pytest.warns(RuntimeWarning, match="skipping graph"), pytest.raises(StageError) as err:
            run_pipeline(_small_config(str(out)))
        assert isinstance(err.value.cause, DegreeCapError)
        persisted = json.loads((out / "run_record.json").read_text())
        assert persisted["failed_stage"] == "generate_training_set"
        assert "trainset" not in persisted["paths"]
        assert not (out / "trainset").exists()

    @pytest.mark.parametrize("how", ["raises", "dies"])
    def test_worker_failure_exits_three_from_cli(self, tmp_path, capsys, monkeypatch, how):
        _pin_synthesis_workers(monkeypatch, 2)
        _break_forked_sampling(monkeypatch, how)
        cfg_path = _write_config(tmp_path / "cfg.json")
        rc = cli_main(["pipeline", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "stage 'generate_training_set' failed" in capsys.readouterr().err
        assert not (tmp_path / "r" / "trainset" / "datasets.npy").exists()
        assert multiprocessing.active_children() == []

    def test_non_finite_features_from_a_worker_fail_in_train(self, tmp_path, monkeypatch):
        _pin_synthesis_workers(monkeypatch, 2)
        parent = os.getpid()
        real = model.featurize_all

        def poisoned_in_workers(dataset):
            pairs, feats = real(dataset)
            if os.getpid() != parent:
                feats[0, 0] = np.inf
            return pairs, feats

        monkeypatch.setattr(model, "featurize_all", poisoned_in_workers)
        out = tmp_path / "r"
        with pytest.raises(StageError) as err:
            run_pipeline(_small_config(str(out)))
        assert err.value.stage == "train"
        assert "non-finite pair features" in str(err.value.cause)
        persisted = json.loads((out / "run_record.json").read_text())
        assert (persisted["status"], persisted["failed_stage"]) == ("error", "train")
        assert multiprocessing.active_children() == []


def _fail_second_refine(monkeypatch):
    """Make pipeline.refine raise on its second call only, so with
    threads=1 exactly the suite's second run fails in its refine stage."""
    real = pipeline.refine
    calls = []

    def refine_failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "refine", refine_failing_once)


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

    def test_edgeless_instance_is_kept_with_empty_ranking_metrics(self, tmp_path):
        # at this seed, one of the four d=3 truths has no edge
        gen = GeneratorConfig(d=3, n=60, expected_edges=1.0)
        out = tmp_path / "b"
        summary = run_benchmark(_small_config(generator=gen, stages="refine_only"), "iid", 4, str(out))
        edgeless = [
            i for i in range(4) if not load_graph(str(out / "instances" / f"{i:03d}" / "truth_graph.csv")).edge_count
        ]
        assert len(edgeless) == 1
        assert json.loads((out / "errors.json").read_text()) == []
        import csv

        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * len(BENCHMARK_METHODS) * len(BENCHMARK_METRICS)
        with open(out / "summary.csv") as fh:
            on_disk = list(csv.DictReader(fh))
        assert list(on_disk[0]) == ["setting", "method", "metric", "n", "mean", "std"]
        for row in summary:
            cells = {
                int(r["instance"]): r["value"]
                for r in rows
                if (r["method"], r["metric"]) == (row["method"], row["metric"])
            }
            defined = [float(v) for v in cells.values() if v != ""]
            if row["metric"] in ("auroc", "auprc"):
                assert cells[edgeless[0]] == ""
                assert len(defined) == 3
            else:
                assert len(defined) == 4
            assert row["n"] == len(defined)
            assert row["mean"] == pytest.approx(np.mean(defined), abs=1e-12)
            assert row["std"] == pytest.approx(np.std(defined, ddof=1), abs=1e-12)

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
            for name in ("prediction.csv", "trace.jsonl", "trainset/datasets.npy", "trainset/graphs.npy"):
                assert os.path.join("instances", i, name) in serial
        assert "results.csv" in serial
        assert serial == pooled

    def test_easy_regime_clears_point_nine(self, tmp_path):
        # Sanity sweep on a deliberately easy suite: every weight at the
        # strong end (magnitude 2), one shared noise scale, and density
        # matched to the standard d=10 suite (expected 2.5 edges at d=5).
        # A moderate penalty separates the regime cleanly: a true edge
        # raises its node's alignment by at least log(sqrt(5)) ~ 0.80, so
        # the d-averaged score by 0.16, while a spurious one gains only
        # ~basis/(2n) per node, ~basis/(2nd) averaged; lambda = 0.1 (0.5/d)
        # sits between them with a wide margin on both sides.
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
                score=ScoreConfig(sparsity_weight=0.1)
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

    def test_failed_run_is_listed_and_left_out_of_the_tables(self, tmp_path, monkeypatch):
        _fail_second_refine(monkeypatch)
        out = tmp_path / "b"
        summary = run_benchmark(_small_config(stages="refine_only"), "iid", 3, str(out), threads=1)
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [{"instance": 1, "stage": "refine", "error": "stage 'refine' failed: boom"}]
        assert list(errors[0]) == ["instance", "stage", "error"]
        import csv

        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted({int(r["instance"]) for r in rows}) == [0, 2]
        assert len(rows) == 2 * len(BENCHMARK_METHODS) * len(BENCHMARK_METRICS)
        with open(out / "summary.csv") as fh:
            on_disk = list(csv.DictReader(fh))
        assert len(on_disk) == len(summary) == len(BENCHMARK_METHODS) * len(BENCHMARK_METRICS)
        assert all(int(row["n"]) == 2 for row in on_disk)
        assert all(row["n"] == 2 for row in summary)

    def test_dead_worker_loses_only_its_own_run(self, tmp_path, monkeypatch):
        parent = os.getpid()
        real = pipeline.run_pipeline

        def dies_on_instance_one(config, *args, **kwargs):
            if os.getpid() != parent and config.out_dir.endswith("001"):
                os._exit(1)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_pipeline", dies_on_instance_one)
        cfg_path = _write_config(tmp_path / "cfg.json", stages="refine_only")
        out = tmp_path / "b"
        argv = ["benchmark", "--config", cfg_path, "--setting", "iid", "--instances", "6", "--threads", "2"]
        assert cli_main([*argv, "--out", str(out)]) == 3
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["instance"], e["stage"]) for e in errors] == [(1, None)]
        assert "terminated abruptly" in errors[0]["error"]
        for i in (0, 2, 3, 4, 5):
            assert (out / "instances" / f"{i:03d}" / "run_record.json").exists(), i
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("instances, threads, forks", [(1, 3, 0), (2, 4, 2)])
    def test_forks_no_more_workers_than_runs(self, tmp_path, monkeypatch, instances, threads, forks):
        forked = _count_forks(monkeypatch)
        cfg = _small_config(stages="refine_only")
        run_benchmark(cfg, "iid", instances, str(tmp_path / "b"), threads=threads)
        assert len(forked) == forks
        assert json.loads((tmp_path / "b" / "errors.json").read_text()) == []

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

    def test_rejects_zero_steps_before_any_run(self, tmp_path):
        cfg = _small_config(stages="knn_only", refine=RefineConfig(n_steps=0))
        with pytest.raises(ConfigError, match="n_steps=0"):
            run_benchmark(cfg, "iid", 2, str(tmp_path / "x"))
        assert not (tmp_path / "x").exists()


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

    def test_failed_run_is_listed_and_left_out_of_the_table(self, tmp_path, monkeypatch):
        _fail_second_refine(monkeypatch)
        out = tmp_path / "abl"
        rows = run_ablation_sparsity(_small_config(stages="refine_only"), "iid", 2, str(out), threads=1)
        errors = json.loads((out / "errors.json").read_text())
        expect = {"instance": 0, "arm": "unpenalized", "stage": "refine", "error": "stage 'refine' failed: boom"}
        assert errors == [expect]
        assert list(errors[0]) == ["instance", "arm", "stage", "error"]
        kept = [(0, "penalized"), (1, "penalized"), (1, "unpenalized")]
        assert [(r["instance"], r["arm"]) for r in rows] == kept
        import csv

        with open(out / "ablation.csv") as fh:
            on_disk = list(csv.DictReader(fh))
        assert [(int(r["instance"]), r["arm"]) for r in on_disk] == kept

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
        assert (ts_dir / "datasets.npy").exists() and (ts_dir / "graphs.npy").exists()

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

    @pytest.mark.parametrize("command, runs", [("benchmark", 2), ("ablate", 4)])
    def test_failed_runs_exit_three_after_writing_the_tables(self, tmp_path, capsys, command, runs):
        # a from_file seed whose graph is missing fails every run in init_seed
        refine = {"n_steps": 50, "collect_k": 10, "seed_mode": "from_file", "seed_graph": str(tmp_path / "absent.csv")}
        cfg_path = _write_config(tmp_path / "cfg.json", refine=refine)
        out = tmp_path / "suite"
        rc = cli_main([command, "--config", cfg_path, "--setting", "iid", "--instances", "2", "--out", str(out)])
        assert rc == 3
        errors = json.loads((out / "errors.json").read_text())
        assert len(errors) == runs
        assert {e["stage"] for e in errors} == {"init_seed"}
        table = "results.csv" if command == "benchmark" else "ablation.csv"
        assert len((out / table).read_text().splitlines()) == 1
        err = capsys.readouterr().err
        assert f"{runs} of {runs} runs failed; see {out / 'errors.json'}" in err

    def test_pipeline_command_prints_undefined_metrics_as_na(self, tmp_path, capsys):
        # an edgeless truth leaves AUROC and AUPRC undefined (None)
        data, truth = tmp_path / "data.csv", tmp_path / "truth.csv"
        save_dataset(Dataset(make_rng(0).normal(size=(60, 3))), str(data))
        save_graph(Dag(np.zeros((3, 3), dtype=np.int8)), str(truth))
        data_section = {"path": str(data), "truth": str(truth)}
        cfg_path = _write_config(tmp_path / "cfg.json", generator=None, data=data_section)
        rc = cli_main(["pipeline", "--config", cfg_path, "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "final vs truth: auroc=n/a auprc=n/a f1=" in capsys.readouterr().out

    def test_benchmark_command_prints_undefined_means_as_na(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "cfg.json", generator={"d": 4, "n": 60, "expected_edges": 0.0})
        args = ["--setting", "iid", "--instances", "1", "--out", str(tmp_path / "b")]
        rc = cli_main(["benchmark", "--config", cfg_path, *args])
        assert rc == 0
        assert "final auroc: n/a +/- n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["pipeline", "refine"])
    def test_config_without_data_source_exits_two(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0}))
        rc = cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "no data source" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeed": 1}))
        rc = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"refine": {"acceptance": "metropolis"}}, "acceptance"),
            ({"score": {"ad_variant": "likelihood"}}, "ad_variant"),
            ({"score": {"ad_scale_mode": "averaged"}}, "ad_scale_mode"),
            ({"noise_mode": "empirical"}, "noise_mode"),
            ({"regressor": {"ridge": 1e-6}}, "ridge"),
            ({"refine": {"seed_expected_edges": 10}}, "seed_expected_edges"),
            ({"refine": {"greedy_max_rounds": 64}}, "greedy_max_rounds"),
            ({"refine": {"dedup_collected": False}}, "dedup_collected"),
        ],
    )
    def test_removed_config_key_exits_two(self, tmp_path, capsys, obj, key):
        """Keys of deleted variants are rejected, even at their old default."""
        with pytest.raises(ConfigError, match=f"unknown config keys.*'{key}'"):
            PipelineConfig.from_dict(obj)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(obj))
        rc = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "generator, message",
        [
            ({"n": 0}, "generator n must be >= 1, got 0"),
            ({"attach_m": 0}, "generator attach_m must be >= 1, got 0"),
            ({"expected_edges": -1}, "generator expected_edges must be finite and >= 0, got -1"),
        ],
    )
    def test_bad_generator_value_exits_two(self, tmp_path, capsys, generator, message):
        cfg_path = _write_config(tmp_path / "cfg.json", generator={"d": 4, **generator})
        rc = cli_main(["pipeline", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_generate_count_below_one_exits_two(self, tmp_path, capsys, count):
        rc = cli_main(["generate", "--count", count, "--out", str(tmp_path / "g")])
        assert rc == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["generate", "--seed", "-1"], None, "seed must be >= 0, got -1"),
            (["pipeline", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
            (["train", "--trainset", "ts", "--seed", "-3"], None, "seed must be >= 0, got -3"),
            (["make-trainset", "--data", "d.csv", "--graphs", "g", "--seed", "-2"], None, "seed must be >= 0, got -2"),
            (["make-trainset", "--data", "d.csv", "--graphs", "g", "--basis", "foo"], None, "invalid choice: 'foo'"),
            (["pipeline"], {"seed": -1}, "seed must be >= 0, got -1"),
            (["pipeline"], {"train": {"seed": -5}}, "train seed must be >= 0, got -5"),
            # float flags follow the config's finite-number rule
            (["generate", "--expected-edges", "nan"], None, "generator expected_edges must be finite and >= 0, got nan"),
            (["generate", "--expected-edges", "inf"], None, "generator expected_edges must be finite and >= 0, got inf"),
            (["train", "--trainset", "ts", "--lr", "nan"], None, "learning_rate must be finite and > 0, got nan"),
            (["train", "--trainset", "ts", "--lr", "inf"], None, "learning_rate must be finite and > 0, got inf"),
        ],
    )
    def test_bad_seed_or_basis_exits_two(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            argv = [*argv, "--config", _write_config(tmp_path / "cfg.json", **config)]
        try:
            rc = cli_main([*argv, "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects a flag before any command runs
            rc = exc.code
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_generate_single_variable_exits_two(self, tmp_path, capsys):
        rc = cli_main(["generate", "--d", "1", "--out", str(tmp_path / "g")])
        assert rc == 2
        assert "generator d must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("stages", ["knn_only", "full"])
    def test_zero_steps_exits_two(self, tmp_path, capsys, stages):
        path = _write_config(tmp_path / "cfg.json", stages=stages, refine={"n_steps": 0})
        rc = cli_main(["pipeline", "--config", path, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "n_steps" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    def test_missing_seed_graph_exits_two(self, tmp_path, capsys):
        seed = tmp_path / "absent.csv"
        refine = {"n_steps": 50, "collect_k": 10, "seed_mode": "from_file", "seed_graph": str(seed)}
        cfg_path = _write_config(tmp_path / "cfg.json", refine=refine)
        rc = cli_main(["pipeline", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(seed) in err and "No such file or directory" in err
        assert not (tmp_path / "r").exists()

    def test_seed_graph_over_the_in_degree_cap_exits_two(self, tmp_path, capsys):
        seed = tmp_path / "seed.csv"
        save_graph(dag_from_edges(4, [(0, 3), (1, 3), (2, 3)]), str(seed))
        refine = {"n_steps": 50, "collect_k": 10, "seed_mode": "from_file", "seed_graph": str(seed)}
        cfg_path = _write_config(tmp_path / "cfg.json", refine=refine, regressor={"max_in_degree": 2})
        rc = cli_main(["pipeline", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"seed graph {seed}: node 3 has in-degree 3 > cap 2" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("basis", [b.value for b in Basis])
    def test_make_trainset_outputs_match_golden_hashes(self, tmp_path, basis):
        reason = _golden_build_mismatch()
        if reason is not None:
            pytest.skip(reason)
        instance = generate_instance(SpecTriple.parse("rff", "laplace", "sf"), 5, 60, 3)
        save_dataset(instance.data, str(tmp_path / "data.csv"))
        graphs_dir = tmp_path / "graphs"
        graphs_dir.mkdir()
        rng = make_rng(4)
        graphs = [instance.scm.dag, Dag(np.zeros((5, 5), dtype=np.int8))]
        graphs += [random_er(5, 5.0, rng) for _ in range(3)]
        for k, g in enumerate(graphs):
            save_graph(g, str(graphs_dir / f"g{k}.csv"))
        out = tmp_path / "ts"
        args = ["--data", str(tmp_path / "data.csv"), "--graphs", str(graphs_dir), "--out", str(out)]
        rc = cli_main(["make-trainset", *args, "--basis", basis, "--basis-size", "4", "--seed", "7"])
        assert rc == 0
        expected = {"datasets.npy": TRAINSET_DATASETS_SHA256[basis], "graphs.npy": TRAINSET_GRAPHS_SHA256}
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_invalid_trainset_exits_two(self, tmp_path, capsys):
        # an instance_### directory is the old layout, which train no longer reads
        ts = tmp_path / "ts" / "instance_000"
        ts.mkdir(parents=True)
        (ts / "data.csv").write_text("x0,x1\n1.0,2.0\n")
        (ts / "graph.csv").write_text("0,1\n0,0\n")
        rc = cli_main(["train", "--trainset", str(tmp_path / "ts"), "--out", str(tmp_path / "p.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "datasets.npy" in err and "graphs.npy" in err
        assert not (tmp_path / "p.json").exists()

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
