"""Tests for on-disk formats: dataset CSV, graph files, bundles, traces,
and training-set arrays."""

import csv
import io
import json
import math
import os
import pickle
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from causalign.errors import DataFormatError, StructuralInputError
from causalign.io import (
    TrainingSetWriter,
    load_dataset,
    load_graph,
    load_instance_bundle,
    load_matrix,
    load_training_set,
    save_dataset,
    save_graph,
    save_instance_bundle,
    save_matrix,
    save_trace_jsonl,
    save_training_set,
)
from causalign.model import TrainingSet, generate_training_set
from causalign.refine import RefineConfig, refine
from causalign.scm import Dataset, SpecTriple, make_shift_suite
from causalign.scoring import ScoreConfig, ScoreEngine
from causalign.sim import RegressorConfig

from conftest import dag_from_edges, dags, empty_dag, make_rng


class TestDatasetCsv:
    def test_round_trip_with_header(self, tmp_path):
        data = Dataset(make_rng(0).normal(size=(20, 3)), columns=["a", "b", "c"])
        path = str(tmp_path / "data.csv")
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.array_equal(back.values, data.values)
        assert back.columns == ["a", "b", "c"]

    def test_round_trip_without_header(self, tmp_path):
        data = Dataset(make_rng(1).normal(size=(15, 2)))
        path = str(tmp_path / "data.csv")
        save_dataset(data, path, header=False)
        back = load_dataset(path)
        assert np.array_equal(back.values, data.values)
        assert back.columns is None

    def test_auto_header_detection_both_ways(self, tmp_path):
        with_h = tmp_path / "with.csv"
        with_h.write_text("x0,x1\n1.0,2.0\n3.0,4.0\n")
        without = tmp_path / "without.csv"
        without.write_text("1.0,2.0\n3.0,4.0\n")
        a = load_dataset(str(with_h))
        b = load_dataset(str(without))
        assert a.n == b.n == 2
        assert a.columns == ["x0", "x1"]
        assert b.columns is None
        assert np.array_equal(a.values, b.values)

    def test_explicit_header_flag_overrides_detection(self, tmp_path):
        path = tmp_path / "num_header.csv"
        path.write_text("1.5,2.5\n3.0,4.0\n")
        forced = load_dataset(str(path), header=True)
        assert forced.n == 1
        assert forced.columns == ["1.5", "2.5"]

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataFormatError, match=r"line 2, column 2"):
            load_dataset(str(path))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,2.0\nnan,4.0\n")
        with pytest.raises(DataFormatError, match=r"non-finite"):
            load_dataset(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match=r"line 2"):
            load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match=r"empty"):
            load_dataset(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataFormatError, match=r"no data rows"):
            load_dataset(str(path))

    def test_missing_file_raises_data_format_error(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(str(tmp_path / "nope.csv"))

    def test_saved_floats_round_trip_exactly(self, tmp_path):
        vals = np.array([[1.0 / 3.0, 1e-300], [math.pi, 2.0**-52]])
        data = Dataset(vals)
        path = str(tmp_path / "exact.csv")
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.array_equal(back.values, vals)


# awkward floats for the writers: signed zero, the smallest subnormal, reprs
# in exponent form at both ends, a short decimal and large negatives
_AWKWARD = np.array(
    [
        [-0.0, 5e-324, 1e16, 1e-7],
        [0.1, -1.7976931348623157e308, -123456789.125, -1e22],
        [0.0, 1.0, -2.5, 1e15],
    ]
)


def _csv_writer_bytes(values, header=None) -> bytes:
    """What csv.writer writes for repr'd floats (the writers' reference)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if header is not None:
        writer.writerow(header)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


class TestFloatWriterBytes:
    @pytest.mark.parametrize("header", [True, False])
    def test_save_dataset_matches_csv_writer(self, tmp_path, header):
        data = Dataset(_AWKWARD, columns=["a", "b c", "d,e", 'f"g'])
        path = str(tmp_path / "data.csv")
        save_dataset(data, path, header=header)
        expected = _csv_writer_bytes(_AWKWARD, data.columns if header else None)
        assert open(path, "rb").read() == expected
        back = load_dataset(path, header=header)
        assert back.values.tobytes() == _AWKWARD.tobytes()  # -0.0 included
        if header:
            assert back.columns == data.columns

    def test_save_matrix_matches_csv_writer(self, tmp_path):
        path = str(tmp_path / "m.csv")
        save_matrix(_AWKWARD, path)
        assert open(path, "rb").read() == _csv_writer_bytes(_AWKWARD)
        assert load_matrix(path).tobytes() == _AWKWARD.tobytes()

    def test_random_values_match_csv_writer(self, tmp_path):
        values = make_rng(9).normal(scale=1e3, size=(30, 5))
        path = str(tmp_path / "r.csv")
        save_dataset(Dataset(values), path)
        header = [f"x{j}" for j in range(5)]
        assert open(path, "rb").read() == _csv_writer_bytes(values, header)


class TestGraphFiles:
    def test_adjacency_csv_round_trip(self, tmp_path):
        dag = dag_from_edges(4, [(0, 1), (1, 3), (2, 3)])
        path = str(tmp_path / "g.csv")
        save_graph(dag, path)
        assert load_graph(path) == dag

    @pytest.mark.parametrize("d, edges", [(1, []), (2, [(1, 0)]), (5, [(0, 1), (0, 4), (2, 4), (3, 1)]), (12, [(0, 11), (5, 3)])])
    def test_adjacency_csv_matches_csv_writer(self, tmp_path, d, edges):
        dag = dag_from_edges(d, edges)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in dag.adjacency:
            writer.writerow([int(v) for v in row])
        path = tmp_path / "g.csv"
        save_graph(dag, str(path))
        assert path.read_bytes() == buf.getvalue().encode()
        assert path.read_bytes().endswith(b"\r\n")

    @settings(max_examples=60, deadline=None)
    @given(dags(max_d=15))
    def test_adjacency_csv_is_csv_writer_bytes_for_any_dag(self, dag):
        with tempfile.TemporaryDirectory() as tmp:
            want = os.path.join(tmp, "want.csv")
            with open(want, "w", newline="") as fh:
                csv.writer(fh).writerows(dag.adjacency.tolist())
            got = os.path.join(tmp, "got.csv")
            save_graph(dag, got)
            with open(got, "rb") as fh, open(want, "rb") as ref:
                assert fh.read() == ref.read()
            assert load_graph(got) == dag

    def test_json_edge_list_round_trip(self, tmp_path):
        dag = dag_from_edges(3, [(0, 2), (1, 2)])
        path = str(tmp_path / "g.json")
        save_graph(dag, path)
        assert load_graph(path) == dag
        obj = json.loads((tmp_path / "g.json").read_text())
        assert obj["d"] == 3

    def test_cyclic_adjacency_rejected(self, tmp_path):
        path = tmp_path / "cyclic.csv"
        path.write_text("0,1\n1,0\n")
        with pytest.raises(StructuralInputError):
            load_graph(str(path))

    def test_non_binary_entry_rejected(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("0,0.7\n0,0\n")
        with pytest.raises(DataFormatError, match=r"0 or 1"):
            load_graph(str(path))

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("0,1,0\n0,0,1\n")
        with pytest.raises(DataFormatError, match=r"square"):
            load_graph(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_graph(str(path))

    def test_json_with_cycle_rejected(self, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"d": 2, "edges": [[0, 1], [1, 0]]}))
        with pytest.raises(StructuralInputError):
            load_graph(str(path))


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        mat = make_rng(2).random((3, 3))
        path = str(tmp_path / "m.csv")
        save_matrix(mat, path)
        assert np.array_equal(load_matrix(path), mat)

    def test_byte_stability(self, tmp_path):
        mat = make_rng(3).random((4, 4))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_matrix(mat, p1)
        save_matrix(mat, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_cell_reported(self, tmp_path):
        cases = [
            ("0.1,0.2\n0.3,x\n", r"line 2, column 2: not a number"),
            ("0.1,0.2\n0.3,nan\n", r"line 2, column 2: non-finite"),
            ("0.1,0.2\n0.3\n", r"line 2 has 1 fields, expected 2"),
        ]
        path = tmp_path / "bad.csv"
        for text, where in cases:
            path.write_text(text)
            with pytest.raises(DataFormatError, match=where):
                load_matrix(str(path))


class TestInstanceBundle:
    def test_round_trip(self, tmp_path):
        triple = SpecTriple.parse("linear", "gaussian", "er")
        train, test = make_shift_suite(
            "iid", triple, d=4, n=30, count=1, rng=make_rng(6)
        )
        instance = test[0]
        out = str(tmp_path / "bundle")
        save_instance_bundle(instance, out)
        back_data, back_dag, meta = load_instance_bundle(out)
        assert np.array_equal(back_data.values, instance.data.values)
        assert back_dag == instance.dag
        assert meta["mechanism"] == "linear"
        assert meta["n"] == instance.data.n
        assert meta["d"] == instance.data.d


class TestTraceJsonl:
    def test_one_record_per_line(self, tmp_path):
        data = Dataset(make_rng(7).normal(size=(60, 3)))
        trace = refine(ScoreEngine(data), empty_dag(3), RefineConfig(n_steps=25, collect_k=5), make_rng(8))
        path = str(tmp_path / "trace.jsonl")
        save_trace_jsonl(trace.steps, path)
        lines = open(path).read().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert set(first) == {"step", "move", "s_curr", "s_cand", "alpha", "accepted"}
        assert first["step"] == 1

    def test_byte_identical_for_identical_traces(self, tmp_path):
        data = Dataset(make_rng(9).normal(size=(60, 3)))
        cfg = RefineConfig(n_steps=30, collect_k=5)
        t1 = refine(ScoreEngine(data), empty_dag(3), cfg, make_rng(10))
        t2 = refine(ScoreEngine(data), empty_dag(3), cfg, make_rng(10))
        p1, p2 = str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")
        save_trace_jsonl(t1.steps, p1)
        save_trace_jsonl(t2.steps, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestTrainingSetDir:
    def _training_set(self, seed):
        data = Dataset(make_rng(seed).normal(size=(40, 3)))
        graphs = [empty_dag(3), dag_from_edges(3, [(0, 1)])]
        return generate_training_set(graphs, ScoreEngine(data), make_rng(seed + 1))

    def test_round_trip(self, tmp_path):
        ts = self._training_set(11)
        out = str(tmp_path / "ts")
        save_training_set(ts, out)
        back = load_training_set(out)
        assert len(back.instances) == len(ts.instances)
        for (da, ga), (db, gb) in zip(back.instances, ts.instances):
            assert np.array_equal(da.values, db.values)
            assert ga == gb
        assert back.provenance["n"] == ts.provenance["n"]
        assert back.provenance["source_indices"] == ts.provenance["source_indices"]

    def test_file_names_shapes_and_dtypes(self, tmp_path):
        ts = self._training_set(12)
        out = str(tmp_path / "ts")
        save_training_set(ts, out)
        assert sorted(os.listdir(out)) == ["datasets.npy", "graphs.npy", "provenance.json"]
        datasets = np.load(os.path.join(out, "datasets.npy"))
        graphs = np.load(os.path.join(out, "graphs.npy"))
        assert datasets.shape == (2, 40, 3) and datasets.dtype == np.float64
        assert graphs.shape == (2, 3, 3) and graphs.dtype == np.int8
        for k, (data, g) in enumerate(ts.instances):
            assert np.array_equal(datasets[k], data.values)
            assert np.array_equal(graphs[k], g.adjacency)

    def test_bytes_equal_np_save_of_the_stacked_arrays(self, tmp_path):
        ts = self._training_set(13)
        out = tmp_path / "ts"
        save_training_set(ts, str(out))
        for name, stacked in (
            ("datasets.npy", np.stack([data.values for data, _ in ts.instances])),
            ("graphs.npy", np.stack([g.adjacency for _, g in ts.instances])),
        ):
            oracle = io.BytesIO()
            np.save(oracle, stacked)
            assert (out / name).read_bytes() == oracle.getvalue(), name

    def test_two_saves_are_byte_identical(self, tmp_path):
        ts = self._training_set(14)
        a, b = tmp_path / "a", tmp_path / "b"
        save_training_set(ts, str(a))
        save_training_set(ts, str(b))
        for name in ("datasets.npy", "graphs.npy", "provenance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_save_holds_at_most_one_instance_in_memory(self, tmp_path):
        # the arrays are streamed, so a 50-instance set must not be stacked
        rng = make_rng(15)
        instances = [(Dataset(rng.normal(size=(1000, 5))), empty_dag(5)) for _ in range(50)]
        ts = TrainingSet(instances=instances, provenance={"n": 1000})
        one = instances[0][0].values.nbytes
        out = str(tmp_path / "ts")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_training_set(ts, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * one

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="datasets.npy"):
            load_training_set(str(tmp_path / "absent"))

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(DataFormatError, match="datasets.npy: no such file"):
            load_training_set(str(empty))

    def test_empty_training_set_rejected(self, tmp_path):
        with pytest.raises(StructuralInputError, match="no instances"):
            save_training_set(TrainingSet(instances=[]), str(tmp_path / "ts"))

    def test_streamed_files_equal_the_stacked_arrays_without_skipped_graphs(self, tmp_path):
        # the writer as generate_training_set's sink writes each dataset as
        # it is drawn; graph 1 breaks the in-degree cap and is skipped
        data = Dataset(make_rng(17).normal(size=(40, 4)))
        star = dag_from_edges(4, [(0, 3), (1, 3), (2, 3)])
        graphs = [empty_dag(4), star, dag_from_edges(4, [(0, 1), (1, 2)])]
        cfg = ScoreConfig(regressor=RegressorConfig(max_in_degree=2))
        out = tmp_path / "ts"
        with pytest.warns(RuntimeWarning, match="skipping graph 1"):
            ts = generate_training_set(graphs, ScoreEngine(data, cfg), make_rng(18))
        with pytest.warns(RuntimeWarning, match="skipping graph 1"):
            writer = generate_training_set(
                graphs, ScoreEngine(data, cfg), make_rng(18), TrainingSetWriter(str(out), 40, 4)
            )
        assert writer.added == len(ts.instances) == 2
        for name, stacked in (
            ("datasets.npy", np.stack([data.values for data, _ in ts.instances])),
            ("graphs.npy", np.stack([g.adjacency for _, g in ts.instances])),
        ):
            oracle = io.BytesIO()
            np.save(oracle, stacked)
            assert (out / name).read_bytes() == oracle.getvalue(), name
            assert np.load(out / name).shape[0] == 2
        provenance = {"source_indices": [0, 2], "skipped_indices": [1], "n": 40}
        assert ts.provenance == provenance
        assert (out / "provenance.json").read_text() == json.dumps(provenance, indent=2)

    def test_writer_rejects_an_instance_beyond_its_count(self, tmp_path):
        ts = self._training_set(18)
        writer = TrainingSetWriter(str(tmp_path / "ts"), 40, 3)
        writer.start(1, ts.provenance)
        writer.add(*ts.instances[0])
        with pytest.raises(StructuralInputError, match="already holds its 1 instances"):
            writer.add(*ts.instances[1])

    def test_arrays_get_their_names_on_the_last_add(self, tmp_path):
        ts = self._training_set(19)
        out = tmp_path / "ts"
        save_training_set(ts, str(out))
        writer = TrainingSetWriter(str(out), 40, 3)
        writer.start(2, ts.provenance)
        writer.add(*ts.instances[0])
        # the earlier set is gone, and this one is not named until complete
        assert sorted(os.listdir(out)) == ["datasets.npy.partial", "graphs.npy.partial", "provenance.json"]
        writer.add(*ts.instances[1])
        assert sorted(os.listdir(out)) == ["datasets.npy", "graphs.npy", "provenance.json"]

    def test_instances_of_differing_shapes_rejected(self, tmp_path):
        rng = make_rng(16)
        instances = [(Dataset(rng.normal(size=(n, 3))), empty_dag(3)) for n in (10, 11)]
        with pytest.raises(StructuralInputError, match="differing shapes"):
            save_training_set(TrainingSet(instances=instances), str(tmp_path / "ts"))


class TestTrainingSetLoadValidation:
    @pytest.fixture
    def ts_dir(self, tmp_path):
        data = Dataset(make_rng(20).normal(size=(30, 3)))
        graphs = [empty_dag(3), dag_from_edges(3, [(0, 1), (1, 2)])]
        out = tmp_path / "ts"
        save_training_set(generate_training_set(graphs, ScoreEngine(data), make_rng(21)), str(out))
        return out

    @staticmethod
    def _rewrite(path, edit):
        arr = np.load(path)
        np.save(path, edit(arr.copy()))

    @staticmethod
    def _set(arr, index, value):
        arr[index] = value
        return arr

    @pytest.mark.parametrize("name", ["datasets.npy", "graphs.npy"])
    def test_missing_file(self, ts_dir, name):
        (ts_dir / name).unlink()
        with pytest.raises(DataFormatError, match=rf"{name}: no such file"):
            load_training_set(str(ts_dir))

    def test_old_instance_directory_layout_names_the_new_files(self, tmp_path):
        old = tmp_path / "ts"
        (old / "instance_000").mkdir(parents=True)
        save_dataset(Dataset(make_rng(22).normal(size=(5, 2))), str(old / "instance_000" / "data.csv"))
        save_graph(empty_dag(2), str(old / "instance_000" / "graph.csv"))
        with pytest.raises(DataFormatError, match=r"instance_###.*datasets\.npy.*graphs\.npy"):
            load_training_set(str(old))

    @pytest.mark.parametrize("name", ["datasets.npy", "graphs.npy"])
    def test_array_not_3d(self, ts_dir, name):
        self._rewrite(ts_dir / name, lambda arr: arr[0])
        with pytest.raises(DataFormatError, match=rf"{name}: expected a 3-d array"):
            load_training_set(str(ts_dir))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: np.concatenate([g, g[:1]]),  # K disagrees
            lambda g: np.zeros((2, 4, 4), dtype=np.int8),  # d disagrees
            lambda g: np.zeros((2, 3, 4), dtype=np.int8),  # not d x d
        ],
        ids=["k", "d", "square"],
    )
    def test_graph_shape_disagrees(self, ts_dir, edit):
        self._rewrite(ts_dir / "graphs.npy", edit)
        with pytest.raises(DataFormatError, match=r"graphs\.npy: shape .* does not match"):
            load_training_set(str(ts_dir))

    def test_no_instances(self, ts_dir):
        self._rewrite(ts_dir / "datasets.npy", lambda arr: arr[:0])
        self._rewrite(ts_dir / "graphs.npy", lambda g: g[:0])
        with pytest.raises(DataFormatError, match=r"datasets\.npy: no instances"):
            load_training_set(str(ts_dir))

    def test_dataset_dtype_not_float(self, ts_dir):
        self._rewrite(ts_dir / "datasets.npy", lambda arr: arr.astype(np.int64))
        with pytest.raises(DataFormatError, match=r"datasets\.npy: dtype int64 is not a float"):
            load_training_set(str(ts_dir))

    def test_object_array_rejected(self, ts_dir):
        path = ts_dir / "datasets.npy"
        np.save(path, np.empty((2, 30, 3), dtype=object), allow_pickle=True)
        with pytest.raises(DataFormatError, match=r"datasets\.npy: .*allow_pickle"):
            load_training_set(str(ts_dir))

    def test_graph_dtype_not_numeric(self, ts_dir):
        self._rewrite(ts_dir / "graphs.npy", lambda g: g.astype(str))
        with pytest.raises(DataFormatError, match=r"graphs\.npy: dtype <U\d+ is not numeric"):
            load_training_set(str(ts_dir))

    def test_npz_archive_rejected(self, ts_dir):
        with open(ts_dir / "datasets.npy", "wb") as fh:
            np.savez(fh, np.zeros((2, 30, 3)))
        with pytest.raises(DataFormatError, match=r"datasets\.npy: not a \.npy array"):
            load_training_set(str(ts_dir))

    def test_pickle_file_rejected(self, ts_dir):
        path = ts_dir / "graphs.npy"
        path.write_bytes(pickle.dumps([[[0, 1], [0, 0]]]))
        with pytest.raises(DataFormatError, match=r"graphs\.npy: .*pickled"):
            load_training_set(str(ts_dir))

    def test_graph_entry_not_binary(self, ts_dir):
        self._rewrite(ts_dir / "graphs.npy", lambda g: self._set(g, (1, 0, 2), 2))
        with pytest.raises(DataFormatError, match=r"graphs\.npy: instance 1: .*0 or 1"):
            load_training_set(str(ts_dir))

    def test_non_finite_instance(self, ts_dir):
        self._rewrite(ts_dir / "datasets.npy", lambda x: self._set(x, (1, 4, 2), np.inf))
        with pytest.raises(DataFormatError, match=r"datasets\.npy: instance 1: .*non-finite"):
            load_training_set(str(ts_dir))

    def test_malformed_provenance(self, ts_dir):
        (ts_dir / "provenance.json").write_text("{oops")
        with pytest.raises(DataFormatError, match=r"provenance\.json"):
            load_training_set(str(ts_dir))

    def test_cyclic_instance(self, ts_dir):
        self._rewrite(ts_dir / "graphs.npy", lambda g: self._set(g, (1, 2, 0), 1))
        with pytest.raises(DataFormatError, match=r"graphs\.npy: instance 1: .*cycle"):
            load_training_set(str(ts_dir))
