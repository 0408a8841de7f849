"""On-disk formats: datasets (CSV), graphs (adjacency CSV or JSON edge
list), instance bundles, refinement traces, prediction matrices and
training sets (two .npy arrays).

CSV floats are written with repr (shortest round-trip form) and the
training-set arrays as raw float64/int8 buffers, so files are byte-stable
across reruns of the same seeded computation.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import DataFormatError, InputQualityError, StructuralInputError
from .graph import Dag
from .scm import CausalInstance, Dataset

__all__ = [
    "load_dataset",
    "save_dataset",
    "load_graph",
    "save_graph",
    "save_matrix",
    "load_matrix",
    "save_instance_bundle",
    "load_instance_bundle",
    "save_trace_jsonl",
    "TrainingSetWriter",
    "save_training_set",
    "load_training_set",
]


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: file is empty")
    return rows


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_dataset(path: str, header: bool | str = "auto") -> Dataset:
    """Read a numeric CSV into a Dataset.

    header may be True, False, or "auto" (header assumed iff the first row
    contains a non-numeric cell). Parse failures report 1-based line and
    column; non-finite values are rejected.
    """
    rows = _read_rows(path)
    columns = None
    start = 0
    if header == "auto":
        header = _looks_like_header(rows[0])
    if header:
        columns = [c.strip() for c in rows[0]]
        start = 1
        if len(rows) == 1:
            raise DataFormatError(f"{path}: header but no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width), dtype=float)
    for r in range(start, len(rows)):
        row = rows[r]
        if len(row) != width:
            raise DataFormatError(
                f"{path}: line {r + 1} has {len(row)} fields, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                val = float(cell)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {r + 1}, column {c + 1}: not a number: {cell!r}"
                ) from exc
            if not math.isfinite(val):
                raise DataFormatError(
                    f"{path}: line {r + 1}, column {c + 1}: non-finite value {cell!r}"
                )
            data[r - start, c] = val
    return Dataset(data, columns=columns)


def _write_float_rows(fh, values: np.ndarray) -> None:
    # the bytes csv.writer's default dialect writes for repr'd floats: a
    # repr never needs quoting, and rows end in CRLF
    fh.writelines(",".join(map(repr, row)) + "\r\n" for row in values.tolist())


def save_dataset(dataset: Dataset, path: str, header: bool = True) -> None:
    names = dataset.columns or [f"x{j}" for j in range(dataset.d)]
    with open(path, "w", newline="") as fh:
        if header:
            csv.writer(fh).writerow(names)
        _write_float_rows(fh, dataset.values)


def load_graph(path: str) -> Dag:
    """Adjacency CSV (0/1 entries, no header) or JSON edge list
    {"d": int, "edges": [[i, j], ...]}; validates shape and acyclicity."""
    if path.endswith(".json"):
        try:
            with open(path) as fh:
                return Dag.from_json(fh.read())
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, StructuralInputError):
                raise
            raise DataFormatError(f"{path}: {exc}") from exc
    rows = _read_rows(path)
    d = len(rows)
    adj = np.zeros((d, d), dtype=np.int8)
    for r, row in enumerate(rows):
        if len(row) != d:
            raise DataFormatError(
                f"{path}: line {r + 1} has {len(row)} fields, expected {d} (square matrix)"
            )
        for c, cell in enumerate(row):
            text = cell.strip()
            if text not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: line {r + 1}, column {c + 1}: adjacency entries must be 0 or 1, got {cell!r}"
                )
            adj[r, c] = int(text)
    return Dag(adj)  # raises StructuralInputError on cycles / diagonal


def save_graph(dag: Dag, path: str) -> None:
    if path.endswith(".json"):
        with open(path, "w") as fh:
            fh.write(dag.to_json())
        return
    # the bytes csv.writer writes for the 0/1 rows: each row's digits
    # between commas, then CRLF, laid out in one byte buffer
    d = dag.d
    buf = np.empty((d, 2 * d + 1), dtype=np.uint8)
    buf[:, 0 : 2 * d : 2] = dag.adjacency + ord("0")
    buf[:, 1 : 2 * d - 1 : 2] = ord(",")
    buf[:, -2:] = (ord("\r"), ord("\n"))
    with open(path, "wb") as fh:
        fh.write(buf.tobytes())


def save_matrix(matrix: np.ndarray, path: str) -> None:
    """Write a float matrix (edge probabilities) as headerless CSV."""
    with open(path, "w", newline="") as fh:
        _write_float_rows(fh, np.asarray(matrix, dtype=float))


def load_matrix(path: str) -> np.ndarray:
    """A headerless float CSV (a prediction matrix), parsed and checked as
    load_dataset does."""
    return load_dataset(path, header=False).values


def save_instance_bundle(instance: CausalInstance, out_dir: str) -> None:
    """data.csv + graph.csv + meta.json in one directory."""
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(instance.data, os.path.join(out_dir, "data.csv"))
    save_graph(instance.dag, os.path.join(out_dir, "graph.csv"))
    meta = {
        "mechanism": instance.spec.mechanism.value,
        "noise": instance.spec.noise.value,
        "graph_model": instance.spec.graph_model.value,
        "seed": instance.seed,
        "n": instance.data.n,
        "d": instance.data.d,
        "generator": instance.scm.meta,
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)


def load_instance_bundle(bundle_dir: str) -> tuple[Dataset, Dag, dict]:
    data = load_dataset(os.path.join(bundle_dir, "data.csv"))
    dag = load_graph(os.path.join(bundle_dir, "graph.csv"))
    meta_path = os.path.join(bundle_dir, "meta.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return data, dag, meta


def save_trace_jsonl(steps, path: str) -> None:
    """One JSON object per refinement step."""
    with open(path, "w") as fh:
        for record in steps:
            fh.write(json.dumps(record.to_json()))
            fh.write("\n")


_TRAINSET_DATASETS = "datasets.npy"
_TRAINSET_GRAPHS = "graphs.npy"
_PARTIAL = ".partial"


class TrainingSetWriter:
    """Writes a training-set directory one instance at a time, as
    generate_training_set's sink: start writes provenance.json and the
    .npy 1.0 headers of datasets.npy (float64, shape (K, n, d)) and
    graphs.npy (int8, shape (K, d, d)), and each add appends one
    instance's C-order buffers. Both arrays are written under a .partial
    suffix and renamed on the K-th add, so a run that stops early leaves
    no datasets.npy or graphs.npy. Once renamed the files hold what
    np.save of the stacked arrays writes, while memory held one instance
    at a time."""

    def __init__(self, out_dir: str, n: int, d: int):
        self.out_dir = out_dir
        self._parts = (
            (os.path.join(out_dir, _TRAINSET_DATASETS), (n, d), np.dtype(np.float64)),
            (os.path.join(out_dir, _TRAINSET_GRAPHS), (d, d), np.dtype(np.int8)),
        )
        self.count = 0
        self.added = 0

    def start(self, count: int, provenance: dict) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for path, shape, dtype in self._parts:
            if os.path.exists(path):  # an earlier set here must not outlive this one's provenance
                os.remove(path)
            header = {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (count, *shape),
            }
            with open(path + _PARTIAL, "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, header)
        with open(os.path.join(self.out_dir, "provenance.json"), "w") as fh:
            json.dump(provenance, fh, indent=2)
        self.count = count

    def add(self, dataset: Dataset, graph: Dag) -> None:
        if self.added == self.count:
            raise StructuralInputError(f"{self.out_dir}: already holds its {self.count} instances")
        arrays = (dataset.values, graph.adjacency)
        for (path, shape, _), arr in zip(self._parts, arrays):
            if arr.shape != shape:
                raise StructuralInputError(
                    f"{path}: arrays of differing shapes: instance {self.added} is {arr.shape}, not {shape}"
                )
        for (path, _, dtype), arr in zip(self._parts, arrays):
            with open(path + _PARTIAL, "ab") as fh:
                fh.write(np.ascontiguousarray(arr, dtype=dtype).data)
        self.added += 1
        if self.added == self.count:
            for path, _, _ in self._parts:
                os.replace(path + _PARTIAL, path)


def save_training_set(training_set, out_dir: str) -> None:
    """datasets.npy (float64, shape (K, n, d)), graphs.npy (int8, shape
    (K, d, d)) and provenance.json, written by a TrainingSetWriter;
    instance k is datasets[k] paired with graphs[k]."""
    if not training_set.instances:
        raise StructuralInputError("training set has no instances")
    first = training_set.instances[0][0]
    writer = TrainingSetWriter(out_dir, first.n, first.d)
    writer.start(len(training_set.instances), training_set.provenance)
    for data, g in training_set.instances:
        writer.add(data, g)


def _load_3d(ts_dir: str, name: str) -> tuple[str, np.ndarray]:
    path = os.path.join(ts_dir, name)
    if not os.path.isfile(path):
        try:
            old_layout = any(entry.startswith("instance_") for entry in os.listdir(ts_dir))
        except OSError:
            old_layout = False
        if old_layout:
            raise DataFormatError(
                f"{ts_dir}: instance_### directories are no longer read; a training set is "
                f"{_TRAINSET_DATASETS} + {_TRAINSET_GRAPHS} (rewrite it with make-trainset)"
            )
        raise DataFormatError(f"{path}: no such file")
    try:
        arr = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if not isinstance(arr, np.ndarray):  # np.load opens an .npz archive too
        arr.close()
        raise DataFormatError(f"{path}: not a .npy array")
    if arr.ndim != 3:
        raise DataFormatError(f"{path}: expected a 3-d array, got shape {arr.shape}")
    return path, arr


def _checked(path: str, k: int, make, values):
    try:
        return make(values)
    except (StructuralInputError, InputQualityError) as exc:
        raise DataFormatError(f"{path}: instance {k}: {exc}") from exc


def load_training_set(ts_dir: str):
    """Read what save_training_set wrote; every shape, dtype, value and
    graph is validated and a failure names the file (DataFormatError)."""
    from .model import TrainingSet

    data_path, datasets = _load_3d(ts_dir, _TRAINSET_DATASETS)
    graph_path, graphs = _load_3d(ts_dir, _TRAINSET_GRAPHS)
    if datasets.dtype.kind != "f":
        raise DataFormatError(f"{data_path}: dtype {datasets.dtype} is not a float type")
    if graphs.dtype.kind not in "biuf":
        raise DataFormatError(f"{graph_path}: dtype {graphs.dtype} is not numeric")
    k, _, d = datasets.shape
    if k == 0:
        raise DataFormatError(f"{data_path}: no instances")
    if graphs.shape != (k, d, d):
        raise DataFormatError(
            f"{graph_path}: shape {graphs.shape} does not match {data_path} shape "
            f"{datasets.shape} (expected {(k, d, d)})"
        )
    instances = [
        (_checked(data_path, i, Dataset, datasets[i]), _checked(graph_path, i, Dag, graphs[i]))
        for i in range(k)
    ]
    provenance = {}
    prov_path = os.path.join(ts_dir, "provenance.json")
    if os.path.exists(prov_path):
        try:
            with open(prov_path) as fh:
                provenance = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{prov_path}: {exc}") from exc
    return TrainingSet(instances=instances, provenance=provenance)
