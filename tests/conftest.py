import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from causalign.graph import Dag
from causalign.scm import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def make_rng(seed):
    return np.random.default_rng(seed)


def chain_dag(d=3):
    adj = np.zeros((d, d), dtype=np.int8)
    for i in range(d - 1):
        adj[i, i + 1] = 1
    return Dag(adj)


def empty_dag(d=3):
    return Dag(np.zeros((d, d), dtype=np.int8))


def dag_from_edges(d, edges):
    adj = np.zeros((d, d), dtype=np.int8)
    for i, j in edges:
        adj[i, j] = 1
    return Dag(adj)


@st.composite
def dags(draw, max_d=10):
    """A DAG on 1-max_d nodes: a drawn node order, each forward pair an
    edge with a drawn density, from empty to complete."""
    d = draw(st.integers(1, max_d))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(d)
    adj = np.zeros((d, d), dtype=np.int8)
    for a in range(d):
        for b in range(a + 1, d):
            adj[order[a], order[b]] = rng.random() < density
    return Dag(adj)


def linear_dataset(seed, d=3, n=500, weight=1.5, noise=0.5):
    """Chain data x0 -> x1 -> ... with fixed weight, Gaussian noise."""
    gen = np.random.default_rng(seed)
    cols = [gen.normal(0.0, 1.0, size=n)]
    for _ in range(d - 1):
        cols.append(weight * cols[-1] + gen.normal(0.0, noise, size=n))
    return Dataset(np.column_stack(cols))


def noise_dataset(seed, d=4, n=300):
    gen = np.random.default_rng(seed)
    return Dataset(gen.normal(size=(n, d)))


@pytest.fixture
def chain3():
    return chain_dag(3)


@pytest.fixture
def chain_data():
    return linear_dataset(0, d=3, n=500)


# verdict lines registered by test_acceptance; replayed after capture ends
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
