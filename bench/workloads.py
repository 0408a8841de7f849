"""Workload definitions shared by the benchmark driver and its set-up probe.

Each workload instance is built from its instance seed alone. Importing this module
imports causalign, so the caller must have put the checkout's ``src``
directory on ``sys.path`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from causalign.graph import Dag
from causalign.pipeline import GeneratorConfig, PipelineConfig
from causalign.refine import RefineConfig
from causalign.scm import Dataset, forward_sample, sample_scm

REFERENCE = "reference"
LARGE_N = "large-n"
SUITE = "suite"
WORKLOADS = (REFERENCE, LARGE_N, SUITE)

# large-n pays ~10x per refinement step (every refit is O(n)); 400 steps keep
# one round about as long as a reference round
LARGE_N_STEPS = 400
# the suite runs through run_benchmark's process pool; 2 workers equals the
# core count of the machine the README figures come from, and 4 instances
# give each worker two
SUITE_INSTANCES = 4
SUITE_WORKERS = 2
SUITE_STEPS = 200
SUITE_SETTING = "iid"
# final and best-graph AUROC differ a lot from one instance to the next, so
# an untraced run always measures at least this many rounds, each on its own
# instance, and reports quality as the mean over them (the suite's round
# already spans SUITE_INSTANCES instances); the reference's best-graph AUROC
# varies most (a quartile spread of 0.23 of the median over seeds with 3)
QUALITY_ROUNDS = {REFERENCE: 4, LARGE_N: 3, SUITE: 1}


def instance_seed(seed: int, index: int) -> int:
    """Seed of a run's index-th instance; instance 0 of seed s is seed s."""
    return 1000 * seed + index


@dataclass(frozen=True)
class Workload:
    """A pipeline config plus, for in-memory workloads, the generated
    inputs the benchmark hands to ``run_pipeline``."""

    name: str
    config: PipelineConfig
    dataset: Dataset | None = None
    truth: Dag | None = None

    @property
    def writes_run_dir(self) -> bool:
        return self.name != LARGE_N


def build(name: str, seed: int) -> Workload:
    if name == REFERENCE:
        # the reference run: the pipeline generates the instance from the
        # config and writes data.csv with the rest of the run directory
        gen = GeneratorConfig(mechanism="linear", noise="uniform", graph_model="er", d=10, n=200)
        return Workload(name, PipelineConfig(seed=seed, generator=gen))
    if name == LARGE_N:
        rng = np.random.default_rng(seed)
        scm = sample_scm("er", "rff", "gaussian", 10, rng)
        dataset = forward_sample(scm, 2000, rng)
        config = PipelineConfig(seed=seed, refine=RefineConfig(n_steps=LARGE_N_STEPS))
        return Workload(name, config, dataset=dataset, truth=scm.dag)
    if name == SUITE:
        gen = GeneratorConfig(mechanism="chebyshev", noise="laplace", graph_model="sf", d=12, n=400)
        refine = RefineConfig(n_steps=SUITE_STEPS, seed_mode="greedy_hill_climb")
        return Workload(name, PipelineConfig(seed=seed, stages="knn_only", generator=gen, refine=refine))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
