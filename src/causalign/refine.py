"""Stochastic refinement of DAGs under the alignment-minus-sparsity score.

Each step proposes one uniformly random feasible edge move (the feasible
set is enumerated again only after an accepted move), scores the
candidate through the shared cached engine, and accepts with the
Metropolis rule. Graphs visited during the last collect_k steps are
collected as the ensemble handed to training-set synthesis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegreeCapError
from .graph import Dag, EdgeMove, MoveKind, apply_move, feasible_moves, random_er
from .scoring import ScoreConfig, ScoreEngine, ScoreValue

__all__ = [
    "SeedMode",
    "RefineConfig",
    "StepRecord",
    "RefineTrace",
    "acceptance_probability",
    "init_seed",
    "load_seed_graph",
    "greedy_hill_climb",
    "refine",
]


class SeedMode(str, enum.Enum):
    RANDOM_DAG = "random_dag"
    GREEDY = "greedy_hill_climb"
    FROM_FILE = "from_file"


@dataclass(frozen=True)
class RefineConfig:
    """Search parameters.

    temperature=None resolves from the seed graph's score through
    resolve_temperature. collect_k is the length of refine's collected
    tail, repeats included. score configures the run's ScoreEngine; the
    search itself reads the score, and the in-degree cap, from the engine
    it is given.
    """

    n_steps: int = 2000
    collect_k: int = 200
    temperature: float | None = None
    seed_mode: SeedMode = SeedMode.RANDOM_DAG
    seed_graph_path: str | None = None
    score: ScoreConfig = field(default_factory=ScoreConfig)

    def __post_init__(self):
        object.__setattr__(self, "seed_mode", SeedMode(self.seed_mode))
        if self.n_steps < 0:
            raise ConfigError("n_steps must be >= 0")
        if self.collect_k < 1:
            raise ConfigError("collect_k must be >= 1")
        if self.temperature is not None and self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.seed_mode == SeedMode.FROM_FILE and not self.seed_graph_path:
            raise ConfigError("seed_mode=from_file requires seed_graph_path")

    def resolve_temperature(self, seed_total: float) -> float:
        """The Metropolis temperature: the configured one, or
        max(0.01 * |seed_total|, 1e-6) when it is None."""
        if self.temperature is not None:
            return self.temperature
        return max(0.01 * abs(seed_total), 1e-6)


@dataclass(frozen=True)
class StepRecord:
    step: int
    move: EdgeMove | None
    s_curr: float
    s_cand: float
    alpha: float
    accepted: bool

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "move": self.move.to_json() if self.move is not None else None,
            "s_curr": self.s_curr,
            "s_cand": self.s_cand,
            "alpha": self.alpha,
            "accepted": self.accepted,
        }


@dataclass
class RefineTrace:
    seed_dag: Dag
    seed_score: ScoreValue
    temperature: float
    steps: list[StepRecord]
    collected: list[Dag]
    # the score the search held for each collected graph, which equals a
    # fresh engine's score of it bit for bit (fits are deterministic)
    collected_scores: list[ScoreValue]
    # the highest-total graph visited, seed included; the earliest wins ties
    best_dag: Dag
    best_score: ScoreValue
    final_dag: Dag
    final_score: ScoreValue


def acceptance_probability(s_curr: float, s_cand: float, temperature: float = 1.0) -> float:
    """Metropolis probability of accepting the candidate: 1 if
    s_cand >= s_curr else exp((s_cand - s_curr)/T); well behaved for scores
    of any sign.
    """
    delta = s_cand - s_curr
    if delta >= 0:
        return 1.0
    if temperature <= 0:
        raise ConfigError("temperature must be > 0")
    return math.exp(delta / temperature)


def _moved_parents(move: EdgeMove, parents: list[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...]]]:
    """(node, new sorted parent tuple) for each node whose parents the move
    changes: the target, plus the source for a reversal. The search and
    the greedy seed score a candidate from these alone, so neither builds
    the graph of a move it does not take."""
    i, j = move.source, move.target
    if move.kind == MoveKind.ADD:
        return [(j, tuple(sorted(parents[j] + (i,))))]
    without_i = tuple(p for p in parents[j] if p != i)
    if move.kind == MoveKind.DELETE:
        return [(j, without_i)]
    return [(j, without_i), (i, tuple(sorted(parents[i] + (j,))))]


_EDGE_DELTA = {MoveKind.ADD: 1, MoveKind.DELETE: -1, MoveKind.REVERSE: 0}


def greedy_hill_climb(engine: ScoreEngine, max_rounds: int = 64, start: Dag | None = None) -> Dag:
    """Deterministic best-first ascent from the empty graph.

    Each round scores every feasible move within the engine's in-degree
    cap and takes the strictly best improvement; ties keep the first move
    in canonical order. Stops when no move improves the total or
    max_rounds is hit. A candidate's total swaps the changed nodes' terms
    into the current graph's and sums them as engine.score would, so it
    equals the candidate's full rescore exactly; only the chosen move
    builds a Dag. A move's (node, new parents, term) triples are kept
    across rounds until a taken move changes the parents of a node the
    move reads, so a round asks the engine only about moves that are new
    or that the last taken move made stale; the engine still sees every
    key a full rescore would.
    """
    cap = engine.config.regressor.max_in_degree
    d = engine.dataset.d
    current = start if start is not None else Dag(np.zeros((d, d), dtype=np.int8))
    best_total = engine.score(current).total
    parents = [current.parents(j) for j in range(d)]
    terms = [engine.node_term(j, parents[j]) for j in range(d)]
    edges = current.edge_count
    moved: dict[EdgeMove, list[tuple[int, tuple[int, ...], float]]] = {}
    readers: list[list[EdgeMove]] = [[] for _ in range(d)]  # per node, the kept moves that read it
    for _ in range(max_rounds):
        best_move = None
        for move in feasible_moves(current, cap):
            triples = moved.get(move)
            if triples is None:
                triples = moved[move] = [
                    (node, node_parents, engine.node_term(node, node_parents))
                    for node, node_parents in _moved_parents(move, parents)
                ]
                for node, _, _ in triples:
                    readers[node].append(move)
            cand_terms = list(terms)
            for node, _, term in triples:
                cand_terms[node] = term
            total = engine.total_from_ad(engine.combine_terms(cand_terms), edges + _EDGE_DELTA[move.kind])
            if total > best_total:
                best_total = total
                best_move = move
        if best_move is None:
            break
        for node, node_parents, term in moved[best_move]:
            parents[node], terms[node] = node_parents, term
            for stale in readers[node]:
                moved.pop(stale, None)
            readers[node] = []
        edges += _EDGE_DELTA[best_move.kind]
        current = apply_move(current, best_move)
    return current


def init_seed(engine: ScoreEngine, mode: SeedMode | str, rng: np.random.Generator) -> Dag:
    """Draw the starting graph for refinement on the engine's dataset.

    random_dag draws an ER graph with d expected edges, then
    trims each node drawn with more parents than the engine regressor's
    max_in_degree to a uniform random subset of that many, using the same
    rng after the draw (a graph within the cap is returned as drawn);
    greedy_hill_climb runs the deterministic ascent. A from_file seed is
    read, not drawn: load_seed_graph reads it, and asking for one here is
    a ConfigError.
    """
    mode = SeedMode(mode)
    d = engine.dataset.d
    if mode == SeedMode.RANDOM_DAG:
        dag = random_er(d, float(d), rng)
        cap = engine.config.regressor.max_in_degree
        if cap is None:
            return dag
        adj = dag.adjacency.copy()
        for node in np.flatnonzero(dag.in_degrees() > cap):
            parents = dag.parents(node)
            adj[rng.choice(parents, size=len(parents) - cap, replace=False), node] = 0
        return Dag(adj)
    if mode == SeedMode.GREEDY:
        return greedy_hill_climb(engine)
    raise ConfigError("init_seed draws a seed graph: read a from_file seed with load_seed_graph")


def load_seed_graph(path: str, d: int, max_in_degree: int | None) -> Dag:
    """The from_file seed graph at path, checked to have d nodes and no
    node over the in-degree cap (None: no cap)."""
    from .io import load_graph  # local import keeps io optional for library use

    dag = load_graph(path)
    if dag.d != d:
        raise ConfigError(f"seed graph has d={dag.d} but dataset has d={d}")
    if max_in_degree is not None:
        degrees = dag.in_degrees()
        node = int(np.argmax(degrees))
        if degrees[node] > max_in_degree:
            raise DegreeCapError(
                f"seed graph {path}: node {node} has in-degree {degrees[node]} > cap {max_in_degree}"
            )
    return dag


def refine(engine: ScoreEngine, seed: Dag, config: RefineConfig, rng: np.random.Generator) -> RefineTrace:
    """Run the stochastic search under the engine's score and return the
    full trace.

    Per step: draw one uniformly random feasible move within the engine's
    in-degree cap (the moves of the current graph, enumerated once per
    graph the chain holds: a rejected step keeps the list), rescore the
    candidate incrementally (the nodes whose parent sets the move
    changes, as _moved_parents gives them, are refit from scratch; the
    rest keep their terms), accept with
    acceptance_probability, build the moved graph only if accepted, and
    during the last collect_k steps append the post-decision current
    graph to the collected list and its score to collected_scores.
    Repeats are kept, so a graph the chain holds longer weighs more; this
    tail of min(collect_k, n_steps) graphs is what a replay of the trace
    reproduces (bench/checks.py). Tracks the best-scoring visited graph,
    ties resolved to the earliest.
    """
    cap = engine.config.regressor.max_in_degree
    s_seed = engine.score(seed)
    temperature = config.resolve_temperature(s_seed.total)

    current, s_curr = seed, s_seed
    # per-node parent tuples and AD terms of the current graph, carried
    # across steps
    parents = [seed.parents(j) for j in range(seed.d)]
    terms = [engine.node_term(j, parents[j]) for j in range(seed.d)]
    best, s_best = seed, s_seed
    steps: list[StepRecord] = []
    collected: list[Dag] = []
    collected_scores: list[ScoreValue] = []
    collect_from = config.n_steps - config.collect_k  # collect when step > this
    moves = None  # the current graph's feasible moves, once enumerated
    for t in range(1, config.n_steps + 1):
        if moves is None:
            moves = feasible_moves(current, cap)
        if not moves:
            steps.append(StepRecord(t, None, s_curr.total, s_curr.total, 0.0, False))
        else:
            move = moves[int(rng.integers(len(moves)))]
            moved = _moved_parents(move, parents)
            new_terms = list(terms)
            for node, node_parents in moved:
                new_terms[node] = engine.refit_term(node, node_parents)
            s_cand = engine.value_from_ad(
                engine.combine_terms(new_terms), s_curr.sparsity + _EDGE_DELTA[move.kind]
            )
            alpha = acceptance_probability(s_curr.total, s_cand.total, temperature)
            accepted = bool(rng.random() < alpha)
            steps.append(
                StepRecord(t, move, s_curr.total, s_cand.total, alpha, accepted)
            )
            if accepted:
                current, s_curr, terms = apply_move(current, move), s_cand, new_terms
                moves = None
                for node, node_parents in moved:
                    parents[node] = node_parents
                if s_curr.total > s_best.total:
                    best, s_best = current, s_curr
        if t > collect_from:
            collected.append(current)
            collected_scores.append(s_curr)

    return RefineTrace(
        seed_dag=seed,
        seed_score=s_seed,
        temperature=temperature,
        steps=steps,
        collected=collected,
        collected_scores=collected_scores,
        best_dag=best,
        best_score=s_best,
        final_dag=current,
        final_score=s_curr,
    )
