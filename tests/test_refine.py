"""Tests for stochastic refinement: acceptance rules, trace integrity,
seed initialization, and the greedy ascent."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalign.errors import ConfigError, DegreeCapError, StructuralInputError
from causalign.graph import Dag, MoveKind, apply_move, feasible_moves, random_er
from causalign.io import save_graph
from causalign.model import knn_score_predict
from causalign.refine import (
    RefineConfig,
    SeedMode,
    StepRecord,
    _moved_parents,
    acceptance_probability,
    greedy_hill_climb,
    init_seed,
    refine,
)
from causalign.scm import Dataset, sample_scm
from causalign.scoring import ScoreConfig, ScoreEngine
from causalign.sim import RegressorConfig

from conftest import dag_from_edges, dags, empty_dag, linear_dataset, make_rng, noise_dataset
from oracles import greedy_full_rescore, knn_rescore_predict


def _linear_instance(seed, d=5, n=120, expected_edges=5.0):
    scm, rng = sample_scm(
        "er", "linear", "gaussian", d=d, expected_edges=expected_edges,
        rng=make_rng(seed),
    ), make_rng(seed + 1000)
    from causalign.scm import forward_sample

    return forward_sample(scm, n, rng), scm.dag


class TestAcceptanceProbability:
    def test_metropolis_improvement_is_certain(self):
        assert acceptance_probability(-3.0, -1.0) == 1.0
        assert acceptance_probability(2.0, 2.0) == 1.0

    def test_metropolis_decline_is_exponential(self):
        alpha = acceptance_probability(0.0, -1.0, temperature=2.0)
        assert alpha == pytest.approx(math.exp(-0.5), abs=0.0)
        alpha = acceptance_probability(-1.0, -4.0, temperature=1.5)
        assert alpha == pytest.approx(math.exp(-2.0), abs=0.0)

    def test_metropolis_extreme_decline_underflows_to_zero(self):
        assert acceptance_probability(0.0, -1e6, temperature=1e-6) == 0.0

    def test_metropolis_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            acceptance_probability(0.0, -1.0, temperature=0.0)


class TestFeasibleMovesCapped:
    def test_none_cap_is_identity(self):
        dag = dag_from_edges(4, [(0, 2), (1, 2)])
        assert feasible_moves(dag, None) == feasible_moves(dag)

    def test_add_blocked_at_cap(self):
        dag = dag_from_edges(4, [(0, 2), (1, 2)])
        moves = feasible_moves(dag, 2)
        for m in moves:
            if m.kind == MoveKind.ADD:
                assert m.target != 2
        # the uncapped set does contain adds into node 2
        assert any(
            m.kind == MoveKind.ADD and m.target == 2 for m in feasible_moves(dag)
        )

    def test_reverse_blocked_when_source_would_exceed_cap(self):
        # reversing u->v re-parents u; with cap 0 nothing may gain a parent
        dag = dag_from_edges(3, [(0, 1)])
        moves = feasible_moves(dag, 0)
        assert [m.kind for m in moves] == [MoveKind.DELETE]

    def test_capped_results_respect_cap_after_application(self):
        rng = make_rng(3)
        for _ in range(10):
            dag = random_er(6, 8.0, rng)
            for m in feasible_moves(dag, 2):
                nxt = apply_move(dag, m)
                assert int(nxt.in_degrees().max()) <= max(
                    2, int(dag.in_degrees().max())
                )


class TestMovedParents:
    """_moved_parents is the one place a move's new parent sets are
    derived: greedy_hill_climb and refine score a candidate from it."""

    @settings(max_examples=150, deadline=None)
    @given(dags(max_d=6), st.sampled_from([None, 1, 2]))
    def test_names_exactly_the_changed_nodes_and_their_parents(self, g, cap):
        parents = [g.parents(j) for j in range(g.d)]
        for move in feasible_moves(g, cap):
            moved = apply_move(g, move)
            changed = {j for j in range(g.d) if moved.parents(j) != parents[j]}
            got = _moved_parents(move, parents)
            assert sorted(node for node, _ in got) == sorted(changed)
            assert all(node_parents == moved.parents(node) for node, node_parents in got)

    def test_refine_refits_what_it_names(self, monkeypatch):
        data, _ = _linear_instance(4)
        config = RefineConfig(n_steps=120, collect_k=10)
        engine = ScoreEngine(data, config.score)
        seed_dag = init_seed(engine, SeedMode.RANDOM_DAG, make_rng(5))
        refits = []
        real = engine.refit_term

        def refit_term(node, parents):
            refits.append((node, parents))
            return real(node, parents)

        monkeypatch.setattr(engine, "refit_term", refit_term)
        trace = refine(engine, seed_dag, config, make_rng(6))
        expected, current = [], seed_dag
        for rec in trace.steps:
            expected += _moved_parents(rec.move, [current.parents(j) for j in range(current.d)])
            if rec.accepted:
                current = apply_move(current, rec.move)
        assert refits == expected


class TestRefineTrace:
    def _run(self, seed=0, n_steps=150, **cfg_kwargs):
        data, _ = _linear_instance(seed)
        config = RefineConfig(n_steps=n_steps, collect_k=40, **cfg_kwargs)
        rng = make_rng(seed + 7)
        engine = ScoreEngine(data, config.score)
        seed_dag = init_seed(engine, SeedMode.RANDOM_DAG, rng)
        trace = refine(engine, seed_dag, config, rng)
        return data, config, trace

    def test_replay_matches_recorded_scores_exactly(self):
        data, config, trace = self._run(seed=1)
        fresh = ScoreEngine(data, config.score)
        cap = fresh.config.regressor.max_in_degree
        current = trace.seed_dag
        assert fresh.score(current).total == trace.seed_score.total
        post_decision = []
        for rec in trace.steps:
            assert rec.s_curr == fresh.score(current).total
            assert rec.move is not None
            assert rec.move in feasible_moves(current, cap)
            cand = apply_move(current, rec.move)
            assert rec.s_cand == fresh.score(cand).total
            if rec.accepted:
                current = cand
            post_decision.append(current)
        assert current == trace.final_dag
        assert trace.final_score.total == fresh.score(current).total
        assert trace.collected == post_decision[-config.collect_k:]

    def test_recorded_alpha_matches_formula(self):
        _, _, trace = self._run(seed=2)
        for rec in trace.steps:
            expect = acceptance_probability(rec.s_curr, rec.s_cand, trace.temperature)
            assert rec.alpha == expect

    def test_best_is_max_over_visited(self):
        _, _, trace = self._run(seed=3)
        visited = [trace.seed_score.total]
        for rec in trace.steps:
            if rec.accepted:
                visited.append(rec.s_cand)
        best_score = trace.best_score
        assert best_score.total == max(visited)
        assert best_score.total >= trace.seed_score.total
        assert best_score.total >= trace.final_score.total

    def test_collected_graphs_are_acyclic_and_sized(self):
        _, config, trace = self._run(seed=4)
        assert len(trace.collected) == config.collect_k
        for g in trace.collected:
            assert isinstance(g, Dag)

    def test_collect_truncates_to_n_steps(self):
        data, _ = _linear_instance(5)
        config = RefineConfig(n_steps=10, collect_k=200)
        trace = refine(ScoreEngine(data), empty_dag(data.d), config, make_rng(0))
        assert len(trace.collected) == 10

    def test_zero_steps_returns_seed_everywhere(self):
        data, _ = _linear_instance(6)
        config = RefineConfig(n_steps=0, collect_k=5)
        seed_dag = empty_dag(data.d)
        trace = refine(ScoreEngine(data), seed_dag, config, make_rng(0))
        assert trace.steps == []
        assert trace.collected == []
        assert trace.best_dag == seed_dag
        assert trace.final_dag == seed_dag
        assert trace.final_score.total == trace.seed_score.total

    def test_default_temperature_rule(self):
        data, _, trace = self._run(seed=8)
        expect = max(0.01 * abs(trace.seed_score.total), 1e-6)
        assert trace.temperature == expect

    def test_explicit_temperature_is_used(self):
        _, _, trace = self._run(seed=9, temperature=0.125)
        assert trace.temperature == 0.125

    def test_bit_exact_reproducibility(self):
        data, _ = _linear_instance(10)
        config = RefineConfig(n_steps=80, collect_k=20)
        seed_dag = init_seed(ScoreEngine(data), SeedMode.RANDOM_DAG, make_rng(2))
        a = refine(ScoreEngine(data), seed_dag, config, make_rng(3))
        b = refine(ScoreEngine(data), seed_dag, config, make_rng(3))
        assert a.steps == b.steps
        assert a.final_dag == b.final_dag
        assert [g for g in a.collected] == [g for g in b.collected]
        assert a.best_score.total == b.best_score.total

    def test_near_zero_temperature_is_monotone(self):
        data, _ = _linear_instance(11)
        config = RefineConfig(n_steps=120, collect_k=10, temperature=1e-12)
        trace = refine(ScoreEngine(data), empty_dag(data.d), config, make_rng(4))
        totals = [trace.seed_score.total]
        for rec in trace.steps:
            if rec.accepted:
                totals.append(rec.s_cand)
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_single_node_dataset_has_no_moves(self):
        data = Dataset(make_rng(0).normal(size=(40, 1)))
        trace = refine(ScoreEngine(data), empty_dag(1), RefineConfig(n_steps=3, collect_k=2), make_rng(1))
        assert all(rec.move is None and not rec.accepted for rec in trace.steps)
        assert all(rec.alpha == 0.0 for rec in trace.steps)
        assert len(trace.collected) == 2

    def test_in_degree_cap_respected_along_chain(self):
        data, _ = _linear_instance(13, d=6, n=100, expected_edges=9.0)
        cfg = RefineConfig(
            n_steps=200,
            collect_k=200,
            score=ScoreConfig(regressor=RegressorConfig(max_in_degree=2)),
        )
        trace = refine(ScoreEngine(data, cfg.score), empty_dag(data.d), cfg, make_rng(5))
        for g in trace.collected:
            assert int(g.in_degrees().max()) <= 2

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(2, 5),
        n_steps=st.integers(1, 60),
        collect_k=st.integers(1, 60),
        seed_mode=st.sampled_from([SeedMode.RANDOM_DAG, SeedMode.GREEDY]),
        cap=st.sampled_from([None, 1, 6]),
    )
    def test_collected_scores_equal_a_fresh_rescore(self, seed, d, n_steps, collect_k, seed_mode, cap):
        data, _ = _linear_instance(seed, d=d, n=80, expected_edges=float(d))
        config = RefineConfig(
            n_steps=n_steps,
            collect_k=collect_k,
            score=ScoreConfig(regressor=RegressorConfig(max_in_degree=cap)),
        )
        engine = ScoreEngine(data, config.score)
        seed_dag = init_seed(engine, seed_mode, make_rng(seed))
        trace = refine(engine, seed_dag, config, make_rng(seed + 1))
        fresh = ScoreEngine(data, config.score)
        assert len(trace.collected_scores) == len(trace.collected) == min(collect_k, n_steps)
        for g, stored in zip(trace.collected, trace.collected_scores):
            assert stored == fresh.score(g)  # every field, bit for bit
        totals = [s.total for s in trace.collected_scores]
        assert knn_score_predict(trace.collected, totals) is knn_rescore_predict(trace.collected, fresh)


class TestAcceptanceFrequency:
    def test_empirical_rates_match_alpha(self):
        """Group repeated (s_curr, s_cand) proposals from a long 2-variable
        run and check observed acceptance against alpha binomially."""
        rng = make_rng(21)
        data = Dataset(
            np.column_stack([rng.normal(size=400), rng.normal(size=400)])
        )
        config = RefineConfig(
            n_steps=12000,
            collect_k=1,
            temperature=0.5,
            score=ScoreConfig(sparsity_weight=0.5),
        )
        trace = refine(ScoreEngine(data, config.score), empty_dag(2), config, make_rng(22))
        groups = {}
        for rec in trace.steps:
            key = (rec.s_curr, rec.s_cand, rec.move.to_json()["kind"])
            hits, total, alpha = groups.get(key, (0, 0, rec.alpha))
            groups[key] = (hits + int(rec.accepted), total + 1, alpha)
        checked = 0
        for hits, total, alpha in groups.values():
            if total < 300 or not (0.05 < alpha < 0.95):
                continue
            sigma = math.sqrt(alpha * (1.0 - alpha) / total)
            assert abs(hits / total - alpha) <= 3.0 * sigma
            checked += 1
        assert checked >= 1


class TestInitSeed:
    def test_random_dag_deterministic(self):
        data, _ = _linear_instance(30)
        a = init_seed(ScoreEngine(data), SeedMode.RANDOM_DAG, make_rng(1))
        b = init_seed(ScoreEngine(data), "random_dag", make_rng(1))
        assert a == b
        assert a.d == data.d

    def test_random_dag_within_cap_is_the_drawn_graph(self):
        data = noise_dataset(0, d=8, n=40)
        assert init_seed(ScoreEngine(data), SeedMode.RANDOM_DAG, make_rng(4)) == random_er(8, 8.0, make_rng(4))

    def test_random_dag_trims_parents_over_cap(self):
        # a cap of 1 trims the default-density draw, which has nodes of in-degree 2 and more
        data = noise_dataset(0, d=8, n=40)
        engine = ScoreEngine(data, ScoreConfig(regressor=RegressorConfig(max_in_degree=1)))
        drawn = random_er(8, 8.0, make_rng(3))
        assert drawn.in_degrees().max() > 1
        seeds = [init_seed(engine, SeedMode.RANDOM_DAG, make_rng(3)) for _ in range(2)]
        assert seeds[0] == seeds[1]
        trimmed = seeds[0]
        assert np.array_equal(trimmed.in_degrees(), np.minimum(drawn.in_degrees(), 1))
        assert np.all(trimmed.adjacency <= drawn.adjacency)

    def test_from_file_round_trip(self, tmp_path):
        data, _ = _linear_instance(31)
        dag = dag_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        path = str(tmp_path / "seed.csv")
        save_graph(dag, path)
        loaded = init_seed(ScoreEngine(data), SeedMode.FROM_FILE, make_rng(0), seed_graph_path=path)
        assert loaded == dag

    def test_from_file_dimension_mismatch(self, tmp_path):
        data, _ = _linear_instance(32)  # d=5
        path = str(tmp_path / "seed.csv")
        save_graph(dag_from_edges(3, [(0, 1)]), path)
        with pytest.raises(ConfigError):
            init_seed(ScoreEngine(data), SeedMode.FROM_FILE, make_rng(0), seed_graph_path=path)

    def test_from_file_rejects_a_seed_over_the_cap(self, tmp_path):
        data, _ = _linear_instance(33)  # d=5
        path = str(tmp_path / "seed.csv")
        save_graph(dag_from_edges(5, [(0, 4), (1, 4), (2, 4)]), path)
        engine = ScoreEngine(data, ScoreConfig(regressor=RegressorConfig(max_in_degree=2)))
        with pytest.raises(DegreeCapError, match=re.escape(f"seed graph {path}: node 4 has in-degree 3 > cap 2")):
            init_seed(engine, SeedMode.FROM_FILE, make_rng(0), seed_graph_path=path)

    def test_from_file_requires_path(self):
        data, _ = _linear_instance(33)
        with pytest.raises(ConfigError):
            init_seed(ScoreEngine(data), SeedMode.FROM_FILE, make_rng(0))

    def test_from_file_rejects_cyclic_adjacency(self, tmp_path):
        data, _ = _linear_instance(34)
        path = tmp_path / "cyclic.csv"
        rows = np.zeros((5, 5), dtype=int)
        rows[0, 1] = rows[1, 0] = 1
        path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        with pytest.raises(StructuralInputError):
            init_seed(ScoreEngine(data), SeedMode.FROM_FILE, make_rng(0), seed_graph_path=str(path))

    def test_greedy_mode_matches_direct_call(self):
        data, _ = _linear_instance(35)
        via_init = init_seed(ScoreEngine(data), SeedMode.GREEDY, make_rng(0))
        direct = greedy_hill_climb(ScoreEngine(data))
        assert via_init == direct

    def test_greedy_seed_scores_at_least_random(self):
        engine_cache = {}
        wins = 0
        for seed in range(10):
            data, _ = _linear_instance(200 + seed, d=10, n=200, expected_edges=10.0)
            engine = ScoreEngine(data)
            greedy = greedy_hill_climb(engine)
            random_seed = init_seed(engine, SeedMode.RANDOM_DAG, make_rng(seed))
            if engine.score(greedy).total >= engine.score(random_seed).total:
                wins += 1
        assert wins == 10


class TestGreedyHillClimb:
    def test_pure_noise_with_heavy_penalty_stays_empty(self):
        data = noise_dataset(40, d=4, n=300)
        result = greedy_hill_climb(ScoreEngine(data, ScoreConfig(sparsity_weight=5.0)))
        assert result.edge_count == 0

    def test_strong_pair_yields_single_connecting_edge(self):
        rng = make_rng(41)
        x0 = rng.normal(size=500)
        x1 = 2.0 * x0 + 0.05 * rng.normal(size=500)
        data = Dataset(np.column_stack([x0, x1]))
        result = greedy_hill_climb(ScoreEngine(data))
        assert result.edge_count == 1
        assert result.has_edge(0, 1) or result.has_edge(1, 0)

    def test_result_is_local_optimum(self):
        data, _ = _linear_instance(42, d=6, n=150, expected_edges=6.0)
        engine = ScoreEngine(data)
        result = greedy_hill_climb(engine)
        base = engine.score(result).total
        cap = engine.config.regressor.max_in_degree
        for move in feasible_moves(result, cap):
            assert engine.score(apply_move(result, move)).total <= base

    def test_restart_from_optimum_is_fixed_point(self):
        data, _ = _linear_instance(43)
        engine = ScoreEngine(data)
        result = greedy_hill_climb(engine)
        again = greedy_hill_climb(engine, start=result)
        assert again == result

    def test_zero_rounds_returns_start(self):
        data, _ = _linear_instance(44)
        result = greedy_hill_climb(ScoreEngine(data), max_rounds=0)
        assert result.edge_count == 0

    def test_recovers_true_chain_on_easy_data(self):
        data = linear_dataset(45, d=3, n=2000, weight=1.5, noise=0.5)
        # moderate penalty: large enough to kill finite-sample phantom
        # edges, far below the gain of a true edge
        result = greedy_hill_climb(ScoreEngine(data, ScoreConfig(sparsity_weight=0.05)))
        truth = dag_from_edges(3, [(0, 1), (1, 2)])
        # skeleton match: greedy on linear-gaussian data may orient freely
        assert np.array_equal(
            result.adjacency + result.adjacency.T,
            truth.adjacency + truth.adjacency.T,
        )


class TestGreedyAgainstFullRescore:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        sparsity_weight=st.sampled_from([None, 0.0, 0.01, 0.1]),
        cap=st.sampled_from([None, 1, 2, 6]),
        duplicate=st.booleans(),
        max_rounds=st.sampled_from([0, 1, 2, 64]),
        from_random_start=st.booleans(),
    )
    def test_same_graph_and_cache_keys_as_oracle(
        self, d, seed, sparsity_weight, cap, duplicate, max_rounds, from_random_start
    ):
        gen = make_rng(seed)
        values = gen.normal(size=(40, d))
        for j in range(1, d):
            values[:, j] += gen.uniform(-1.5, 1.5) * values[:, j - 1]
        if duplicate:  # identical columns make mirrored moves tie exactly
            values[:, d - 1] = values[:, 0]
        data = Dataset(values)
        config = ScoreConfig(
            sparsity_weight=sparsity_weight,
            regressor=RegressorConfig(basis_size=3, max_in_degree=cap),
        )
        engine, oracle_engine = ScoreEngine(data, config), ScoreEngine(data, config)
        start = None
        if from_random_start:  # a random draw scores nothing, so the cache stays empty
            start = init_seed(engine, "random_dag", make_rng(seed + 1))
        result = greedy_hill_climb(engine, max_rounds=max_rounds, start=start)
        expected = greedy_full_rescore(
            oracle_engine, start if start is not None else empty_dag(d), max_rounds, cap
        )
        assert result == expected
        assert set(engine._cache) == set(oracle_engine._cache)


class TestRefineConfig:
    def test_rejects_negative_steps(self):
        with pytest.raises(ConfigError):
            RefineConfig(n_steps=-1)

    def test_rejects_zero_collect(self):
        with pytest.raises(ConfigError):
            RefineConfig(collect_k=0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            RefineConfig(temperature=0.0)

    def test_from_file_requires_path(self):
        with pytest.raises(ConfigError):
            RefineConfig(seed_mode=SeedMode.FROM_FILE)

    def test_string_enums_coerce(self):
        cfg = RefineConfig(seed_mode="greedy_hill_climb")
        assert cfg.seed_mode is SeedMode.GREEDY


class TestStepRecord:
    def test_json_shape(self):
        rec = StepRecord(
            step=3,
            move=None,
            s_curr=1.0,
            s_cand=1.0,
            alpha=0.0,
            accepted=False,
        )
        js = rec.to_json()
        assert set(js) == {"step", "move", "s_curr", "s_cand", "alpha", "accepted"}
        assert js["move"] is None
