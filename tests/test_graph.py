import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from causalign.errors import MoveInfeasibleError, StructuralInputError
from causalign.graph import (
    Dag,
    EdgeMove,
    MoveKind,
    apply_move,
    feasible_moves,
    is_acyclic,
    random_er,
    random_sf,
    topological_order,
)

from conftest import chain_dag, dag_from_edges, dags, empty_dag, make_rng
from oracles import (
    all_binary_matrices,
    edit_bruteforce,
    feasible_moves_bruteforce,
    feasible_moves_capped_bruteforce,
    is_acyclic_bruteforce,
    topological_order_bruteforce,
)


class TestIsAcyclic:
    def test_chain_is_acyclic(self):
        adj = np.zeros((3, 3), dtype=np.int8)
        adj[0, 1] = adj[1, 2] = 1
        assert is_acyclic(adj)

    def test_two_cycle_is_cyclic(self):
        adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
        assert not is_acyclic(adj)

    def test_three_node_enumeration_counts_25_dags(self):
        count = sum(1 for adj in all_binary_matrices(3) if is_acyclic(adj))
        assert count == 25

    def test_agrees_with_bruteforce_on_all_3node_matrices(self):
        for adj in all_binary_matrices(3):
            assert is_acyclic(adj) == is_acyclic_bruteforce(adj)


class TestDagValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(StructuralInputError):
            Dag(np.zeros((2, 3), dtype=np.int8))

    def test_rejects_nonzero_diagonal(self):
        adj = np.zeros((3, 3), dtype=np.int8)
        adj[1, 1] = 1
        with pytest.raises(StructuralInputError):
            Dag(adj)

    def test_rejects_cycle(self):
        adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
        with pytest.raises(StructuralInputError):
            Dag(adj)

    def test_rejects_nonbinary_entries(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 0.5
        with pytest.raises(StructuralInputError):
            Dag(adj)

    def test_accessors(self):
        g = dag_from_edges(3, [(0, 1), (2, 1)])
        assert g.d == 3
        assert g.edge_count == 2
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.parents(1) == (0, 2)
        assert g.parents(0) == ()
        assert sorted(g.edges()) == [(0, 1), (2, 1)]
        assert list(g.in_degrees()) == [0, 2, 0]

    def test_equality_and_hash(self):
        a = chain_dag(3)
        b = chain_dag(3)
        assert a == b and hash(a) == hash(b)
        assert a != empty_dag(3)

    def test_adjacency_copy_is_immutable(self):
        g = chain_dag(3)
        with pytest.raises((ValueError, RuntimeError)):
            g.adjacency[0, 2] = 1

    def test_json_round_trip(self):
        g = dag_from_edges(4, [(0, 3), (1, 2)])
        assert Dag.from_json(g.to_json()) == g


class TestTopologicalOrder:
    def test_empty_graph_uses_index_tiebreak(self):
        assert topological_order(empty_dag(4)) == [0, 1, 2, 3]

    def test_forced_order(self):
        g = dag_from_edges(3, [(2, 0), (0, 1)])
        assert topological_order(g) == [2, 0, 1]

    def test_random_dag_satisfies_edges(self):
        rng = make_rng(11)
        for _ in range(20):
            g = random_er(8, 10.0, rng)
            order = topological_order(g)
            pos = {node: k for k, node in enumerate(order)}
            assert sorted(pos) == list(range(8))
            for i, j in g.edges():
                assert pos[i] < pos[j]

    def test_deterministic(self):
        g = random_er(8, 10.0, make_rng(3))
        assert topological_order(g) == topological_order(g)

    @settings(max_examples=150, deadline=None)
    @given(dags(max_d=6))
    def test_is_the_lexicographically_first_order(self, g):
        assert topological_order(g) == topological_order_bruteforce(g.adjacency)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: hnp.arrays(np.int8, (d, d), elements=st.integers(0, 1))))
    def test_one_kahn_pass_decides_acyclicity(self, adj):
        # is_acyclic and Dag validation share the pass topological_order
        # runs; on any matrix, cyclic or not, both agree with the oracle
        np.fill_diagonal(adj, 0)
        acyclic = topological_order_bruteforce(adj) is not None
        assert is_acyclic(adj) == acyclic
        if acyclic:
            assert topological_order(Dag(adj)) == topological_order_bruteforce(adj)
        else:
            with pytest.raises(StructuralInputError, match="encodes a cycle"):
                Dag(adj)


class TestFeasibleMoves:
    def test_two_node_empty(self):
        moves = feasible_moves(empty_dag(2))
        assert moves == [
            EdgeMove(MoveKind.ADD, 0, 1),
            EdgeMove(MoveKind.ADD, 1, 0),
        ]

    def test_two_node_single_edge(self):
        g = dag_from_edges(2, [(0, 1)])
        moves = feasible_moves(g)
        assert moves == [
            EdgeMove(MoveKind.DELETE, 0, 1),
            EdgeMove(MoveKind.REVERSE, 0, 1),
        ]

    def test_canonical_order(self):
        g = dag_from_edges(4, [(0, 1), (1, 2)])
        moves = feasible_moves(g)
        keys = [(m.kind.value, m.source, m.target) for m in moves]
        order = {"add": 0, "delete": 1, "reverse": 2}
        sort_key = [(order[k], s, t) for k, s, t in keys]
        assert sort_key == sorted(sort_key)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_enumeration(self, seed):
        g = random_er(4, 3.0, make_rng(seed))
        got = sorted((m.kind.value, m.source, m.target) for m in feasible_moves(g))
        assert got == feasible_moves_bruteforce(g)

    def test_every_move_keeps_acyclicity(self):
        rng = make_rng(5)
        for _ in range(20):
            g = random_er(5, 5.0, rng)
            for m in feasible_moves(g):
                assert is_acyclic(apply_move(g, m).adjacency)


class TestMoveAlgebraOracle:
    """feasible_moves, its capped form and apply_move against brute force,
    in the exact list order the search draws from."""

    @settings(max_examples=150, deadline=None)
    @given(dags())
    def test_feasible_moves_in_canonical_order(self, g):
        got = [(m.kind.value, m.source, m.target) for m in feasible_moves(g)]
        assert got == feasible_moves_bruteforce(g)

    @settings(max_examples=150, deadline=None)
    @given(dags(), st.sampled_from([None, 0, 1, 2, 6]))
    def test_capped_equals_filter_oracle(self, g, cap):
        got = [(m.kind.value, m.source, m.target) for m in feasible_moves(g, cap)]
        assert got == feasible_moves_capped_bruteforce(g, cap)

    @settings(max_examples=60, deadline=None)
    @given(dags())
    def test_apply_move_returns_read_only_validated_dag(self, g):
        for m in feasible_moves(g):
            out = apply_move(g, m)
            expected = Dag(edit_bruteforce(g.adjacency, m.kind.value, m.source, m.target))
            assert out == expected
            assert out.adjacency.dtype == np.int8
            assert not out.adjacency.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(dags(max_d=6))
    def test_apply_move_raises_exactly_when_the_edit_is_infeasible(self, g):
        # every (kind, i, j), in range or not: the move is infeasible iff
        # its precondition fails or the edited matrix has a cycle
        d = g.d
        for kind in MoveKind:
            for i in range(-1, d + 1):
                for j in range(-1, d + 1):
                    move = EdgeMove(kind, i, j)
                    in_range = 0 <= i < d and 0 <= j < d and i != j
                    if not in_range or bool(g.adjacency[i, j]) == (kind == MoveKind.ADD):
                        with pytest.raises(MoveInfeasibleError, match="invalid for d=|already present|not present"):
                            apply_move(g, move)
                        continue
                    edited = edit_bruteforce(g.adjacency, kind.value, i, j)
                    if not is_acyclic_bruteforce(edited):
                        with pytest.raises(MoveInfeasibleError, match=f"^{kind.value} {i}->{j} would create a cycle$"):
                            apply_move(g, move)
                        continue
                    assert np.array_equal(apply_move(g, move).adjacency, edited)

    @settings(max_examples=100, deadline=None)
    @given(dags(max_d=6))
    def test_parents_are_the_adjacency_columns(self, g):
        built = [Dag(g.adjacency), Dag._trusted(g.adjacency.copy())]
        built += [apply_move(g, m) for m in feasible_moves(g)]
        for dag in built:
            for j in range(dag.d):
                parents = dag.parents(j)
                assert parents == tuple(np.flatnonzero(dag.adjacency[:, j]))
                assert all(type(p) is int for p in parents)
                assert dag.parents(j) is parents  # derived once


class TestApplyMove:
    def test_reverse_in_chain(self):
        g = chain_dag(3)
        out = apply_move(g, EdgeMove(MoveKind.REVERSE, 1, 2))
        assert sorted(out.edges()) == [(0, 1), (2, 1)]

    def test_infeasible_add_raises(self):
        g = chain_dag(3)
        with pytest.raises(MoveInfeasibleError):
            apply_move(g, EdgeMove(MoveKind.ADD, 2, 0))

    def test_delete_missing_edge_raises(self):
        with pytest.raises(MoveInfeasibleError):
            apply_move(empty_dag(3), EdgeMove(MoveKind.DELETE, 0, 1))

    def test_input_unchanged_and_counts(self):
        g = chain_dag(3)
        before = g.adjacency.copy()
        added = apply_move(g, EdgeMove(MoveKind.ADD, 0, 2))
        assert added.edge_count == g.edge_count + 1
        removed = apply_move(g, EdgeMove(MoveKind.DELETE, 0, 1))
        assert removed.edge_count == g.edge_count - 1
        reversed_ = apply_move(g, EdgeMove(MoveKind.REVERSE, 1, 2))
        assert reversed_.edge_count == g.edge_count
        assert np.array_equal(g.adjacency, before)

    def test_move_json_round_trip(self):
        m = EdgeMove(MoveKind.REVERSE, 2, 5)
        assert EdgeMove.from_json(m.to_json()) == m


class TestRandomEr:
    def test_zero_expected_edges_gives_empty_graph(self):
        g = random_er(6, 0.0, make_rng(0))
        assert g.edge_count == 0

    def test_mean_edge_count_concentrates(self):
        rng = make_rng(123)
        counts = [random_er(10, 10.0, rng).edge_count for _ in range(1000)]
        assert abs(np.mean(counts) - 10.0) < 1.0

    def test_always_acyclic(self):
        rng = make_rng(9)
        for _ in range(50):
            g = random_er(7, 12.0, rng)
            assert is_acyclic(g.adjacency)

    def test_reproducible(self):
        a = random_er(8, 8.0, make_rng(42))
        b = random_er(8, 8.0, make_rng(42))
        assert a == b

    def test_probability_capped_at_one(self):
        g = random_er(4, 100.0, make_rng(1))
        assert g.edge_count == 6  # complete DAG on 4 nodes


class TestRandomSf:
    def test_two_nodes_single_edge(self):
        g = random_sf(2, 1, make_rng(0))
        assert g.edges() == [(0, 1)]

    @pytest.mark.parametrize("d,m", [(5, 1), (8, 2), (10, 3)])
    def test_edge_count_formula(self, d, m):
        g = random_sf(d, m, make_rng(2))
        assert g.edge_count == sum(min(m, t) for t in range(1, d))

    def test_heavy_tailed_degrees(self):
        hits = 0
        for seed in range(100):
            g = random_sf(200, 2, make_rng(seed))
            deg = g.adjacency.sum(axis=0) + g.adjacency.sum(axis=1)
            if deg.max() > 3 * np.median(deg):
                hits += 1
        assert hits >= 95

    def test_reproducible_and_acyclic(self):
        a = random_sf(30, 2, make_rng(7))
        b = random_sf(30, 2, make_rng(7))
        assert a == b
        assert is_acyclic(a.adjacency)
