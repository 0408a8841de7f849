"""Directed acyclic graphs over integer-labelled nodes, plus the edge-move
algebra used by the stochastic search.

Graphs are stored as dense 0/1 adjacency matrices with adjacency[i, j] == 1
meaning an edge i -> j. Node count stays small (tens of nodes), so dense
numpy arrays beat any sparse structure here.
"""

from __future__ import annotations

import enum
import functools
import heapq
import json
from dataclasses import dataclass

import numpy as np

from .errors import MoveInfeasibleError, StructuralInputError

__all__ = [
    "Dag",
    "MoveKind",
    "EdgeMove",
    "is_acyclic",
    "topological_order",
    "feasible_moves",
    "apply_move",
    "random_er",
    "random_sf",
]


class MoveKind(str, enum.Enum):
    ADD = "add"
    DELETE = "delete"
    REVERSE = "reverse"


# canonical enumeration order for feasible_moves
_KIND_ORDER = (MoveKind.ADD, MoveKind.DELETE, MoveKind.REVERSE)


@dataclass(frozen=True)
class EdgeMove:
    """A single edit: add, delete, or reverse the edge source -> target."""

    kind: MoveKind
    source: int
    target: int

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "source": self.source, "target": self.target}

    @staticmethod
    def from_json(obj: dict) -> "EdgeMove":
        return EdgeMove(MoveKind(obj["kind"]), int(obj["source"]), int(obj["target"]))


def _check_square_zero_diag(adjacency: np.ndarray) -> np.ndarray:
    arr = np.asarray(adjacency)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralInputError(f"adjacency must be square, got shape {arr.shape}")
    if arr.shape[0] > 0 and np.any(np.diagonal(arr) != 0):
        raise StructuralInputError("adjacency has nonzero diagonal entries")
    return arr


class Dag:
    """Immutable directed acyclic graph.

    Parameters
    ----------
    adjacency : array-like, shape (d, d)
        Binary matrix; entry (i, j) == 1 encodes the edge i -> j.

    Raises
    ------
    StructuralInputError
        If the matrix is not square, has nonzero diagonal, non-binary
        entries, or encodes a cycle.
    """

    __slots__ = ("adjacency", "_parents")

    def __init__(self, adjacency) -> None:
        arr = _check_square_zero_diag(adjacency)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise StructuralInputError("adjacency entries must be 0 or 1")
        arr = arr.astype(np.int8, copy=True)
        if len(_kahn_order(arr)) < arr.shape[0]:
            raise StructuralInputError("adjacency encodes a cycle")
        self._own(arr)

    @classmethod
    def _trusted(cls, adjacency: np.ndarray) -> "Dag":
        """Wrap an int8 0/1 adjacency the caller has already checked to be
        acyclic, skipping the validation __init__ would repeat. Takes
        ownership of the array and makes it read-only."""
        dag = object.__new__(cls)
        dag._own(adjacency)
        return dag

    def _own(self, adjacency: np.ndarray) -> None:
        adjacency.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        # each node's parent tuple, derived on first request
        object.__setattr__(self, "_parents", [None] * adjacency.shape[0])

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Dag is immutable")

    @property
    def d(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum())

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])

    def parents(self, j: int) -> tuple[int, ...]:
        """Node j's parents in ascending order. The graph never changes,
        so each tuple is derived once and then reused."""
        found = self._parents[j]
        if found is None:
            found = self._parents[j] = tuple(np.flatnonzero(self.adjacency[:, j]).tolist())
        return found

    def edges(self) -> list[tuple[int, int]]:
        src, dst = np.nonzero(self.adjacency)
        return list(zip(src.tolist(), dst.tolist()))

    def in_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=0).astype(int)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.d, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return f"Dag(d={self.d}, edges={self.edges()})"

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "edges": [[i, j] for i, j in self.edges()]})

    @staticmethod
    def from_json(text: str) -> "Dag":
        obj = json.loads(text)
        d = int(obj["d"])
        adj = np.zeros((d, d), dtype=np.int8)
        for edge in obj["edges"]:
            i, j = int(edge[0]), int(edge[1])
            if not (0 <= i < d and 0 <= j < d):
                raise StructuralInputError(f"edge ({i}, {j}) out of range for d={d}")
            adj[i, j] = 1
        return Dag(adj)


def _kahn_order(adj: np.ndarray) -> list[int]:
    """Kahn's algorithm with the lowest-index ready node taken first, so
    the order is a deterministic function of the graph. Any nonzero entry
    counts as an edge; the order is shorter than d iff the graph has a
    cycle."""
    # plain lists: the per-node loop stays in Python, so index the edges
    # once instead of once per peeled node
    edges = adj != 0
    indeg = edges.sum(axis=0).tolist()
    children: list[list[int]] = [[] for _ in indeg]
    for src, dst in zip(*(idx.tolist() for idx in np.nonzero(edges))):
        children[src].append(dst)
    ready = [i for i, k in enumerate(indeg) if k == 0]  # ascending: a heap
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(ready, child)
    return order


def is_acyclic(adjacency) -> bool:
    """True iff the binary matrix encodes a DAG.

    Raises StructuralInputError for non-square input or a nonzero diagonal;
    any nonzero entry counts as an edge.
    """
    arr = np.asarray(_check_square_zero_diag(adjacency))
    return len(_kahn_order(arr)) == arr.shape[0]


def topological_order(dag: Dag) -> list[int]:
    """Kahn's algorithm with the lowest-index ready node chosen first.

    The tie-break makes the order a deterministic function of the graph,
    which downstream sampling relies on.
    """
    order = _kahn_order(dag.adjacency)
    if len(order) != dag.d:
        # unreachable for a validated Dag; defensive
        raise StructuralInputError("graph contains a cycle")
    return order


def _transitive_closure(adj: np.ndarray) -> np.ndarray:
    """Boolean reachability matrix: entry (i, j) True iff a directed path
    i -> ... -> j with at least one edge exists."""
    reach = adj.astype(bool)
    d = adj.shape[0]
    # repeated boolean squaring of (I + A) converges in ceil(log2 d) rounds
    frontier = reach.copy()
    while True:
        step = frontier @ reach
        new = reach | step
        if (new == reach).all():
            return reach
        reach = new
        frontier = step


@functools.lru_cache(maxsize=16)
def _move_grid(d: int) -> np.ndarray:
    """EdgeMove objects for every (kind, source, target), shape (3, d, d),
    kinds in canonical order. Moves are immutable, so every enumeration on
    d nodes shares them."""
    grid = np.empty((len(_KIND_ORDER), d, d), dtype=object)
    for k, kind in enumerate(_KIND_ORDER):
        for i in range(d):
            for j in range(d):
                grid[k, i, j] = EdgeMove(kind, i, j)
    grid.flags.writeable = False
    return grid


def feasible_moves(dag: Dag, max_in_degree: int | None = None) -> list[EdgeMove]:
    """All single-edge edits that keep the graph a DAG.

    Returned in canonical order: adds, then deletes, then reverses, each
    sorted by (source, target). With R the reachability of paths of one or
    more edges, adding i -> j is feasible iff the edge is absent and
    R[j, i] is not set; deleting any present edge is feasible; reversing
    i -> j is feasible iff no child of i other than j reaches j, i.e.
    (A @ R)[i, j] == 0 (in a DAG j never reaches itself). With
    max_in_degree set, moves that would push the gaining node (the target
    of an add, the source of a reversal) past it are left out.
    """
    adj = dag.adjacency != 0
    reach = _transitive_closure(adj)
    add = ~(adj | reach.T)
    np.fill_diagonal(add, False)
    reverse = adj & ~(adj @ reach)
    if max_in_degree is not None:
        open_ = adj.sum(axis=0) < max_in_degree  # nodes that may gain a parent
        add &= open_[None, :]
        reverse &= open_[:, None]
    grid = _move_grid(dag.d)
    return np.concatenate((grid[0][add], grid[1][adj], grid[2][reverse])).tolist()


def _reaches(adj: np.ndarray, src: int, dst: int) -> bool:
    """True iff a directed path of one or more edges leads from src to
    dst."""
    seen = {src}
    stack = [src]
    while stack:
        for child in np.flatnonzero(adj[stack.pop()]).tolist():
            if child == dst:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def apply_move(dag: Dag, move: EdgeMove) -> Dag:
    """Return a new Dag with the move applied.

    Raises MoveInfeasibleError naming the violated condition (edge already
    present / absent, node out of range, cycle created). The graph is
    acyclic, so only the cycle the move can close is checked: a delete
    closes none, adding i -> j closes one iff j reaches i, and reversing
    i -> j closes one iff i still reaches j without that edge.
    """
    d = dag.d
    i, j = move.source, move.target
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise MoveInfeasibleError(f"move endpoints ({i}, {j}) invalid for d={d}")
    adj = dag.adjacency.copy()
    if move.kind == MoveKind.ADD:
        if adj[i, j]:
            raise MoveInfeasibleError(f"edge {i}->{j} already present")
        closes_cycle = _reaches(adj, j, i)
        adj[i, j] = 1
    elif move.kind == MoveKind.DELETE:
        if not adj[i, j]:
            raise MoveInfeasibleError(f"edge {i}->{j} not present")
        closes_cycle = False
        adj[i, j] = 0
    elif move.kind == MoveKind.REVERSE:
        if not adj[i, j]:
            raise MoveInfeasibleError(f"edge {i}->{j} not present")
        adj[i, j] = 0
        closes_cycle = _reaches(adj, i, j)
        adj[j, i] = 1
    else:  # pragma: no cover
        raise MoveInfeasibleError(f"unknown move kind {move.kind!r}")
    if closes_cycle:
        raise MoveInfeasibleError(
            f"{move.kind.value} {i}->{j} would create a cycle"
        )
    return Dag._trusted(adj)


def random_er(d: int, expected_edges: float, rng: np.random.Generator) -> Dag:
    """Erdos-Renyi style DAG: draw a uniform node order, then include each
    forward-oriented pair independently with p = expected_edges / C(d, 2),
    capped at 1.

    Orientation follows the drawn order, so the result is acyclic by
    construction and the expected edge count matches the argument (up to
    the cap).
    """
    if d < 1:
        raise StructuralInputError(f"d must be >= 1, got {d}")
    if expected_edges < 0:
        raise StructuralInputError("expected_edges must be >= 0")
    adj = np.zeros((d, d), dtype=np.int8)
    if d >= 2:
        n_pairs = d * (d - 1) // 2
        p = min(1.0, expected_edges / n_pairs)
        perm = rng.permutation(d)
        for a in range(d):
            for b in range(a + 1, d):
                if rng.random() < p:
                    adj[perm[a], perm[b]] = 1
    return Dag(adj)


def random_sf(d: int, attach_m: int, rng: np.random.Generator) -> Dag:
    """Scale-free style DAG via preferential attachment.

    Nodes arrive in index order; node t attaches min(attach_m, t) edges
    from distinct earlier nodes, chosen with probability proportional to
    (current total degree + 1). Edges point old -> new, so acyclicity is
    structural.
    """
    if d < 1:
        raise StructuralInputError(f"d must be >= 1, got {d}")
    if attach_m < 1:
        raise StructuralInputError("attach_m must be >= 1")
    adj = np.zeros((d, d), dtype=np.int8)
    degree = np.zeros(d, dtype=np.int64)
    for t in range(1, d):
        k = min(attach_m, t)
        candidates = list(range(t))
        chosen: list[int] = []
        for _ in range(k):
            weights = np.array([degree[c] + 1 for c in candidates], dtype=float)
            probs = weights / weights.sum()
            idx = int(rng.choice(len(candidates), p=probs))
            chosen.append(candidates.pop(idx))
        for src in chosen:
            adj[src, t] = 1
            degree[src] += 1
            degree[t] += 1
    return Dag(adj)
