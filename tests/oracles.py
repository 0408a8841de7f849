"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (brute
force enumeration, explicit threshold sweeps, finite differences) so a
bug in the package and a bug in the oracle are unlikely to coincide.
Nothing in this module imports from causalign except the Dag container.
"""

import itertools

import numpy as np

from causalign.graph import Dag


def all_binary_matrices(d):
    """Every d x d binary matrix with a zero diagonal."""
    cells = [(i, j) for i in range(d) for j in range(d) if i != j]
    for bits in itertools.product((0, 1), repeat=len(cells)):
        adj = np.zeros((d, d), dtype=np.int8)
        for (i, j), b in zip(cells, bits):
            adj[i, j] = b
        yield adj


def is_acyclic_bruteforce(adj):
    """Acyclicity via matrix powers: any nonzero trace of A^k means a cycle."""
    d = adj.shape[0]
    power = np.eye(d, dtype=np.int64)
    a = adj.astype(np.int64)
    for _ in range(d):
        power = power @ a
        if np.trace(power) != 0:
            return False
    return True


def all_dags(d):
    """All DAG adjacency matrices on d labeled nodes (25 for d = 3)."""
    return [a for a in all_binary_matrices(d) if is_acyclic_bruteforce(a)]


def feasible_moves_bruteforce(dag: Dag):
    """All one-edge edits that keep the graph a DAG, as (kind, i, j) tuples."""
    adj = dag.adjacency
    d = dag.d
    out = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if adj[i, j]:
                out.append(("delete", i, j))
                rev = adj.copy()
                rev[i, j] = 0
                rev[j, i] = 1
                if is_acyclic_bruteforce(rev):
                    out.append(("reverse", i, j))
            elif not adj[j, i]:
                add = adj.copy()
                add[i, j] = 1
                if is_acyclic_bruteforce(add):
                    out.append(("add", i, j))
    return sorted(out)


def offdiag_pairs(scores, truth_adj):
    """Flatten the off-diagonal cells to (score, label) arrays."""
    d = truth_adj.shape[0]
    y_score, y_true = [], []
    for i in range(d):
        for j in range(d):
            if i != j:
                y_score.append(float(scores[i, j]))
                y_true.append(int(truth_adj[i, j]))
    return np.array(y_score), np.array(y_true)


def _confusion_at(y_score, y_true, thr):
    pred = y_score >= thr
    tp = int(np.sum(pred & (y_true == 1)))
    fp = int(np.sum(pred & (y_true == 0)))
    fn = int(np.sum(~pred & (y_true == 1)))
    tn = int(np.sum(~pred & (y_true == 0)))
    return tp, fp, fn, tn


def _sweep_thresholds(y_score):
    """Thresholds that visit every achievable confusion matrix: one above
    the max plus one at each distinct score, descending."""
    uniq = np.unique(y_score)[::-1]
    return np.concatenate(([uniq[0] + 1.0], uniq))


def auroc_sweep(scores, truth_adj):
    """AUROC as the trapezoidal area under the empirical ROC curve.

    Sweeping thresholds through every distinct score traces the exact ROC
    polyline; ties move the curve diagonally, and the trapezoid rule over
    that segment reproduces the midrank convention.
    """
    y_score, y_true = offdiag_pairs(scores, truth_adj)
    n_pos = int(y_true.sum())
    n_neg = int(y_true.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("degenerate truth")
    pts = []
    for thr in _sweep_thresholds(y_score):
        tp, fp, _, _ = _confusion_at(y_score, y_true, thr)
        pts.append((fp / n_neg, tp / n_pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auprc_sweep(scores, truth_adj):
    """Average precision: step-interpolated sum of precision * recall gain,
    grouping tied scores into a single step."""
    y_score, y_true = offdiag_pairs(scores, truth_adj)
    n_pos = int(y_true.sum())
    if n_pos == 0 or n_pos == y_true.size:
        raise ValueError("degenerate truth")
    ap = 0.0
    prev_recall = 0.0
    for thr in _sweep_thresholds(y_score)[1:]:
        tp, fp, _, _ = _confusion_at(y_score, y_true, thr)
        recall = tp / n_pos
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def f1_acc_sweep(scores, truth_adj, threshold):
    y_score, y_true = offdiag_pairs(scores, truth_adj)
    tp, fp, fn, tn = _confusion_at(y_score, y_true, threshold)
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom > 0 else 0.0
    acc = (tp + tn) / y_true.size
    return f1, acc


def central_difference_gradient(fn, params, eps=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(params)
    for k in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[k] += eps
        dn[k] -= eps
        grad[k] = (fn(up) - fn(dn)) / (2.0 * eps)
    return grad


def exhaustive_best_total(dataset, score_config, d):
    """Max total score over every DAG on d nodes by direct rescoring."""
    from causalign.scoring import ScoreEngine

    engine = ScoreEngine(dataset, score_config)
    best = -np.inf
    for adj in all_dags(d):
        total = engine.score(Dag(adj)).total
        if total > best:
            best = total
    return best


def greedy_full_rescore(engine, start, max_rounds, cap):
    """Best-first ascent that rebuilds and fully rescores every candidate
    graph: each round takes the first candidate (in feasible_moves_bruteforce
    order) whose total strictly beats the best so far, skipping moves that
    push the gaining node's in-degree past `cap`."""
    current = start
    best = engine.score(current).total
    for _ in range(max_rounds):
        indeg = current.adjacency.sum(axis=0)
        pick = None
        for kind, i, j in feasible_moves_bruteforce(current):
            gaining = {"add": j, "reverse": i}.get(kind)
            if cap is not None and gaining is not None and indeg[gaining] + 1 > cap:
                continue
            adj = current.adjacency.copy()
            adj[i, j] = 1 if kind == "add" else 0
            if kind == "reverse":
                adj[j, i] = 1
            cand = Dag(adj)
            total = engine.score(cand).total
            if total > best:
                best, pick = total, cand
        if pick is None:
            break
        current = pick
    return current
