"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (brute
force enumeration, explicit threshold sweeps, finite differences, one
node or one pair at a time) so a bug in the package and a bug in the
oracle are unlikely to coincide. Besides the Dag container, an oracle
only calls package functions that have tests of their own (the score
engine, fit_node, predict_node, topological_order, featurize_all and
EdgePredictor.initialize).
"""

import itertools
import math

import numpy as np

from causalign.graph import Dag, topological_order
from causalign.model import EdgePredictor, featurize_all
from causalign.sim import FittedScm, fit_node, predict_node


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


def topological_order_bruteforce(adj):
    """The lexicographically first ordering of the nodes that puts every
    edge's source before its target, which is the order of Kahn's
    algorithm taking the lowest-index ready node first: the permutations
    are tried in lexicographic order. None when there is none (a
    cycle)."""
    edges = list(zip(*np.nonzero(adj)))
    for perm in itertools.permutations(range(adj.shape[0])):
        pos = {node: k for k, node in enumerate(perm)}
        if all(pos[i] < pos[j] for i, j in edges):
            return list(perm)
    return None


def all_dags(d):
    """All DAG adjacency matrices on d labeled nodes (25 for d = 3)."""
    return [a for a in all_binary_matrices(d) if is_acyclic_bruteforce(a)]


def edit_bruteforce(adj, kind, i, j):
    """A copy of adj with the edge i -> j added, deleted or reversed."""
    out = adj.copy()
    out[i, j] = 1 if kind == "add" else 0
    if kind == "reverse":
        out[j, i] = 1
    return out


def feasible_moves_bruteforce(dag: Dag):
    """All one-edge edits that keep the graph a DAG, as (kind, i, j) tuples
    sorted by (kind, i, j); "add" < "delete" < "reverse", so this is the
    package's canonical move order."""
    adj = dag.adjacency
    d = dag.d
    out = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if adj[i, j]:
                out.append(("delete", i, j))
                if is_acyclic_bruteforce(edit_bruteforce(adj, "reverse", i, j)):
                    out.append(("reverse", i, j))
            elif is_acyclic_bruteforce(edit_bruteforce(adj, "add", i, j)):
                out.append(("add", i, j))
    return sorted(out)


def feasible_moves_capped_bruteforce(dag: Dag, cap):
    """feasible_moves_bruteforce without the moves after which a node that
    gained a parent has more than `cap` parents."""
    before = dag.adjacency.sum(axis=0)
    out = []
    for kind, i, j in feasible_moves_bruteforce(dag):
        after = edit_bruteforce(dag.adjacency, kind, i, j).sum(axis=0)
        if cap is None or not np.any((after > before) & (after > cap)):
            out.append((kind, i, j))
    return out


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
            cand = Dag(edit_bruteforce(current.adjacency, kind, i, j))
            total = engine.score(cand).total
            if total > best:
                best, pick = total, cand
        if pick is None:
            break
        current = pick
    return current


def knn_rescore_predict(graphs, engine):
    """The graph whose total under `engine` is highest, every graph
    rescored; the first among equal totals."""
    best, pick = -np.inf, None
    for g in graphs:
        total = engine.score(g).total
        if pick is None or total > best:
            best, pick = total, g
    return pick


def fit_sim(dag, dataset, config):
    """Every node of the DAG fitted on the dataset by its own fit_node
    call, each parent column expanded afresh, as a FittedScm."""
    values = dataset.values
    nodes = []
    for j in range(dag.d):
        parents = dag.parents(j)
        pm = values[:, parents] if parents else np.zeros((dataset.n, 0))
        nodes.append(fit_node(j, parents, values[:, j], pm, config))
    return FittedScm(dag=dag, config=config, nodes=nodes)


def sample_per_node(fitted, n, rng):
    """Ancestral sampling that predicts each node with predict_node on a
    fresh copy of its parents' columns, expanding every parent column
    again for every child."""
    values = np.zeros((n, fitted.dag.d))
    by_node = {fn.node: fn for fn in fitted.nodes}
    for j in topological_order(fitted.dag):
        fn = by_node[j]
        pm = values[:, fn.parents] if fn.parents else np.zeros((n, 0))
        mean = predict_node(fn, pm, fitted.config)
        eps = rng.choice(fn.residual_samples, size=n, replace=True)
        values[:, j] = mean + eps
    return values


def _rank_std_pairwise(x):
    """Standardized midranks (the package's closed form without ties)."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    sx = x[order]
    mu = (n + 1) / 2.0
    tied = sx[1:] == sx[:-1]
    if not tied.any():
        out = np.empty(n)
        out[order] = np.arange(1, n + 1, dtype=float)
        return (out - mu) / math.sqrt((n * n - 1) / 12.0)
    boundaries = np.flatnonzero(~tied) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    ranks_sorted = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    sd = float(np.sqrt(np.mean((ranks_sorted - mu) ** 2)))
    if sd == 0.0:
        return np.zeros(n)
    out = np.empty(n)
    out[order] = ranks_sorted
    return (out - mu) / sd


def _standardize_pairwise(x, ones):
    """(mean, population std, z-scores) of one contiguous vector."""
    n = x.shape[0]
    mu = float(np.dot(x, ones)) / n
    centered = x - mu
    sd = math.sqrt(float(np.dot(centered, centered)) / n)
    return mu, sd, (np.zeros(n) if sd == 0.0 else centered / sd)


def _direction_pairwise(z, std, ones, src, dst):
    """Residual variance ratio and |residual| vs |source| correlation of
    the ridge regression z[dst] ~ (1, t, sin t, cos t, sin 2t, cos 2t)."""
    if std[dst] == 0.0:
        return 0.0, 0.0
    n = ones.shape[0]
    t = z[src]
    design = np.column_stack([np.ones(n), t, np.sin(t), np.cos(t), np.sin(2 * t), np.cos(2 * t)])
    gram = design.T @ design
    penalty = np.full(6, 1e-6)
    penalty[0] = 0.0
    gram[np.diag_indices_from(gram)] += penalty
    coef = np.linalg.inv(gram) @ (design.T @ z[dst])
    resid = z[dst] - design @ coef
    centered = resid - float(np.dot(resid, ones)) / n
    ratio = float(np.dot(centered, centered)) / n
    mag_src = _standardize_pairwise(np.abs(t), ones)[2]
    corr = float(np.dot(_standardize_pairwise(np.abs(resid), ones)[2], mag_src)) / n
    return ratio, corr


def _partial_pairwise(r, i, j):
    """Max and mean of |partial corr(i, j | k)| over single conditioners k,
    the mean summed in sorted order; |pearson| for both when d == 2."""
    mask = np.ones(r.shape[0], dtype=bool)
    mask[i] = mask[j] = False
    if not mask.any():
        return abs(r[i, j]), abs(r[i, j])
    rik, rjk = r[i, mask], r[j, mask]
    denom_sq = (1.0 - rik**2) * (1.0 - rjk**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.abs((r[i, j] - rik * rjk) / np.sqrt(denom_sq))
    vals[denom_sq <= 1e-12] = 0.0
    vals.sort()
    return float(vals[-1]), float(vals.mean())


def featurize_pairwise(values):
    """The 16 pair features, one ordered pair at a time, every statistic
    from one np.dot over contiguous per-column vectors: rows in the
    package's pair order (i major, j minor, i != j)."""
    n, d = values.shape
    ones = np.ones(n)
    cols = [np.ascontiguousarray(values[:, j], dtype=float) for j in range(d)]
    mean, std, skew, kurt = np.zeros(d), np.zeros(d), np.zeros(d), np.zeros(d)
    z, rz = [], []
    for j, col in enumerate(cols):
        mean[j], std[j], zj = _standardize_pairwise(col, ones)
        z.append(zj)
        rz.append(np.zeros(n) if std[j] == 0.0 else _rank_std_pairwise(col))
        if std[j] != 0.0:
            skew[j] = float(np.dot(zj * zj, zj)) / n
            kurt[j] = float(np.dot(zj * zj, zj * zj)) / n - 3.0
    pearson, spearman = np.eye(d), np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            pearson[i, j] = pearson[j, i] = float(np.dot(z[i], z[j])) / n
            spearman[i, j] = spearman[j, i] = float(np.dot(rz[i], rz[j])) / n
    rows = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            fwd = _direction_pairwise(z, std, ones, i, j)
            rev = _direction_pairwise(z, std, ones, j, i)
            p_max, p_mean = _partial_pairwise(pearson, min(i, j), max(i, j))
            rows.append(
                [mean[i], std[i], skew[i], kurt[i], mean[j], std[j], skew[j], kurt[j],
                 pearson[i, j], spearman[i, j], *fwd, *rev, p_max, p_mean]
            )
    return np.array(rows, dtype=float).reshape(-1, 16)


def _sigmoid_reference(z):
    """The package's overflow-free logistic: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grads_reference(model, fn, y):
    """Mean BCE of one batch through the 64-64 tanh MLP and its gradient,
    every intermediate its own fresh array, the gradient concatenated in
    theta's layout (w1, b1, w2, b2, w3, b3)."""
    batch = fn.shape[0]
    z1 = fn @ model.w1 + model.b1
    h1 = np.tanh(z1)
    z2 = h1 @ model.w2 + model.b2
    h2 = np.tanh(z2)
    z = h2 @ model.w3 + model.b3
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    dz = (_sigmoid_reference(z) - y) / batch
    g_w3 = h2.T @ dz
    g_b3 = dz.sum()
    dh2 = np.outer(dz, model.w3)
    dz2 = dh2 * (1.0 - h2 * h2)
    g_w2 = h1.T @ dz2
    g_b2 = dz2.sum(axis=0)
    dh1 = dz2 @ model.w2.T
    dz1 = dh1 * (1.0 - h1 * h1)
    g_w1 = fn.T @ dz1
    g_b1 = dz1.sum(axis=0)
    grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2, g_w3, [g_b3]])
    return loss, grad


def train_reference(training_set, config):
    """The training loop written out: featurize each dataset, label each
    pair from its graph one pair at a time, z-score the features, then per
    epoch draw one permutation and gather every minibatch from it, with
    the momentum step v = momentum*v - lr*grad, theta = theta + v. Returns
    (theta, epoch_losses)."""
    rng = np.random.default_rng(config.seed)
    feats, labels = [], []
    for data, g in training_set.instances:
        pairs, f = featurize_all(data)
        feats.append(f)
        labels.append(np.array([float(g.adjacency[i, j]) for i, j in pairs]))
    feats = np.vstack(feats)
    labels = np.concatenate(labels)
    std = feats.std(axis=0)
    fn = (feats - feats.mean(axis=0)) / np.where(std < 1e-8, 1.0, std)
    model = EdgePredictor.initialize(feats.shape[1], config, rng)
    velocity = np.zeros_like(model.theta)
    epoch_losses = []
    n = fn.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grad = loss_and_grads_reference(model, fn[idx], labels[idx])
            velocity = config.momentum * velocity - config.learning_rate * grad
            model.theta[:] = model.theta + velocity
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return model.theta.copy(), epoch_losses
