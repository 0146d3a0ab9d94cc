"""Random forest classifier built from scratch.

Bootstrap-sampled binary CART trees grown on Gini impurity with a uniform
feature subsample per split; a tree's score for a row is its leaf positive
fraction and the forest score is the fraction of trees voting injury.
"""

from __future__ import annotations

import math

import numpy as np

from .base import TrainedModel, register_family
from .tuning import coerce_grid, each_candidate, tune

RF_TREES = 500
RF_MAX_FEATURES = ("sqrt", "third")
RF_MIN_LEAF = 1


def resolve_max_features(spec, p: int) -> int:
    """'sqrt' -> ceil(sqrt(p)), 'third' -> max(1, p // 3), or an explicit count."""
    if spec in (None, "sqrt"):
        return int(math.ceil(math.sqrt(p)))
    if spec == "third":
        return max(1, p // 3)
    m = int(spec)
    if not 1 <= m <= p:
        raise ValueError(f"max_features {m} outside [1, {p}]")
    return m


def _best_split(X, y_sub, rows, features, min_leaf):
    """Lowest weighted-Gini split over the sampled features, or None."""
    n = rows.size
    best_impurity = np.inf
    best = None
    for f in features:
        v = X[rows, f]
        order = np.argsort(v, kind="mergesort")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        ys = y_sub[order]
        cum_pos = np.cumsum(ys)
        n_left = np.arange(1, n)
        valid = vs[1:] != vs[:-1]
        valid &= (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        pos_left = cum_pos[:-1].astype(float)
        pos_right = cum_pos[-1] - pos_left
        n_right = n - n_left
        # 2 * sum_child pos * neg / n_child, up to the constant factor
        impurity = (pos_left * (n_left - pos_left) / n_left
                    + pos_right * (n_right - pos_right) / n_right)
        impurity[~valid] = np.inf
        t = int(np.argmin(impurity))
        if impurity[t] < best_impurity:
            best_impurity = impurity[t]
            best = (f, 0.5 * (vs[t] + vs[t + 1]), order[: t + 1], order[t + 1:])
    return best


def _grow_tree(X, y, rows, max_features, min_leaf, rng):
    """Depth-first CART growth; returns parallel node arrays."""
    p = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), rows)]
    while stack:
        node, node_rows = stack.pop()
        y_sub = y[node_rows]
        pos = float(y_sub.sum())
        value[node] = pos / node_rows.size
        if pos == 0.0 or pos == node_rows.size or node_rows.size < 2 * min_leaf:
            continue
        tried = rng.choice(p, size=min(max_features, p), replace=False)
        split = _best_split(X, y_sub, node_rows, tried, min_leaf)
        if split is None:
            continue
        f, thr, left_local, right_local = split
        feature[node] = int(f)
        threshold[node] = float(thr)
        left_child, right_child = new_node(), new_node()
        left[node] = left_child
        right[node] = right_child
        stack.append((right_child, node_rows[right_local]))
        stack.append((left_child, node_rows[left_local]))
    return {
        "feature": np.asarray(feature, dtype=int),
        "threshold": np.asarray(threshold, dtype=float),
        "left": np.asarray(left, dtype=int),
        "right": np.asarray(right, dtype=int),
        "value": np.asarray(value, dtype=float),
    }


def _tree_leaf_values(tree, X):
    """Leaf positive fraction for every row of X."""
    node = np.zeros(X.shape[0], dtype=int)
    feature = tree["feature"]
    threshold = tree["threshold"]
    left = tree["left"]
    right = tree["right"]
    active = feature[node] >= 0
    while active.any():
        idx = np.flatnonzero(active)
        current = node[idx]
        go_left = X[idx, feature[current]] <= threshold[current]
        node[idx] = np.where(go_left, left[current], right[current])
        active[idx] = feature[node[idx]] >= 0
    return tree["value"][node]


def _forest_votes(trees, X):
    votes = np.zeros(X.shape[0])
    for tree in trees:
        leaf = _tree_leaf_values(tree, X)
        votes += np.where(leaf > 0.5, 1.0, np.where(leaf < 0.5, 0.0, 0.5))
    return votes / len(trees)


def fit_random_forest_raw(X, y, n_trees: int, max_features, min_leaf: int,
                          rng: np.random.Generator, keep_inbag: bool = False):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    m = resolve_max_features(max_features, X.shape[1])
    tree_rngs = rng.spawn(n_trees)
    trees = []
    inbag = np.zeros((n_trees, n), dtype=bool) if keep_inbag else None
    for t in range(n_trees):
        child = tree_rngs[t]
        sample = child.integers(0, n, n)
        if keep_inbag:
            inbag[t, np.unique(sample)] = True
        trees.append(_grow_tree(X, y, sample, m, min_leaf, child))
    return trees, inbag


def tune_random_forest(X, y, grid, **cv) -> TrainedModel:
    """Random forest over the grid's (n_trees, max_features, min_leaf)
    candidates; AUC ties prefer fewer trees, then fewer features per split,
    then larger leaves.  ``cv`` goes to tune."""
    p = np.shape(X)[1]

    def fit_one(params, X_rows, y_rows, rng):
        trees, _ = fit_random_forest_raw(X_rows, y_rows, params["n_trees"],
                                         params["max_features"], params["min_leaf"], rng)
        return {"trees": trees}, {}

    def prefer(prm):
        return (-prm["n_trees"], -resolve_max_features(prm["max_features"], p),
                prm["min_leaf"])

    return tune("random_forest",
                coerce_grid(grid, n_trees=int, max_features=None, min_leaf=int),
                each_candidate(fit_one), X, y, prefer=prefer, **cv)


def _score_forest(params, X):
    return _forest_votes(params["trees"], X)


register_family("random_forest", _score_forest)
