"""Random forest classifier built from scratch.

Bootstrap-sampled binary CART trees grown on Gini impurity with a uniform
feature subsample per split; a tree's score for a row is its leaf positive
fraction and the forest score is the fraction of trees voting injury.

Splits are searched on per-fit rank keys, each column's dense ranks (see
_grow_tree); they order and tie rows as the float values do, so every tree is
bit-identical to one grown by sorting floats.  X must be finite.
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


def _rank_keys(X):
    """(p, n) dense ranks of X's columns; equal values share a rank."""
    dtype = np.uint16 if X.shape[0] <= 65536 else np.uint32
    return np.array([np.unique(col, return_inverse=True)[1] for col in X.T], dtype=dtype)


def _grow_tree(X, ranks, y, rows, max_features, min_leaf, rng):
    """Depth-first CART growth; returns parallel node arrays.

    A node stable-argsorts the rank keys of its m sampled features over its
    k rows as one (m, k) block (a radix sort for uint16 keys) and splits at
    the row-major argmin of the weighted Gini: the first feature in ``tried``
    order to reach the minimum, at its first position.  Equal values share a
    rank and the sort is stable, so each sorted order, count, impurity,
    threshold and child row set equals a per-feature float sort's, bit for bit.
    """
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
        k = node_rows.size
        y_sub = y[node_rows]
        pos = float(y_sub.sum())
        value[node] = pos / k
        if pos == 0.0 or pos == k or k < 2 * min_leaf:
            continue
        tried = rng.choice(p, size=min(max_features, p), replace=False)
        keys = ranks[tried[:, None], node_rows]
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        cum_pos = np.cumsum(y_sub[order], axis=1)
        n_left = np.arange(1, k)
        n_right = k - n_left
        valid = (keys[:, 1:] != keys[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        pos_left = cum_pos[:, :-1]
        pos_right = cum_pos[:, -1:] - pos_left
        # 2 * sum_child pos * neg / n_child, up to the constant factor
        impurity = (pos_left * (n_left - pos_left) / n_left
                    + pos_right * (n_right - pos_right) / n_right)
        impurity[~valid] = np.inf
        i, t = divmod(int(np.argmin(impurity)), k - 1)
        if impurity[i, t] == np.inf:
            continue
        feature[node] = f = int(tried[i])
        sorted_rows = node_rows[order[i]]
        threshold[node] = float(0.5 * (X[sorted_rows[t], f] + X[sorted_rows[t + 1], f]))
        left[node], right[node] = new_node(), new_node()
        stack.append((right[node], sorted_rows[t + 1:]))
        stack.append((left[node], sorted_rows[: t + 1]))
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
    if not np.isfinite(X).all():
        raise ValueError("random forest needs finite X")
    n = X.shape[0]
    m = resolve_max_features(max_features, X.shape[1])
    ranks = _rank_keys(X)
    trees = []
    inbag = np.zeros((n_trees, n), dtype=bool) if keep_inbag else None
    for t, child in enumerate(rng.spawn(n_trees)):
        sample = child.integers(0, n, n)
        if keep_inbag:
            inbag[t, np.unique(sample)] = True
        trees.append(_grow_tree(X, ranks, y, sample, m, min_leaf, child))
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
