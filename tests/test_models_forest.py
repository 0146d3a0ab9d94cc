import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import (ModelSpec, candidate_grid, fit_model,
                              fit_random_forest_raw, resolve_max_features)
from injurylab.models.forest import _forest_votes, _rank_keys, _tree_leaf_values


class TestMaxFeatures:
    def test_resolutions(self):
        assert resolve_max_features("sqrt", 60) == 8
        assert resolve_max_features("third", 60) == 20
        assert resolve_max_features(None, 9) == 3
        assert resolve_max_features(5, 9) == 5
        with pytest.raises(ValueError):
            resolve_max_features(10, 9)


class TestRandomForest:
    def test_memorizes_axis_aligned_rule(self, rng):
        X = rng.normal(size=(200, 4))
        y = (X[:, 2] > 0.3).astype(float)
        model = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=50, max_features=4, min_leaf=1)), X, y, np.random.default_rng(0))
        scores = model.score(X)
        assert np.all((scores > 0.5) == (y == 1))
        assert auc(scores, y) == 1.0

    def test_same_seed_same_forest(self, rng):
        X = rng.normal(size=(120, 5))
        y = (X[:, 0] + rng.normal(scale=0.5, size=120) > 0).astype(float)
        a = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=20, max_features="sqrt", min_leaf=1)), X, y, np.random.default_rng(9))
        b = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=20, max_features="sqrt", min_leaf=1)), X, y, np.random.default_rng(9))
        np.testing.assert_array_equal(a.score(X), b.score(X))
        for tree_a, tree_b in zip(a.params["trees"], b.params["trees"]):
            np.testing.assert_array_equal(tree_a["feature"], tree_b["feature"])
            np.testing.assert_array_equal(tree_a["threshold"], tree_b["threshold"])

    def test_duplicated_feature_oob_stability(self):
        def oob_auc(X, y, seed):
            trees, inbag = fit_random_forest_raw(X, y, 120, "sqrt", 1,
                                                 np.random.default_rng(seed),
                                                 keep_inbag=True)
            votes = np.zeros(X.shape[0])
            counts = np.zeros(X.shape[0])
            for t, tree in enumerate(trees):
                out = ~inbag[t]
                if not out.any():
                    continue
                leaf = _tree_leaf_values(tree, X[out])
                votes[out] += np.where(leaf > 0.5, 1.0,
                                       np.where(leaf < 0.5, 0.0, 0.5))
                counts[out] += 1
            usable = counts > 0
            return auc(votes[usable] / counts[usable], y[usable])

        rng = np.random.default_rng(4)
        X = rng.normal(size=(250, 4))
        y = (X[:, 0] - X[:, 1] + rng.normal(scale=0.8, size=250) > 0).astype(float)
        base = np.mean([oob_auc(X, y, s) for s in range(3)])
        X_dup = np.column_stack([X, X[:, 0]])
        dup = np.mean([oob_auc(X_dup, y, s) for s in range(3)])
        assert abs(base - dup) <= 0.05

    def test_min_leaf_respected(self, rng):
        n, n_trees, min_leaf, seed = 80, 10, 8, 1
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(float)
        trees, _ = fit_random_forest_raw(X, y, n_trees, 3, min_leaf,
                                         np.random.default_rng(seed))
        for t, tree in enumerate(trees):
            # each tree's bootstrap draw, rebuilt from the documented stream
            sample = np.random.default_rng(seed).spawn(n_trees)[t].integers(0, n, n)
            leaf = np.array([_leaf_of(tree, x) for x in X[sample]])
            leaves = np.flatnonzero(tree["feature"] == -1)
            assert set(leaf) == set(leaves)
            for node in leaves:
                in_leaf = leaf == node
                assert in_leaf.sum() >= min_leaf
                assert tree["value"][node] == y[sample][in_leaf].mean()

    def test_cv_over_grid(self, rng):
        X = rng.normal(size=(150, 4))
        y = (X[:, 1] > 0).astype(float)
        model = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=(20,), max_features=("sqrt", "third"), min_leaf=(1,)), folds=3),
            X, y, np.random.default_rng(2))
        assert model.hyperparams["max_features"] in ("sqrt", "third")
        assert "cv_table" in model.metadata

    def test_vote_fraction_range(self, rng):
        X = rng.normal(size=(100, 3))
        y = (rng.random(100) < 0.3).astype(float)
        model = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=15, max_features="sqrt", min_leaf=1)), X, y, np.random.default_rng(5))
        scores = model.score(rng.normal(size=(40, 3)))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_forest_votes_tie_half_credit():
    tree = {"feature": np.array([-1]), "threshold": np.array([0.0]),
            "left": np.array([-1]), "right": np.array([-1]),
            "value": np.array([0.5])}
    votes = _forest_votes([tree], np.zeros((3, 2)))
    np.testing.assert_array_equal(votes, np.full(3, 0.5))


def _leaf_of(tree, x):
    node = 0
    while tree["feature"][node] >= 0:
        go_left = x[tree["feature"][node]] <= tree["threshold"][node]
        node = tree["left"][node] if go_left else tree["right"][node]
    return node


# The split search as it was before rank keys: one float mergesort per sampled
# feature per node, kept verbatim as the oracle the rank-key search must match
# bit for bit.
def _oracle_best_split(X, y_sub, rows, features, min_leaf):
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


def _oracle_grow_tree(X, y, rows, max_features, min_leaf, rng):
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
        split = _oracle_best_split(X, y_sub, node_rows, tried, min_leaf)
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


def _oracle_forest(X, y, n_trees, max_features, min_leaf, seed):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    m = resolve_max_features(max_features, X.shape[1])
    trees = []
    for child in np.random.default_rng(seed).spawn(n_trees):
        sample = child.integers(0, n, n)
        trees.append(_oracle_grow_tree(X, y, sample, m, min_leaf, child))
    return trees


def _labels(rng, X):
    score = X[:, 0] - 0.5 * X[:, -1] + rng.normal(scale=0.7, size=X.shape[0])
    return (score > 0.3).astype(float)


def _continuous(rng):
    X = rng.normal(size=(150, 7))
    return X, _labels(rng, X)


def _tied(rng):
    base = rng.normal(size=(160, 3))
    # rounded columns, a 0/1 column and an exact copy of one, so that whole
    # features tie in impurity and the cross-feature choice rule is exercised
    binary = (base[:, 2] > 0).astype(float)
    X = np.column_stack([np.round(base[:, 0]), np.round(base[:, 1], 1),
                         binary, np.round(base[:, 0] * 2) / 2, binary])
    return X, _labels(rng, X)


def _constant_column(rng):
    X = rng.normal(size=(120, 4))
    X[:, 1] = 3.0
    return X, _labels(rng, X)


def _all_constant(rng):
    X = np.full((40, 3), -1.5)
    return X, (rng.random(40) < 0.4).astype(float)


def _duplicated_rows(rng):
    X = np.repeat(rng.normal(size=(40, 5)), 4, axis=0)
    order = rng.permutation(X.shape[0])
    return X[order], _labels(rng, X)[order]


def _tiny(n, rng):
    return rng.normal(size=(n, 3)), np.arange(n) % 2.0


def _two_rows(rng):
    return _tiny(2, rng)


def _three_rows(rng):
    return _tiny(3, rng)


def _all_negative(rng):
    return rng.normal(size=(60, 4)), np.zeros(60)


def _all_positive(rng):
    return rng.normal(size=(60, 4)), np.ones(60)


ORACLE_CASES = [
    (_continuous, "sqrt", 1),
    (_continuous, "third", 5),
    (_continuous, 1, 20),
    (_continuous, 7, 1),
    (_tied, "sqrt", 1),
    (_tied, "third", 1),
    (_tied, 1, 5),
    (_tied, 5, 20),
    (_constant_column, "sqrt", 1),
    (_constant_column, 4, 5),
    (_all_constant, "sqrt", 1),
    (_duplicated_rows, "sqrt", 1),
    (_duplicated_rows, 5, 5),
    (_two_rows, 3, 1),
    (_two_rows, "sqrt", 1),
    (_three_rows, 3, 1),
    (_three_rows, 1, 1),
    (_all_negative, "sqrt", 1),
    (_all_positive, "third", 5),
]


@pytest.mark.parametrize("make, max_features, min_leaf", ORACLE_CASES)
def test_rank_key_search_matches_float_sort_oracle(make, max_features, min_leaf):
    X, y = make(np.random.default_rng(11))
    trees, _ = fit_random_forest_raw(X, y, 8, max_features, min_leaf,
                                     np.random.default_rng(3))
    expected = _oracle_forest(X, y, 8, max_features, min_leaf, 3)
    assert len(trees) == len(expected)
    for tree, oracle in zip(trees, expected):
        assert tree.keys() == oracle.keys()
        for key in oracle:
            assert tree[key].dtype == oracle[key].dtype, key
            assert tree[key].shape == oracle[key].shape, key
            assert tree[key].tobytes() == oracle[key].tobytes(), key


def test_rank_keys_are_dense_and_fit_their_dtype():
    X = np.array([[0.5, -0.0], [-1.0, 0.0], [0.5, 2.0], [3.0, 0.0]])
    ranks = _rank_keys(X)
    assert ranks.dtype == np.uint16
    np.testing.assert_array_equal(ranks, [[1, 0, 1, 2], [0, 0, 1, 0]])
    top = np.arange(65536.0)[:, None]
    assert _rank_keys(top).dtype == np.uint16
    assert _rank_keys(top).max() == 65535
    assert _rank_keys(np.vstack([top, [[65536.0]]])).dtype == np.uint32


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.random.default_rng(0).normal(size=(30, 3))
    X[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_random_forest_raw(X, np.arange(30) % 2.0, 3, "sqrt", 1,
                              np.random.default_rng(0))
