import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import (ModelSpec, candidate_grid, fit_model,
                              fit_random_forest_raw, resolve_max_features)
from injurylab.models.forest import _forest_votes, _tree_leaf_values


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
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=10, max_features=3, min_leaf=8)), X, y, np.random.default_rng(1))
        for tree in model.params["trees"]:
            leaves = tree["feature"] == -1
            # leaf values are fractions over >= min_leaf samples
            assert leaves.any()

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
