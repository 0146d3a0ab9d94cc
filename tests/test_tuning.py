import warnings

import numpy as np
import pytest

from injurylab.models import (ConvergenceError, ModelSpec, candidate_grid, cross_validate,
                              effective_folds, fit_logistic_elastic_net,
                              fit_logistic_irls, fit_model, grouped_fold_ids,
                              sigmoid, stratified_fold_ids)


def univariate_fit_score(X, y):
    def fit_score(params, train_idx, valid_idx, child, state):
        j = params["column"]
        b, beta = fit_logistic_irls(X[train_idx, j:j + 1], y[train_idx])
        return sigmoid(b + beta[0] * X[valid_idx, j]), None
    return fit_score


class TestFolds:
    def test_stratified_partition(self, rng):
        y = (rng.random(97) < 0.3).astype(int)
        fold_id = stratified_fold_ids(y, 10, rng)
        assert fold_id.shape == y.shape
        assert set(fold_id) == set(range(10))
        # positives spread within one of each other
        pos_counts = [np.sum((fold_id == f) & (y == 1)) for f in range(10)]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_every_row_in_exactly_one_fold(self, rng):
        y = (rng.random(60) < 0.4).astype(int)
        fold_id = stratified_fold_ids(y, 5, rng)
        counts = np.bincount(fold_id, minlength=5)
        assert counts.sum() == 60

    def test_grouped_folds_keep_groups_together(self, rng):
        y = (rng.random(80) < 0.3).astype(int)
        groups = np.repeat([f"G{i}" for i in range(16)], 5)
        fold_id = grouped_fold_ids(y, groups, 4, rng)
        for g in np.unique(groups):
            assert len(set(fold_id[groups == g])) == 1

    def test_fold_reduction_warns(self):
        y = np.r_[np.ones(4, dtype=int), np.zeros(50, dtype=int)]
        with pytest.warns(UserWarning, match="reducing folds"):
            assert effective_folds(y, 10) == 4

    def test_too_few_positives_rejected(self):
        y = np.r_[np.ones(1, dtype=int), np.zeros(20, dtype=int)]
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            effective_folds(y, 10)


class TestCrossValidate:
    def test_single_candidate_selected(self, rng):
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(float)
        result = cross_validate([{"column": 0}], X, y, univariate_fit_score(X, y),
                                rng, folds=4)
        assert result.selected == {"column": 0}

    def test_selects_informative_candidate(self, rng):
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < sigmoid(3.0 * X[:, 1])).astype(float)
        result = cross_validate([{"column": j} for j in range(3)], X, y,
                                univariate_fit_score(X, y), rng, folds=5)
        assert result.selected["column"] == 1
        assert len(result.results) == 3

    def test_every_row_scored_once_per_candidate(self, rng):
        X = rng.normal(size=(50, 1))
        y = (rng.random(50) < 0.4).astype(float)
        seen = []

        def tracking(params, train_idx, valid_idx, child, state):
            seen.extend(valid_idx.tolist())
            return X[valid_idx, 0], None

        cross_validate([{"column": 0}, {"column": 0}], X, y, tracking, rng, folds=5)
        # two candidates -> every row appears exactly twice
        assert sorted(seen) == sorted(list(range(50)) * 2)

    def test_permutation_null_band(self):
        selected_aucs = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(120, 3))
            y = np.zeros(120, dtype=float)
            y[rng.choice(120, 30, replace=False)] = 1.0  # labels independent of X
            result = cross_validate([{"column": j} for j in range(3)], X, y,
                                    univariate_fit_score(X, y), rng, folds=5)
            selected_aucs.append(result.selected_mean_auc)
        assert 0.4 <= float(np.mean(selected_aucs)) <= 0.6

    def test_tie_break_prefers_simpler(self, rng):
        X = rng.normal(size=(40, 1))
        y = (rng.random(40) < 0.5).astype(float)

        def constant_scores(params, train_idx, valid_idx, child, state):
            return np.zeros(valid_idx.size), None     # every candidate ties at 0.5

        result = cross_validate([{"size": 3}, {"size": 1}, {"size": 2}], X, y,
                                constant_scores, rng, folds=4,
                                prefer=lambda prm: -prm["size"])
        assert result.selected == {"size": 1}

    def test_state_passes_along_and_resets_after_a_failure(self, rng):
        X = rng.normal(size=(40, 1))
        y = (rng.random(40) < 0.5).astype(float)
        received = []

        def chained(params, train_idx, valid_idx, child, state):
            received.append((params["step"], state))
            if params["step"] == 1:
                raise ConvergenceError("no")
            return X[valid_idx, 0], params["step"]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cross_validate([{"step": s} for s in range(4)], X, y, chained, rng, folds=2)
        assert received == [(0, None), (1, 0), (2, None), (3, 2)] * 2


class TestFitModelDispatch:
    def test_rejects_unknown_family(self, rng):
        with pytest.raises(ValueError, match="grid must be nonempty"):
            ModelSpec(family="logistic_elastic_net", grid=[])
        spec = ModelSpec(family="logistic_elastic_net", grid=[{"lam": 0.1, "alpha": 0.5}])
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_model(spec, X, y, rng)
        assert model.hyperparams == {"lam": 0.1, "alpha": 0.5}

    def test_gee_requires_groups(self, rng):
        spec = ModelSpec(family="gee_ar1")
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(float)
        with pytest.raises(ValueError, match="groups"):
            fit_model(spec, X, y, rng)

    def test_every_family_fits_and_scores(self, rng):
        X = rng.normal(size=(120, 3))
        y = (rng.random(120) < sigmoid(1.5 * X[:, 0])).astype(float)
        groups = np.repeat([f"G{i}" for i in range(12)], 10)
        specs = [
            ModelSpec("logistic_elastic_net", grid=[{"lam": 0.01, "alpha": 0.5}]),
            ModelSpec("univariate_logistic", grid=[{"column": 0}]),
            ModelSpec("gee_ar1"),
            ModelSpec("random_forest", grid=[{"n_trees": 10, "max_features": "sqrt",
                                              "min_leaf": 1}]),
            ModelSpec("svm_rbf", grid=[{"C": 1.0, "gamma": 0.5}]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for spec in specs:
                model = fit_model(spec, X, y, np.random.default_rng(1), groups=groups)
                scores = model.score(X)
                assert scores.shape == (120,)
                assert np.all(np.isfinite(scores))


def tiny_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < sigmoid(2.0 * X[:, 0])).astype(float)
    return X, y


# two candidates that differ in every key, so a cartesian rebuild would
# make 4 (elastic net, SVM) or 8 (forest) of them
TWO_POINT_GRIDS = {
    "logistic_elastic_net": [{"lam": 0.1, "alpha": 1.0}, {"lam": 0.01, "alpha": 0.5}],
    "svm_rbf": [{"C": 0.1, "gamma": 0.1}, {"C": 1.0, "gamma": 1.0}],
    "random_forest": [{"n_trees": 3, "max_features": "sqrt", "min_leaf": 1},
                      {"n_trees": 4, "max_features": "third", "min_leaf": 2}],
}


def cv_params(spec, X, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_model(spec, X, y, np.random.default_rng(3))
    return [row["params"] for row in model.metadata["cv_table"]]


class TestGridVerbatim:
    def test_candidate_grid_first_key_outermost(self):
        assert candidate_grid(a=(1, 2), b="s", c=[3, 4]) == [
            {"a": 1, "b": "s", "c": 3}, {"a": 1, "b": "s", "c": 4},
            {"a": 2, "b": "s", "c": 3}, {"a": 2, "b": "s", "c": 4},
        ]

    @pytest.mark.parametrize("family", sorted(TWO_POINT_GRIDS))
    def test_two_entry_grid_gives_two_candidates(self, family):
        X, y = tiny_data()
        grid = TWO_POINT_GRIDS[family]
        params = cv_params(ModelSpec(family, grid=grid, folds=3), X, y)
        assert len(params) == 2
        assert sorted(map(str, params)) == sorted(map(str, grid))

    @pytest.mark.parametrize("family", sorted(TWO_POINT_GRIDS))
    def test_repeated_entry_collapses(self, family):
        X, y = tiny_data()
        first, second = TWO_POINT_GRIDS[family]
        spec = ModelSpec(family, grid=[first, second, dict(first)], folds=3)
        assert len(cv_params(spec, X, y)) == 2

    @pytest.mark.parametrize("family, entry, key", [
        ("logistic_elastic_net", {"lam": 0.1}, "alpha"),
        ("svm_rbf", {"gamma": 0.1}, "C"),
        ("random_forest", {"n_trees": 3, "max_features": "sqrt"}, "min_leaf"),
        ("univariate_logistic", {"col": 0}, "column"),
        ("gee_ar1", {}, "alpha_fixed"),
    ])
    def test_entry_missing_a_key_rejected(self, family, entry, key):
        X, y = tiny_data()
        groups = np.repeat([f"G{i}" for i in range(6)], 10)
        with pytest.raises(ValueError, match=key):
            fit_model(ModelSpec(family, grid=[entry], folds=3), X, y,
                      np.random.default_rng(0), groups=groups)

    def test_gee_rejects_several_entries(self):
        X, y = tiny_data()
        groups = np.repeat([f"G{i}" for i in range(6)], 10)
        spec = ModelSpec("gee_ar1", grid=[{"alpha_fixed": 0.0}, {"alpha_fixed": 0.5}])
        with pytest.raises(ValueError, match="one grid entry"):
            fit_model(spec, X, y, np.random.default_rng(0), groups=groups)

    def test_entry_point_matches_lam_major_grid(self):
        # same candidates in the same warm-start order, so the same bits
        X, y = tiny_data(seed=1, n=80)
        lambdas, alphas = (1e-3, 1e-1, 1e-2), (1.0, 0.5)
        direct = fit_logistic_elastic_net(X, y, lambdas=lambdas, alphas=alphas,
                                          folds=3, rng=np.random.default_rng(4))
        spec = ModelSpec("logistic_elastic_net", folds=3,
                         grid=[{"lam": lam, "alpha": alpha}
                               for lam in lambdas for alpha in alphas])
        via_spec = fit_model(spec, X, y, np.random.default_rng(4))
        assert ([row["params"] for row in direct.metadata["cv_table"]]
                == [row["params"] for row in via_spec.metadata["cv_table"]]
                == [{"lam": lam, "alpha": alpha} for alpha in alphas
                    for lam in (1e-1, 1e-2, 1e-3)])
        assert direct.hyperparams == via_spec.hyperparams
        assert direct.params["intercept"] == via_spec.params["intercept"]
        assert direct.params["beta"].tobytes() == via_spec.params["beta"].tobytes()
