import warnings

import numpy as np
import pytest

from injurylab.models import (ConvergenceError, ModelSpec, candidate_grid, cross_validate,
                              effective_folds, fit_logistic_irls, fit_model,
                              grouped_fold_ids, sigmoid, stratified_fold_ids)
from injurylab.models.tuning import each_candidate, tune


def univariate_fit_fold(X, y):
    def fit_fold(candidates, train_idx, valid_idx, rngs):
        for params in candidates:
            j = params["column"]
            b, beta = fit_logistic_irls(X[train_idx, j:j + 1], y[train_idx])
            yield sigmoid(b + beta[0] * X[valid_idx, j])
    return fit_fold


def failing_univariate(fails):
    """The univariate family's fit for tune, raising ConvergenceError for a
    column wherever ``fails(column, n_rows)`` holds."""
    def fit_one(params, X_rows, y_rows, rng):
        j = params["column"]
        if fails(j, X_rows.shape[0]):
            raise ConvergenceError(f"column {j} did not converge")
        b, beta = fit_logistic_irls(X_rows[:, j:j + 1], y_rows)
        return {"intercept": b, "slope": float(beta[0]), "column": j}, {}
    return each_candidate(fit_one)


def per_group_mask_fold_ids(y, groups, folds, rng):
    """grouped_fold_ids as first written, with two full-length masks per
    group; the oracle for the vectorised version."""
    y = np.asarray(y)
    groups = np.asarray(groups)
    unique = list(dict.fromkeys(groups.tolist()))
    order = rng.permutation(len(unique))
    group_pos = {g: int(np.count_nonzero(y[groups == g] == 1)) for g in unique}
    shuffled = sorted((unique[i] for i in order),
                      key=lambda g: -group_pos[g])
    fold_pos = np.zeros(folds)
    fold_n = np.zeros(folds)
    assignment: dict = {}
    for g in shuffled:
        # least positives, then least rows, keeps folds usable for AUC
        target = int(np.lexsort((fold_n, fold_pos))[0])
        assignment[g] = target
        fold_pos[target] += group_pos[g]
        fold_n[target] += int(np.count_nonzero(groups == g))
    return np.array([assignment[g] for g in groups.tolist()], dtype=int)


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

    def test_grouped_folds_match_per_group_masks(self, rng):
        for trial in range(40):
            n = int(rng.integers(20, 400))
            # a few large groups, then many singletons, ids in no sorted order
            n_large = int(rng.integers(1, 12))
            codes = np.where(rng.random(n) < 0.5, rng.integers(0, n_large, size=n),
                             n_large + np.arange(n))
            ids = rng.permutation(1000 + n_large + n)[codes]
            groups = (ids if trial % 2 else np.array([f"G{g}" for g in ids], dtype=object))
            y = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
            folds = int(rng.integers(2, 11))
            seed = int(rng.integers(2**32))
            np.testing.assert_array_equal(
                grouped_fold_ids(y, groups, folds, np.random.default_rng(seed)),
                per_group_mask_fold_ids(y, groups, folds, np.random.default_rng(seed)))

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
        result = cross_validate([{"column": 0}], X, y, univariate_fit_fold(X, y),
                                rng, folds=4)
        assert result.selected == {"column": 0}

    def test_selects_informative_candidate(self, rng):
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < sigmoid(3.0 * X[:, 1])).astype(float)
        result = cross_validate([{"column": j} for j in range(3)], X, y,
                                univariate_fit_fold(X, y), rng, folds=5)
        assert result.selected["column"] == 1
        assert len(result.results) == 3

    def test_every_row_scored_once_per_candidate(self, rng):
        X = rng.normal(size=(50, 1))
        y = (rng.random(50) < 0.4).astype(float)
        seen, calls = [], []

        def tracking(candidates, train_idx, valid_idx, rngs):
            calls.append(len(candidates))
            for _ in candidates:
                seen.extend(valid_idx.tolist())
                yield X[valid_idx, 0]

        cross_validate([{"column": 0}, {"column": 0}], X, y, tracking, rng, folds=5)
        # one call per fold; two candidates -> every row appears exactly twice
        assert calls == [2] * 5
        assert sorted(seen) == sorted(list(range(50)) * 2)

    def test_candidate_rngs_follow_fold_major_order(self):
        X = np.zeros((40, 1))
        y = np.tile([0.0, 1.0], 20)
        draws = []

        def drawing(candidates, train_idx, valid_idx, rngs):
            for child in rngs:
                draws.append(child.integers(2**62))
                yield valid_idx.astype(float)

        cross_validate([{"c": c} for c in range(3)], X, y, drawing,
                       np.random.default_rng(7), folds=4)
        # candidate c on fold f gets the (f * 3 + c)-th spawned generator
        expected = [child.integers(2**62)
                    for child in np.random.default_rng(7).spawn(4 * 3)]
        assert draws == expected

    def test_permutation_null_band(self):
        selected_aucs = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(120, 3))
            y = np.zeros(120, dtype=float)
            y[rng.choice(120, 30, replace=False)] = 1.0  # labels independent of X
            result = cross_validate([{"column": j} for j in range(3)], X, y,
                                    univariate_fit_fold(X, y), rng, folds=5)
            selected_aucs.append(result.selected_mean_auc)
        assert 0.4 <= float(np.mean(selected_aucs)) <= 0.6

    def test_tie_break_prefers_simpler(self, rng):
        X = rng.normal(size=(40, 1))
        y = (rng.random(40) < 0.5).astype(float)

        def constant_scores(candidates, train_idx, valid_idx, rngs):
            for _ in candidates:
                yield np.zeros(valid_idx.size)     # every candidate ties at 0.5

        result = cross_validate([{"size": 3}, {"size": 1}, {"size": 2}], X, y,
                                constant_scores, rng, folds=4,
                                prefer=lambda prm: -prm["size"])
        assert result.selected == {"size": 1}


class TestTuneFailures:
    CANDIDATES = [{"column": j} for j in range(3)]

    def data(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(90, 3))
        y = (rng.random(90) < sigmoid(2.0 * X[:, 0])).astype(float)
        return X, y

    def test_candidate_failing_every_fold_is_never_selected(self):
        X, y = self.data()
        with pytest.warns(UserWarning, match="failed on fold"):
            model = tune("univariate_logistic", self.CANDIDATES,
                         failing_univariate(lambda j, n: j == 0 and n < 90), X, y,
                         rng=np.random.default_rng(0), folds=3)
        table = model.metadata["cv_table"]
        assert table[0]["mean_auc"] == float("-inf")     # every fold AUC is NaN
        assert all(np.isfinite(row["mean_auc"]) for row in table[1:])
        assert model.hyperparams != {"column": 0}

    def test_every_candidate_failing_raises(self):
        X, y = self.data()
        with pytest.raises(ConvergenceError, match="every candidate failed cross-validation"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tune("univariate_logistic", self.CANDIDATES,
                     failing_univariate(lambda j, n: True), X, y,
                     rng=np.random.default_rng(0), folds=3)

    def test_failed_final_refit_raises(self):
        X, y = self.data()
        with pytest.raises(ConvergenceError, match="did not converge"):
            tune("univariate_logistic", self.CANDIDATES,
                 failing_univariate(lambda j, n: n == 90), X, y,
                 rng=np.random.default_rng(0), folds=3)


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
        # a lam-major and an alpha-major grid run in the same warm-start
        # order, so they give the same bits
        X, y = tiny_data(seed=1, n=80)
        lambdas, alphas = (1e-3, 1e-1, 1e-2), (1.0, 0.5)
        lam_major, alpha_major = (
            fit_model(ModelSpec("logistic_elastic_net", grid, folds=3), X, y,
                      np.random.default_rng(4))
            for grid in (candidate_grid(lam=lambdas, alpha=alphas),
                         candidate_grid(alpha=alphas, lam=lambdas)))
        assert ([row["params"] for row in lam_major.metadata["cv_table"]]
                == [row["params"] for row in alpha_major.metadata["cv_table"]]
                == [{"lam": lam, "alpha": alpha} for alpha in alphas
                    for lam in (1e-1, 1e-2, 1e-3)])
        assert lam_major.hyperparams == alpha_major.hyperparams
        assert lam_major.params["intercept"] == alpha_major.params["intercept"]
        assert lam_major.params["beta"].tobytes() == alpha_major.params["beta"].tobytes()
