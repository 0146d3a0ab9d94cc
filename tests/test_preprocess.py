import copy
import datetime as dt
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from injurylab import preprocess as pp

from conftest import make_session


def linear_matrix(rng, n=200, missing_col=2, missing_frac=0.2):
    """Synthetic matrix whose column 2 is linear in the complete columns."""
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    target = 2.0 * x0 - 1.5 * x1 + rng.normal(scale=0.1, size=n)
    X = np.column_stack([x0, x1, target])
    mask = rng.random(n) < missing_frac
    X_missing = X.copy()
    X_missing[mask, missing_col] = np.nan
    return X, X_missing, mask


class TestPmmImpute:
    def test_complete_matrix_unchanged(self, rng):
        X = rng.normal(size=(50, 4))
        out = pp.PmmImputer.fit(X).transform(X, rng)
        np.testing.assert_array_equal(out, X)

    def test_exact_match_donor_with_k1(self, rng):
        X_true, X, mask = linear_matrix(rng)
        row = int(np.flatnonzero(mask)[0])
        donor = int(np.flatnonzero(~mask)[0])
        X[row, 0], X[row, 1] = X[donor, 0], X[donor, 1]
        out = pp.PmmImputer.fit(X, donors=1).transform(X, rng)
        assert out[row, 2] == X[donor, 2]

    def test_imputed_values_from_observed_support(self, rng):
        _, X, mask = linear_matrix(rng)
        observed = set(X[~mask, 2].tolist())
        out = pp.PmmImputer.fit(X).transform(X, rng)
        for row in np.flatnonzero(mask):
            assert out[row, 2] in observed

    def test_mean_recovery_over_seeds(self):
        # 20% missing at random on linear data: imputed mean close to truth
        errors = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X_true, X, mask = linear_matrix(rng, n=300)
            out = pp.PmmImputer.fit(X).transform(X, rng)
            errors.append(out[:, 2].mean() - X_true[:, 2].mean())
        scale = np.abs(X_true[:, 2]).mean()
        assert np.mean(np.abs(errors)) < 0.1 * scale

    def test_entirely_missing_column_rejected(self, rng):
        X = rng.normal(size=(30, 3))
        X[:, 1] = np.nan
        with pytest.raises(ValueError, match="entirely missing"):
            pp.PmmImputer.fit(X).transform(X, rng)

    def test_too_few_observed_rejected(self, rng):
        X = rng.normal(size=(30, 3))
        X[:25, 1] = np.nan
        with pytest.raises(ValueError, match="fewer than 10 observed"):
            pp.PmmImputer.fit(X, column_names=["a", "b", "c"]).transform(X, rng)

    def test_needs_complete_predictor(self, rng):
        X = rng.normal(size=(30, 2))
        X[0, 0] = np.nan
        X[1, 1] = np.nan
        with pytest.raises(ValueError, match="fully observed column"):
            pp.PmmImputer.fit(X).transform(X, rng)

    def test_transform_handles_new_missing_patterns(self, rng):
        _, X, _ = linear_matrix(rng)
        imputer = pp.PmmImputer.fit(X)
        test = rng.normal(size=(10, 3))
        test[3, 0] = np.nan        # missing in a train-complete column
        out = imputer.transform(test, rng)
        assert np.isfinite(out).all()

    def test_roundtrip_serialization(self, rng):
        _, X, _ = linear_matrix(rng)
        imputer = pp.PmmImputer.fit(X)
        clone = pp.PmmImputer.from_dict(imputer.to_dict())
        probe = X.copy()
        out_a = imputer.transform(probe, np.random.default_rng(7))
        out_b = clone.transform(probe, np.random.default_rng(7))
        np.testing.assert_array_equal(out_a, out_b)


class TestStandardize:
    def test_forced_arithmetic(self):
        Z, means, scales = pp.standardize(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(Z[:, 0], [-1.0, 0.0, 1.0])
        assert means[0] == 2.0 and scales[0] == 1.0

    def test_constant_column_rule(self):
        Z, _, scales = pp.standardize(np.full((5, 1), 7.0))
        np.testing.assert_array_equal(Z, np.zeros((5, 1)))
        assert scales[0] == 1.0

    def test_roundtrip_identity(self, rng):
        X = rng.normal(size=(40, 6)) * 100
        Z, means, scales = pp.standardize(X)
        back = pp.apply_standardize(X, means, scales) * scales + means
        np.testing.assert_allclose(back, X, atol=1e-12 * np.abs(X).max())

    def test_missing_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValueError, match="impute"):
            pp.standardize(X)


class TestPca:
    def test_perfectly_correlated_columns_give_k1(self, rng):
        x = rng.normal(size=300)
        X = np.column_stack([x, 3.0 * x])
        proj = pp.pca_fit(X, threshold=0.95)
        assert proj.n_components == 1

    def test_three_independent_columns_keep_all(self, rng):
        X = rng.normal(size=(2000, 3))
        proj = pp.pca_fit(X, threshold=0.95)
        assert proj.n_components == 3

    def test_threshold_one_gives_numeric_rank(self, rng):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        X = np.column_stack([a, b, a + b])
        proj = pp.pca_fit(X, threshold=1.0)
        assert proj.n_components == 2

    def test_loadings_orthonormal(self, rng):
        X = rng.normal(size=(100, 8)) @ rng.normal(size=(8, 8))
        proj = pp.pca_fit(X, threshold=0.99)
        gram = proj.loadings.T @ proj.loadings
        np.testing.assert_allclose(gram, np.eye(proj.n_components), atol=1e-8)

    def test_scores_uncorrelated(self, rng):
        X = rng.normal(size=(400, 6)) @ rng.normal(size=(6, 6))
        proj = pp.pca_fit(X, threshold=0.999)
        scores = pp.pca_transform(X, proj)
        corr = np.corrcoef(scores, rowvar=False)
        off_diag = corr - np.diag(np.diag(corr))
        assert np.abs(off_diag).max() < 1e-6

    def test_variance_fractions_sorted_and_bounded(self, rng):
        X = rng.normal(size=(150, 10))
        proj = pp.pca_fit(X)
        assert np.all(np.diff(proj.explained_variance_ratio) <= 1e-12)
        assert proj.explained_variance_ratio.sum() <= 1.0 + 1e-9

    def test_full_rank_reconstruction(self, rng):
        X = rng.normal(size=(60, 5))
        proj = pp.pca_fit(X, threshold=1.0)
        scores = pp.pca_transform(X, proj)
        back = scores @ proj.loadings.T * proj.scales + proj.means
        assert np.abs(back - X).max() < 1e-8

    def test_non_finite_rejected(self):
        X = np.ones((20, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            pp.pca_fit(X)

    def test_threshold_validated(self, rng):
        with pytest.raises(ValueError):
            pp.pca_fit(rng.normal(size=(10, 2)), threshold=0.0)


class TestUndersample:
    def _data(self, rng, n_pos=5, n_neg=95):
        X = rng.normal(size=(n_pos + n_neg, 3))
        y = np.r_[np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)]
        order = rng.permutation(y.size)
        return X[order], y[order]

    def test_balances_to_minority(self, rng):
        X, y = self._data(rng)
        result = pp.undersample(X, y, rng)
        assert np.count_nonzero(result.y == 1) == 5
        assert np.count_nonzero(result.y == 0) == 5

    def test_all_minority_rows_retained_unchanged(self, rng):
        X, y = self._data(rng)
        result = pp.undersample(X, y, rng)
        np.testing.assert_array_equal(result.X[result.y == 1],
                                      X[y == 1])

    def test_balanced_input_unchanged(self, rng):
        X, y = self._data(rng, n_pos=10, n_neg=10)
        result = pp.undersample(X, y, rng)
        np.testing.assert_array_equal(result.X, X)

    def test_seeds_give_different_subsets(self):
        rng0 = np.random.default_rng(0)
        X, y = self._data(rng0)
        picks = set()
        for seed in range(12):
            result = pp.undersample(X, y, np.random.default_rng(seed))
            picks.add(tuple(sorted(result.indices[result.y == 0].tolist())))
        assert len(picks) >= 11   # collisions vanishingly unlikely in C(95,5)

    def test_deterministic_for_fixed_seed(self, rng):
        X, y = self._data(rng)
        a = pp.undersample(X, y, np.random.default_rng(5))
        b = pp.undersample(X, y, np.random.default_rng(5))
        np.testing.assert_array_equal(a.X, b.X)

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError, match="both classes"):
            pp.undersample(np.ones((4, 1)), np.ones(4, dtype=int), rng)


def point_on_some_neighbor_segment(point, minority, neighbor_table, atol=1e-9):
    """Independent geometric check: point lies on a (row, k-neighbor) segment."""
    for i in range(minority.shape[0]):
        x = minority[i]
        for j in neighbor_table[i]:
            d = minority[j] - x
            denom = float(d @ d)
            if denom == 0.0:
                if np.allclose(point, x, atol=atol):
                    return True
                continue
            u = float((point - x) @ d) / denom
            if -1e-12 <= u <= 1.0 + 1e-12:
                if np.abs(x + u * d - point).max() < atol:
                    return True
    return False


class TestSmote:
    def test_two_point_minority_synthesizes_on_segment(self, rng):
        X = np.vstack([np.zeros((1, 2)), np.ones((1, 2)), rng.normal(5, 0.1, (8, 2))])
        y = np.r_[1, 1, np.zeros(8, dtype=int)]
        result = pp.smote(X, y, rng, k=1)
        synth = result.X[result.synthetic]
        assert synth.shape[0] == 6   # balanced to 8/8
        for point in synth:
            t = point[0]
            assert point[1] == pytest.approx(t, abs=1e-12)
            assert 0.0 <= t <= 1.0

    def test_balanced_output_and_minority_untouched(self, rng):
        X = rng.normal(size=(210, 4))
        y = np.r_[np.ones(10, dtype=int), np.zeros(200, dtype=int)]
        result = pp.smote(X, y, rng, k=5, oversample_pct=300.0)
        assert np.count_nonzero(result.y == 1) == 40
        assert np.count_nonzero(result.y == 0) == 40
        real_min = result.X[(result.y == 1) & ~result.synthetic]
        np.testing.assert_array_equal(real_min, X[:10])

    def test_default_balances_without_undersampling(self, rng):
        X = rng.normal(size=(60, 3))
        y = np.r_[np.ones(10, dtype=int), np.zeros(50, dtype=int)]
        result = pp.smote(X, y, rng)
        assert np.count_nonzero(result.y == 1) == 50
        assert np.count_nonzero(result.y == 0) == 50
        assert result.synthetic.sum() == 40

    def test_synthetics_lie_on_neighbor_segments(self, rng):
        X = rng.normal(size=(100, 3))
        y = np.r_[np.ones(12, dtype=int), np.zeros(88, dtype=int)]
        k = 4
        result = pp.smote(X, y, rng, k=k, oversample_pct=200.0)
        minority = X[:12]
        diffs = minority[:, None, :] - minority[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(dist2, np.inf)
        neighbor_table = np.argsort(dist2, axis=1)[:, :k]
        for point in result.X[result.synthetic]:
            assert point_on_some_neighbor_segment(point, minority, neighbor_table)

    def test_minority_too_small_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.r_[1, np.zeros(9, dtype=int)]
        with pytest.raises(ValueError, match="at least 2 minority"):
            pp.smote(X, y, rng)

    def test_deterministic_for_fixed_seed(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.r_[np.ones(6, dtype=int), np.zeros(34, dtype=int)]
        a = pp.smote(X, y, np.random.default_rng(3))
        b = pp.smote(X, y, np.random.default_rng(3))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestTestSetPurity:
    def test_poisoned_test_rows_change_no_fitted_parameter(self, rng):
        X_train = rng.normal(size=(80, 4))
        knockout = rng.random((80, 4)) < 0.1
        knockout[:, :2] = False    # keep two fully observed predictor columns
        X_train[knockout] = np.nan
        imputer = pp.PmmImputer.fit(X_train)
        state_before = copy.deepcopy(imputer.to_dict())

        filled = imputer.transform(X_train, np.random.default_rng(0))
        Z, means, scales = pp.standardize(filled)
        proj = pp.pca_fit(Z)
        loadings_before = proj.loadings.copy()

        X_test = rng.normal(size=(30, 4))
        X_test_clean = X_test.copy()
        reference = pp.pca_transform(
            pp.apply_standardize(imputer.transform(X_test_clean, np.random.default_rng(1)),
                                 means, scales), proj)

        poisoned = X_test * 1e6 + 123.0
        _ = pp.pca_transform(
            pp.apply_standardize(imputer.transform(poisoned, np.random.default_rng(2)),
                                 means, scales), proj)

        assert imputer.to_dict() == state_before
        np.testing.assert_array_equal(proj.loadings, loadings_before)
        again = pp.pca_transform(
            pp.apply_standardize(imputer.transform(X_test_clean, np.random.default_rng(1)),
                                 means, scales), proj)
        np.testing.assert_array_equal(reference, again)


class TestImputeSessionValues:
    def test_fills_from_observed_support(self, rng):
        sessions = []
        for i in range(40):
            sessions.append(make_session(
                date=dt.date(2014, 3, 1) + dt.timedelta(days=i),
                duration_min=60 + i % 5,
                rpe=None if i == 3 else 5 + (i % 3),
                distance_m=None if i == 7 else 7000.0 + 50 * i,
                msr_m=500.0, hsr_m=100.0, player_load=350.0))
        out = pp.impute_session_values(sessions, rng)
        assert out[3].rpe in {5, 6, 7}
        observed = {s.distance_m for s in sessions if s.distance_m is not None}
        assert out[7].distance_m in observed
        # untouched rows identical
        assert out[0] == sessions[0]

    def test_msr_clamped_to_distance(self, rng):
        sessions = []
        for i in range(30):
            sessions.append(make_session(
                date=dt.date(2014, 3, 1) + dt.timedelta(days=i),
                distance_m=100.0 if i == 0 else 8000.0,
                msr_m=None if i == 0 else 900.0,
                hsr_m=50.0))
        out = pp.impute_session_values(sessions, rng)
        assert out[0].msr_m <= out[0].distance_m

    def test_complete_sessions_returned_as_is(self, rng):
        sessions = [make_session(date=dt.date(2014, 3, 1) + dt.timedelta(days=i))
                    for i in range(12)]
        out = pp.impute_session_values(sessions, rng)
        assert out == sessions

    def test_complete_sessions_kept_as_objects(self, rng):
        sessions = [make_session(date=dt.date(2014, 3, 1) + dt.timedelta(days=i),
                                 duration_min=50 + i, rpe=None if i == 5 else 6)
                    for i in range(20)]
        out = pp.impute_session_values(sessions, rng)
        assert all(out[i] is sessions[i] for i in range(20) if i != 5)
        assert out[5] is not sessions[5] and out[5].rpe == 6


def scalar_pmm_transform(imputer, X, rng):
    """Row-by-row PMM transform, the reference for the vectorised one; needs
    every regression solved (call ``imputer.to_dict()`` first)."""
    X = np.asarray(X, dtype=float)
    out = X.copy()
    missing = np.isnan(X)
    if not missing.any():
        return out
    base = np.where(missing, imputer.col_means, X)
    for j in range(imputer.n_columns):
        rows = np.flatnonzero(missing[:, j])
        if rows.size == 0:
            continue
        predictors = imputer.complete_cols[imputer.complete_cols != j]
        A = np.column_stack([np.ones(rows.size), base[np.ix_(rows, predictors)]])
        preds = A @ imputer.coefs[j]
        pool_preds = imputer.donor_preds[j]
        pool_values = imputer.donor_values[j]
        k = min(imputer.donors, pool_values.size)
        for row, pred in zip(rows, preds):
            pos = np.searchsorted(pool_preds, pred)
            lo = max(0, pos - k)
            hi = min(pool_preds.size, pos + k)
            window = np.arange(lo, hi)
            nearest = window[np.argsort(np.abs(pool_preds[window] - pred), kind="mergesort")[:k]]
            out[row, j] = pool_values[nearest[rng.integers(k)]]
    return out


def pmm_case(seed):
    """A train matrix and a matrix to transform that between them hold
    predictions beyond both ends of a pool, a pool of 10 rows (smaller than
    the largest ``donors`` tried), tied pool predictions, an infinite
    prediction and a column missing only in the transformed matrix."""
    rng = np.random.default_rng(seed)
    n = 60
    # complete columns 0, 1 and 4 take few values, so pool predictions tie
    ties = rng.integers(0, 3, size=n).astype(float)
    x1 = rng.integers(-2, 3, size=n).astype(float)
    X = np.column_stack([ties, x1,
                         2.0 * ties + rng.normal(scale=0.5, size=n),
                         x1 - ties + rng.normal(size=n),
                         rng.integers(0, 2, size=n).astype(float)])
    X[rng.random(n) < 0.3, 2] = np.nan
    X[10:, 3] = np.nan                                   # pool of 10 donors
    test = np.column_stack([rng.integers(0, 3, size=25).astype(float),
                            rng.normal(size=25), rng.normal(size=25),
                            rng.normal(size=25), rng.normal(size=25)])
    test[:, 2:4] = np.nan
    test[0, 1], test[1, 1] = -1e6, 1e6                   # below / above every pool
    test[2, 1] = np.inf
    test[rng.random(25) < 0.4, 4] = np.nan               # missing only here
    test[3, 0] = np.nan                                  # a missing predictor
    return X, test


class TestVectorisedPmm:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("donors", [1, 2, 5, 7, 12])
    def test_matches_scalar_loop_bit_for_bit(self, seed, donors):
        X, test = pmm_case(seed)
        for matrix in (X, test):
            reference = pp.PmmImputer.fit(X, donors=donors)
            reference.to_dict()
            fast = pp.PmmImputer.fit(X, donors=donors)
            rng_a = np.random.default_rng(seed + 100)
            rng_b = np.random.default_rng(seed + 100)
            expected = scalar_pmm_transform(reference, matrix, rng_a)
            got = fast.transform(matrix, rng_b)
            np.testing.assert_array_equal(got, expected)
            assert rng_b.bit_generator.state == rng_a.bit_generator.state

    def test_cases_reach_every_branch(self):
        X, test = pmm_case(0)
        imputer = pp.PmmImputer.fit(X, donors=12)
        assert set(imputer.coefs) == {2, 3}             # only the train gaps
        imputer.transform(test, np.random.default_rng(0))
        assert 4 in imputer.coefs                       # solved on demand
        assert imputer.donor_preds[3].size < imputer.donors
        assert np.unique(imputer.donor_preds[2]).size < imputer.donor_preds[2].size
        A = np.column_stack([np.ones(2), test[:2][:, [0, 1, 4]]])
        low, high = A @ imputer.coefs[3]
        pool = imputer.donor_preds[3]
        assert low < pool[0] and high > pool[-1]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_one_vector_draw_equals_scalar_draws(self, k):
        a = np.random.default_rng(k)
        b = np.random.default_rng(k)
        scalar = [a.integers(k) for _ in range(1001)]
        vector = b.integers(k, size=1001)
        assert vector.tolist() == scalar
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random() == b.random()

    def test_lazy_to_dict_bytes_equal_eager(self):
        X, test = pmm_case(3)
        eager = pp.PmmImputer.fit(X)
        for j in range(X.shape[1]):
            eager._solve(j)
        lazy = pp.PmmImputer.fit(X)
        lazy.transform(test, np.random.default_rng(1))
        assert set(lazy.coefs) != set(range(X.shape[1]))
        assert json.dumps(lazy.to_dict()) == json.dumps(eager.to_dict())

    def test_loaded_imputer_transforms_like_the_fitted_one(self):
        X, test = pmm_case(4)
        fitted = pp.PmmImputer.fit(X)
        loaded = pp.PmmImputer.from_dict(fitted.to_dict())
        assert loaded.train is None
        np.testing.assert_array_equal(loaded.transform(test, np.random.default_rng(5)),
                                      fitted.transform(test, np.random.default_rng(5)))

    def test_threads_sharing_a_fresh_imputer_match_serial(self):
        X, test = pmm_case(5)
        seeds = range(16)
        serial_imputer = pp.PmmImputer.fit(X)
        expected = [serial_imputer.transform(test, np.random.default_rng(s)) for s in seeds]
        shared = pp.PmmImputer.fit(X)   # column 4 not solved yet
        start = threading.Barrier(4)

        def work(s):
            if s < 4:
                start.wait(timeout=30)
            return shared.transform(test, np.random.default_rng(s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, s) for s in seeds]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
