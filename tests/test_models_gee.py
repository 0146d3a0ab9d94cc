import numpy as np
import pytest

from injurylab.models import (ConvergenceError, fit_gee_ar1, fit_logistic_irls,
                              sigmoid)
from injurylab.models.gee import _ar1_inverse_apply


def grouped_data(rng, n_groups=25, group_size=12, p=3):
    X = rng.normal(size=(n_groups * group_size, p))
    beta = rng.normal(scale=0.7, size=p)
    y = (rng.random(X.shape[0]) < sigmoid(X @ beta - 1.0)).astype(float)
    if y.sum() in (0, y.size):
        y[0] = 1 - y[0]
    groups = np.repeat([f"G{i}" for i in range(n_groups)], group_size)
    return X, y, groups


def markov_binary_panel(rng, n_groups=40, length=30, base_rate=0.3, rho=0.5):
    """Stationary binary chains with lag-k correlation rho**k."""
    stay = base_rate + rho * (1 - base_rate)   # P(1 | 1)
    flip = base_rate * (1 - rho)               # P(1 | 0)
    rows = []
    for _ in range(n_groups):
        state = 1 if rng.random() < base_rate else 0
        chain = [state]
        for _ in range(length - 1):
            p_one = stay if chain[-1] == 1 else flip
            chain.append(1 if rng.random() < p_one else 0)
        rows.extend(chain)
    y = np.array(rows, dtype=float)
    groups = np.repeat([f"G{i}" for i in range(n_groups)], length)
    X = rng.normal(size=(y.size, 2)) * 0.01    # near-null covariates
    return X, y, groups


class TestAr1Inverse:
    def test_matches_dense_inverse(self, rng):
        for n in (1, 2, 3, 7):
            alpha = 0.6
            R = alpha ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            block = rng.normal(size=(n, 4))
            expected = np.linalg.solve(R, block)
            np.testing.assert_allclose(_ar1_inverse_apply(block, alpha), expected,
                                       atol=1e-10)

    def test_zero_alpha_is_identity(self, rng):
        block = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(_ar1_inverse_apply(block, 0.0), block)


class TestGeeAr1:
    def test_zero_alpha_matches_independence_logistic(self, rng):
        X, y, groups = grouped_data(rng)
        model = fit_gee_ar1(X, y, groups, alpha=0.0)
        b, beta = fit_logistic_irls(X, y, tol=1e-10, max_iter=200)
        assert model.params["intercept"] == pytest.approx(b, abs=1e-6)
        np.testing.assert_allclose(model.params["beta"], beta, atol=1e-6)

    def test_singleton_groups_reduce_to_logistic(self, rng):
        X, y, _ = grouped_data(rng, n_groups=200, group_size=1)
        groups = np.array([f"G{i}" for i in range(X.shape[0])])
        model = fit_gee_ar1(X, y, groups)
        assert model.params["working_alpha"] == 0.0
        b, beta = fit_logistic_irls(X, y, tol=1e-10, max_iter=200)
        assert model.params["intercept"] == pytest.approx(b, abs=1e-6)
        np.testing.assert_allclose(model.params["beta"], beta, atol=1e-6)

    def test_recovers_planted_correlation(self):
        estimates = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X, y, groups = markov_binary_panel(rng, rho=0.5)
            model = fit_gee_ar1(X, y, groups)
            estimates.append(model.params["working_alpha"])
        assert 0.3 <= float(np.mean(estimates)) <= 0.7

    def test_marginal_probability_scores(self, rng):
        X, y, groups = grouped_data(rng)
        model = fit_gee_ar1(X, y, groups)
        scores = model.score(X)
        expected = sigmoid(model.params["intercept"] + X @ model.params["beta"])
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_iteration_cap_raises(self, rng):
        X, y, groups = grouped_data(rng)
        with pytest.raises(ConvergenceError):
            fit_gee_ar1(X, y, groups, max_iter=1)

    def test_non_contiguous_groups_rejected(self, rng):
        X, y, groups = grouped_data(rng)
        split = np.concatenate([groups[6:], groups[:6]])   # G0 in two runs
        with pytest.raises(ValueError, match="'G0' is not contiguous"):
            fit_gee_ar1(X, y, split)
        interleaved = np.array([f"G{i % 25}" for i in range(groups.size)])
        with pytest.raises(ValueError, match="not contiguous"):
            fit_gee_ar1(X, y, interleaved)
