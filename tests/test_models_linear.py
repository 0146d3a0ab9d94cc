import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import linear
from injurylab.models import (ConvergenceError, ModelSpec, candidate_grid,
                              fit_elastic_net_raw, fit_model, log_loss, sigmoid,
                              smooth_gradient)


def logistic_data(rng, n=300, p=5, intercept=-1.0, scale=1.0):
    X = rng.normal(size=(n, p))
    beta = rng.normal(scale=scale, size=p)
    prob = sigmoid(intercept + X @ beta)
    y = (rng.random(n) < prob).astype(float)
    if y.sum() in (0, n):
        y[0] = 1 - y[0]
    return X, y


def separable_data(rng, n=120):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    X[y == 1, 0] += 2.0     # widen the margin
    X[y == 0, 0] -= 2.0
    return X, y


class TestElasticNetSolver:
    def test_unpenalized_first_order_optimality(self, rng):
        X, y = logistic_data(rng)
        b, beta, _ = fit_elastic_net_raw(X, y, 0.0, 1.0)
        g0, g = smooth_gradient(b, beta, X, y)
        assert max(abs(g0), float(np.max(np.abs(g)))) < 1e-5

    def test_full_shrinkage_at_extreme_penalty(self, rng):
        X, y = logistic_data(rng)
        b, beta, _ = fit_elastic_net_raw(X, y, 1e6, 1.0)
        assert np.all(beta == 0.0)
        assert sigmoid(b) == pytest.approx(y.mean(), abs=1e-9)

    def test_separable_fixture_perfect_training_auc(self, rng):
        X, y = separable_data(rng)
        b, beta, _ = fit_elastic_net_raw(X, y, 1e-3, 0.5)
        assert auc(sigmoid(b + X @ beta), y) == 1.0

    def test_gradient_matches_finite_differences(self, rng):
        X, y = logistic_data(rng, n=80, p=4)
        lam, alpha = 0.05, 0.3
        h = 1e-6
        for _ in range(20):
            b = float(rng.normal())
            beta = rng.normal(size=4)
            g0, g = smooth_gradient(b, beta, X, y, lam, alpha)
            numeric = np.empty(5)
            for k in range(5):
                def value(eps, k=k):
                    bb = b + (eps if k == 0 else 0.0)
                    vec = beta.copy()
                    if k > 0:
                        vec[k - 1] += eps
                    # smooth part only: log-loss plus the ridge term
                    return (log_loss(bb, vec, X, y, 0.0, 0.0)
                            + lam * (1 - alpha) * 0.5 * vec @ vec)
                numeric[k] = (value(h) - value(-h)) / (2 * h)
            analytic = np.r_[g0, g]
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    def test_l1_norm_shrinks_along_lambda_path(self, rng):
        X, y = logistic_data(rng, n=250, p=6)
        norms = []
        for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            _, beta, _ = fit_elastic_net_raw(X, y, lam, 1.0)
            norms.append(np.abs(beta).sum())
        assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))

    def test_iteration_cap_raises_with_diagnostics(self, rng):
        X, y = logistic_data(rng)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_elastic_net_raw(X, y, 1e-3, 0.5, max_iter=1)
        assert "lam" in str(excinfo.value)

    def test_warm_start_matches_cold_start(self, rng):
        X, y = logistic_data(rng)
        b_cold, beta_cold, _ = fit_elastic_net_raw(X, y, 0.01, 0.5)
        b_seed, beta_seed, _ = fit_elastic_net_raw(X, y, 0.1, 0.5)
        b_warm, beta_warm, _ = fit_elastic_net_raw(X, y, 0.01, 0.5,
                                                   init=(b_seed, beta_seed))
        assert b_warm == pytest.approx(b_cold, abs=1e-5)
        np.testing.assert_allclose(beta_warm, beta_cold, atol=1e-5)


class TestElasticNetModel:
    def test_cv_fit_and_score(self, rng):
        X, y = logistic_data(rng, n=400)
        model = fit_model(ModelSpec("logistic_elastic_net",
                                    candidate_grid(lam=(1e-3, 1e-1), alpha=(0.5,)),
                                    folds=5), X, y, rng)
        assert model.family == "logistic_elastic_net"
        assert set(model.hyperparams) == {"lam", "alpha"}
        scores = model.score(X)
        assert np.all((scores >= 0) & (scores <= 1))
        assert auc(scores, y) > 0.7

    def test_single_candidate_skips_cv(self, rng):
        X, y = logistic_data(rng)
        model = fit_model(ModelSpec("logistic_elastic_net",
                                    candidate_grid(lam=(0.01,), alpha=(1.0,))), X, y, rng)
        assert model.hyperparams == {"lam": 0.01, "alpha": 1.0}
        assert "cv_table" not in model.metadata

    def test_warm_start_chain_within_each_fold(self, rng, monkeypatch):
        X, y = logistic_data(rng, n=120, p=3)
        original = linear.fit_elastic_net_raw
        calls = []

        def recording(X, y, lam, alpha, init=None):
            calls.append({"lam": lam, "alpha": alpha, "init": init})
            if (lam, alpha) == (0.1, 0.5):
                raise ConvergenceError("no")
            calls[-1]["out"] = original(X, y, lam, alpha, init=init)
            return calls[-1]["out"]

        monkeypatch.setattr(linear, "fit_elastic_net_raw", recording)
        grid = candidate_grid(lam=(1.0, 0.1, 0.01), alpha=(0.5, 1.0))
        with pytest.warns(UserWarning, match="failed on fold"):
            fit_model(ModelSpec("logistic_elastic_net", grid, folds=3), X, y, rng)
        assert len(calls) == 3 * 6 + 1
        order = [(1.0, 0.5), (0.1, 0.5), (0.01, 0.5), (1.0, 1.0), (0.1, 1.0), (0.01, 1.0)]
        # fold start, after the failure and at the alpha change: cold;
        # otherwise the previous candidate's (b, beta)
        warm = [False, True, False, False, True, True]
        for fold in range(3):
            chain = calls[6 * fold:6 * fold + 6]
            assert [(call["lam"], call["alpha"]) for call in chain] == order
            for previous, call, is_warm in zip([None] + chain, chain, warm):
                if is_warm:
                    b, beta, _ = previous["out"]
                    assert call["init"][0] == b and call["init"][1] is beta
                else:
                    assert call["init"] is None
        assert calls[-1]["init"] is None       # the final refit starts cold

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(20, 2))
        with pytest.raises(ValueError, match="single-class"):
            fit_model(ModelSpec("logistic_elastic_net",
                                candidate_grid(lam=(0.1,), alpha=(0.5,))),
                      X, np.ones(20), np.random.default_rng(0))


class TestUnivariateLogistic:
    def test_null_data_near_chance(self):
        slopes, aucs = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=200)
            y = (rng.random(200) < 0.3).astype(float)
            model = fit_model(ModelSpec("univariate_logistic"), x[:, None], y, rng)
            slopes.append(model.params["slope"])
            aucs.append(auc(model.score(x.reshape(-1, 1)), y))
        assert abs(np.mean(slopes)) < 0.05
        assert abs(np.mean(aucs) - 0.5) < 0.05

    def test_separable_monotone_and_perfect(self, rng):
        x = np.concatenate([rng.uniform(0.5, 2, 50), rng.uniform(-2, -0.5, 50)])
        y = (x > 0).astype(float)
        model = fit_model(ModelSpec("univariate_logistic"), x[:, None], y, rng)
        order = np.argsort(x)
        probs = model.score(x.reshape(-1, 1))
        assert np.all(np.diff(probs[order]) >= 0)
        assert auc(probs, y) == 1.0

    def test_constant_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="single-class"):
            fit_model(ModelSpec("univariate_logistic"), rng.normal(size=(30, 1)),
                      np.zeros(30), rng)


class TestUnivariateFamily:
    def test_cv_selects_informative_column(self, rng):
        n = 400
        signal = rng.normal(size=n)
        X = np.column_stack([rng.normal(size=n), signal, rng.normal(size=n)])
        y = (rng.random(n) < sigmoid(2.0 * signal - 1.0)).astype(float)
        model = fit_model(ModelSpec("univariate_logistic",
                                    candidate_grid(column=[0, 1, 2]), folds=5),
                          X, y, rng, feature_names=["a", "b", "c"])
        assert model.hyperparams["column"] == 1
        assert model.score(X).shape == (n,)

    def test_column_subset_grid(self, rng):
        X, y = logistic_data(rng, n=200, p=4)
        model = fit_model(ModelSpec("univariate_logistic", candidate_grid(column=[2])),
                          X, y, rng)
        assert model.params["column"] == 2
