import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import (ModelSpec, candidate_grid, fit_model, fit_svm_rbf_raw,
                              load_model, rbf_kernel, save_model)


def xor_data(rng, per_cluster=20, noise=0.15):
    centers = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        X.append(rng.normal((cx, cy), noise, size=(per_cluster, 2)))
        y.extend([label] * per_cluster)
    return np.vstack(X), np.array(y, dtype=float)


class TestKernel:
    def test_unit_diagonal_and_symmetry(self, rng):
        X = rng.normal(size=(10, 3))
        K = rbf_kernel(X, X, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), np.ones(10), atol=1e-12)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.all((K > 0) & (K <= 1.0 + 1e-12))


class TestSvmRbf:
    def test_two_point_symmetry(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, 0.0])
        sv, coef, b = fit_svm_rbf_raw(X, y, C=10.0, gamma=1.0,
                                      rng=np.random.default_rng(0))
        decision = rbf_kernel(X, sv, 1.0) @ coef + b
        assert decision[0] == pytest.approx(-decision[1], abs=1e-6)
        assert decision[0] > 0

    def test_xor_pattern_training_auc(self, rng):
        X, y = xor_data(rng)
        model = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(10.0,), gamma=(1.0,))),
                          X, y, np.random.default_rng(0))
        assert auc(model.score(X), y) == 1.0

    def test_duplicate_rows_mixed_labels_bounded(self):
        X = np.zeros((8, 2))
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
        model = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(1.0,), gamma=(0.1,))),
                          X, y, np.random.default_rng(0))
        scores = model.score(X)
        assert np.all(np.isfinite(scores))
        assert np.abs(scores).max() < 10.0

    def test_same_seed_same_model(self, rng):
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        a = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(1.0,), gamma=(0.5,))),
                      X, y, np.random.default_rng(3))
        b = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(1.0,), gamma=(0.5,))),
                      X, y, np.random.default_rng(3))
        np.testing.assert_array_equal(a.score(X), b.score(X))

    def test_cv_grid_selection(self, rng):
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        model = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(0.1, 1.0), gamma=(0.1,)),
                                    folds=4), X, y, np.random.default_rng(1))
        assert model.hyperparams["C"] in (0.1, 1.0)
        assert "cv_table" in model.metadata

    def test_serialization_roundtrip(self, rng, tmp_path):
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(float)
        model = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(1.0,), gamma=(0.5,))),
                          X, y, np.random.default_rng(2))
        path = tmp_path / "svm.json"
        save_model(model, path)
        clone = load_model(path)
        np.testing.assert_allclose(clone.score(X), model.score(X), atol=1e-12)
