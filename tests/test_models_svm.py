import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import (ConvergenceError, ModelSpec, candidate_grid, fit_model,
                              fit_svm_rbf_raw, rbf_kernel, svm)
from injurylab.pipeline import (PipelineSettings, Protocol, fit_preprocessing,
                                modeling_data_from_records)
from injurylab.preprocess import smote
from injurylab.synthdata import generate_cohort, signal_config


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
        sv, coef, b = fit_svm_rbf_raw(X, y, C=10.0, gamma=1.0)
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


@pytest.fixture(scope="module")
def smote_set():
    """The 2014 nc training rows of a 12-athlete synthetic cohort, standardized
    and SMOTE-balanced: 1592 rows of 60 features, labels in {0, 1}."""
    cohort = generate_cohort(signal_config(seed=11, n_athletes=12, seasons=(2014, 2015),
                                           season_weeks=26, missing_rate=0.02))
    data = modeling_data_from_records(cohort.sessions, cohort.injuries, cohort.athletes,
                                      (2014,), (2015,))[3]
    _, Z = fit_preprocessing(data.X_train, PipelineSettings(), Protocol(),
                             np.random.default_rng(11))
    balanced = smote(Z, data.y_train["nc"], np.random.default_rng(11))
    return balanced.X, balanced.y


class TestSmo:
    C, GAMMA = 10.0, 0.01

    def test_smote_set_meets_the_kkt_conditions(self, smote_set):
        X, y01 = smote_set
        y = np.where(y01 == 1, 1.0, -1.0)
        K = rbf_kernel(X, X, self.GAMMA)
        alpha, _ = svm._smo(K, y, self.C)
        assert np.all((alpha >= 0.0) & (alpha <= self.C))
        assert abs(y @ alpha) < 1e-9
        v = y - K @ (alpha * y)  # -y * dual gradient, recomputed from alpha
        up = np.where(y > 0, alpha < self.C, alpha > 0.0)
        low = np.where(y > 0, alpha > 0.0, alpha < self.C)
        assert v[up].max() - v[low].min() < svm.KKT_TOL

    def test_step_cap_raises_with_the_step_count(self, smote_set, monkeypatch):
        X, y = smote_set
        monkeypatch.setattr(svm, "SMO_STEPS_PER_ROW", 1)
        with pytest.raises(ConvergenceError) as caught:
            fit_svm_rbf_raw(X, y, self.C, self.GAMMA)
        assert caught.value.diagnostics == {"steps": y.size}

    def test_same_data_bit_identical(self, smote_set):
        X, y = smote_set
        first = fit_svm_rbf_raw(X, y, self.C, self.GAMMA)
        second = fit_svm_rbf_raw(X, y, self.C, self.GAMMA)
        assert [np.asarray(a).tobytes() for a in first] == \
            [np.asarray(b).tobytes() for b in second]

    @pytest.mark.parametrize("C, gamma", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_non_positive_c_or_gamma_rejected(self, C, gamma):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="C and gamma"):
            fit_svm_rbf_raw(X, np.array([1.0, 0.0]), C, gamma)
