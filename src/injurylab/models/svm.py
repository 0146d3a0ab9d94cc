"""Soft-margin SVM with an RBF kernel, trained by sequential minimal
optimization.  The score is the raw decision-function value, which is what a
rank-based evaluation (ROC/AUC) needs; no probability calibration.
"""

from __future__ import annotations

import numpy as np

from .base import (ConvergenceError, TrainedModel, check_binary_labels,
                   register_family)
from .tuning import coerce_grid, each_candidate, tune

C_GRID = (0.1, 1.0, 10.0)
GAMMA_GRID = (0.01, 0.1, 1.0)
KKT_TOL = 1e-3
SMO_MAX_SWEEPS = 2000
_MIN_ALPHA_STEP = 1e-8


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _smo(K, y_pm, C, rng):
    """Platt-style SMO with random second-index choice.

    Alternates full sweeps with sweeps over non-bound multipliers; converges
    when a full sweep finds no KKT violation beyond KKT_TOL, within
    SMO_MAX_SWEEPS sweeps.
    """
    n = y_pm.size
    alpha = np.zeros(n)
    b = 0.0
    f = np.zeros(n)  # decision values including b

    def examine(i):
        nonlocal b, f
        e_i = f[i] - y_pm[i]
        r = y_pm[i] * e_i
        if not ((r < -KKT_TOL and alpha[i] < C) or (r > KKT_TOL and alpha[i] > 0.0)):
            return False
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        e_j = f[j] - y_pm[j]
        if y_pm[i] != y_pm[j]:
            low = max(0.0, alpha[j] - alpha[i])
            high = min(C, C + alpha[j] - alpha[i])
        else:
            low = max(0.0, alpha[i] + alpha[j] - C)
            high = min(C, alpha[i] + alpha[j])
        if low >= high:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= 0.0:
            return False
        a_j = alpha[j] - y_pm[j] * (e_i - e_j) / eta
        a_j = min(max(a_j, low), high)
        if abs(a_j - alpha[j]) < _MIN_ALPHA_STEP:
            return False
        a_i = alpha[i] + y_pm[i] * y_pm[j] * (alpha[j] - a_j)
        d_i = y_pm[i] * (a_i - alpha[i])
        d_j = y_pm[j] * (a_j - alpha[j])
        b1 = b - e_i - d_i * K[i, i] - d_j * K[i, j]
        b2 = b - e_j - d_i * K[i, j] - d_j * K[j, j]
        if 0.0 < a_i < C:
            b_new = b1
        elif 0.0 < a_j < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        f += d_i * K[:, i] + d_j * K[:, j] + (b_new - b)
        alpha[i] = a_i
        alpha[j] = a_j
        b = b_new
        return True

    examine_all = True
    for _ in range(SMO_MAX_SWEEPS):
        changed = 0
        if examine_all:
            targets = range(n)
        else:
            targets = np.flatnonzero((alpha > 0.0) & (alpha < C))
        for i in targets:
            if examine(int(i)):
                changed += 1
        if examine_all:
            if changed == 0:
                return alpha, b
            examine_all = False
        elif changed == 0:
            examine_all = True
    raise ConvergenceError(
        f"SMO did not satisfy KKT tolerance {KKT_TOL:g} within {SMO_MAX_SWEEPS} sweeps",
        sweeps=SMO_MAX_SWEEPS,
    )


def fit_svm_rbf_raw(X, y, C: float, gamma: float, rng: np.random.Generator):
    """Single (C, gamma) fit; returns (support X, alpha*y over supports, b)."""
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    y_pm = np.where(y == 1, 1.0, -1.0)
    K = rbf_kernel(X, X, gamma)
    alpha, b = _smo(K, y_pm, C, rng)
    support = alpha > 1e-10
    return X[support], (alpha * y_pm)[support], b


def tune_svm(X, y, grid, **cv) -> TrainedModel:
    """RBF SVM over the grid's (C, gamma) candidates; AUC ties prefer smaller
    C, then smaller gamma.  ``cv`` goes to tune."""
    def fit_one(params, X_rows, y_rows, rng):
        sv, coef, b = fit_svm_rbf_raw(X_rows, y_rows, params["C"], params["gamma"], rng)
        return ({"support_vectors": sv, "dual_coef": coef, "intercept": b,
                 "gamma": params["gamma"]}, {"n_support": int(sv.shape[0])})

    return tune("svm_rbf", coerce_grid(grid, C=float, gamma=float),
                each_candidate(fit_one), X, y,
                prefer=lambda prm: (-prm["C"], -prm["gamma"]), **cv)


def _score_svm(params, X):
    sv = np.asarray(params["support_vectors"], dtype=float)
    if sv.shape[0] == 0:
        return np.full(X.shape[0], float(params["intercept"]))
    coef = np.asarray(params["dual_coef"], dtype=float)
    return rbf_kernel(X, sv, float(params["gamma"])) @ coef + float(params["intercept"])


def _decode_svm(params):
    sv = np.asarray(params["support_vectors"], dtype=float)
    if sv.size == 0:
        sv = sv.reshape(0, 0)
    return {
        "support_vectors": sv,
        "dual_coef": np.asarray(params["dual_coef"], dtype=float),
        "intercept": float(params["intercept"]),
        "gamma": float(params["gamma"]),
    }


register_family("svm_rbf", _score_svm, _decode_svm)
