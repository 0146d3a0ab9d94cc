"""Soft-margin SVM with an RBF kernel, trained by sequential minimal
optimization with second-order working-set selection (Fan, Chen & Lin 2005,
the libsvm rule).  The solver is deterministic: it draws no random numbers,
and ties go to the lowest index.  The score is the raw decision-function
value, which is what a rank-based evaluation (ROC/AUC) needs; no probability
calibration.
"""

from __future__ import annotations

import numpy as np

from .base import (ConvergenceError, TrainedModel, check_binary_labels,
                   register_family)
from .tuning import coerce_grid, each_candidate, tune

C_GRID = (0.1, 1.0, 10.0)
GAMMA_GRID = (0.01, 0.1, 1.0)
KKT_TOL = 1e-3
SMO_STEPS_PER_ROW = 100
_TAU = 1e-12


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _smo(K, y, C):
    """Solve the SVM dual over kernel matrix K and labels y in {-1, +1};
    returns (alpha, b).

    Each step moves the pair (i, j): i maximizes v = -y * grad over the
    multipliers free to rise along y (I_up), j is the I_low index below v[i]
    with the largest second-order gain (v[i] - v[j])^2 / curvature.  Stops
    when max v over I_up minus min v over I_low falls below KKT_TOL, or
    raises ConvergenceError after SMO_STEPS_PER_ROW steps per row.
    """
    n = y.size
    pos = y > 0
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective, Q @ alpha - 1
    diag = np.diag(K)
    steps = SMO_STEPS_PER_ROW * n
    for _ in range(steps):
        v = -y * grad
        up = np.where(pos, alpha < C, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < C)
        i = int(np.argmax(np.where(up, v, -np.inf)))
        low_min = float(np.min(v[low]))
        if v[i] - low_min < KKT_TOL:
            free = (alpha > 0.0) & (alpha < C)
            b = float(np.mean(v[free])) if free.any() else 0.5 * (v[i] + low_min)
            return alpha, b
        gap = v[i] - v
        curve = np.maximum(diag[i] + diag - 2.0 * K[i], _TAU)
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curve, -np.inf)))
        # room: how far each multiplier can move before it reaches a bound
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(gap[j] / curve[j], room_i, room_j)
        alpha[i] = C - (room_i - t) if pos[i] else room_i - t
        alpha[j] = room_j - t if pos[j] else C - (room_j - t)
        grad += t * y * (K[i] - K[j])
    raise ConvergenceError(
        f"SMO did not satisfy KKT tolerance {KKT_TOL:g} within {steps} steps",
        steps=steps,
    )


def fit_svm_rbf_raw(X, y, C: float, gamma: float):
    """Single (C, gamma) fit; returns (support X, alpha*y over supports, b)."""
    if C <= 0.0 or gamma <= 0.0:
        raise ValueError("C and gamma must be > 0")
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    y_pm = np.where(y == 1, 1.0, -1.0)
    alpha, b = _smo(rbf_kernel(X, X, gamma), y_pm, C)
    support = alpha > 0.0
    return X[support], (alpha * y_pm)[support], b


def tune_svm(X, y, grid, **cv) -> TrainedModel:
    """RBF SVM over the grid's (C, gamma) candidates; AUC ties prefer smaller
    C, then smaller gamma.  ``cv`` goes to tune."""
    def fit_one(params, X_rows, y_rows, rng):
        sv, coef, b = fit_svm_rbf_raw(X_rows, y_rows, params["C"], params["gamma"])
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


register_family("svm_rbf", _score_svm)
