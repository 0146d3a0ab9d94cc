"""Generalized estimating equations with a logit link and an AR(1) working
correlation over each athlete's time-ordered observations.

The correlation parameter is a moment estimator over lag-1 products of
Pearson residuals; beta updates are Fisher scoring steps.  Groups of size one
contribute as independent observations.
"""

from __future__ import annotations

import numpy as np

from .base import (ConvergenceError, TrainedModel, check_binary_labels,
                   register_family, sigmoid)
from .linear import _score_linear

GEE_TOL = 1e-6
GEE_MAX_ITER = 200
_MIN_VAR = 1e-10
_ALPHA_BOUND = 0.95


def _group_slices(groups):
    """Contiguous (start, stop) runs per group, in row order.  A group whose
    rows form more than one run raises ValueError, rather than being fitted
    as several independent clusters."""
    groups = np.asarray(groups)
    slices = []
    seen = set()
    start = 0
    for i in range(1, groups.size + 1):
        if i == groups.size or groups[i] != groups[start]:
            if groups[start] in seen:
                raise ValueError(f"GEE group '{groups[start]}' is not contiguous; "
                                 "rows must be sorted by group")
            seen.add(groups[start])
            slices.append((start, i))
            start = i
    return slices


def _ar1_inverse_apply(block, alpha):
    """R(alpha)^-1 @ block for the AR(1) correlation matrix, tridiagonal form."""
    n = block.shape[0]
    if n == 1 or alpha == 0.0:
        return block.copy()
    denom = 1.0 - alpha * alpha
    out = np.empty_like(block)
    out[0] = (block[0] - alpha * block[1]) / denom
    out[-1] = (block[-1] - alpha * block[-2]) / denom
    if n > 2:
        out[1:-1] = ((1.0 + alpha * alpha) * block[1:-1]
                     - alpha * (block[:-2] + block[2:])) / denom
    return out


def _moment_alpha(residuals, slices, n_params):
    """Lag-1 moment estimator of the AR(1) parameter from Pearson residuals."""
    n = residuals.size
    lag_sum = 0.0
    n_pairs = 0
    for start, stop in slices:
        r = residuals[start:stop]
        if r.size > 1:
            lag_sum += float(r[:-1] @ r[1:])
            n_pairs += r.size - 1
    if n_pairs - n_params <= 0:
        return 0.0
    phi = float(residuals @ residuals) / max(n - n_params, 1)
    if phi <= 0.0:
        return 0.0
    alpha = lag_sum / ((n_pairs - n_params) * phi)
    return float(np.clip(alpha, -_ALPHA_BOUND, _ALPHA_BOUND))


def fit_gee_ar1(X, y, groups, alpha: float | None = None, tol: float = GEE_TOL,
                max_iter: int = GEE_MAX_ITER, feature_names=None) -> TrainedModel:
    """Fit the GEE; rows must be grouped by athlete (ValueError otherwise)
    and time-ordered within each group.  ``alpha=None`` re-estimates the
    working correlation each iteration; a fixed value (e.g. 0.0) pins it.
    """
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    n, p = X.shape
    slices = _group_slices(groups)
    A = np.column_stack([np.ones(n), X])
    n_params = p + 1

    base = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    theta = np.zeros(n_params)
    theta[0] = np.log(base / (1.0 - base))
    alpha_hat = 0.0 if alpha is None else float(alpha)

    for iteration in range(1, max_iter + 1):
        mu = sigmoid(A @ theta)
        var = np.maximum(mu * (1.0 - mu), _MIN_VAR)
        sqrt_var = np.sqrt(var)
        pearson = (y - mu) / sqrt_var
        if alpha is None:
            alpha_hat = _moment_alpha(pearson, slices, n_params)

        lhs = np.zeros((n_params, n_params))
        rhs = np.zeros(n_params)
        for start, stop in slices:
            M = A[start:stop] * sqrt_var[start:stop, None]
            e = pearson[start:stop]
            rinv_m = _ar1_inverse_apply(M, alpha_hat)
            lhs += M.T @ rinv_m
            rhs += rinv_m.T @ e
        try:
            step = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular GEE information matrix: {exc}") from exc
        theta = theta + step
        if float(np.max(np.abs(step))) < tol:
            names = list(feature_names) if feature_names is not None else [
                f"x{j}" for j in range(p)
            ]
            return TrainedModel(
                family="gee_ar1",
                feature_names=names,
                hyperparams={"alpha_fixed": alpha},
                params={"intercept": float(theta[0]), "beta": theta[1:],
                        "working_alpha": alpha_hat},
                metadata={"iterations": iteration},
            )
    raise ConvergenceError(
        f"GEE did not converge in {max_iter} iterations "
        f"(last max step={float(np.max(np.abs(step))):.3e})",
        iterations=max_iter,
    )


register_family("gee_ar1", _score_linear)
