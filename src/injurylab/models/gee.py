"""Generalized estimating equations with a logit link and an AR(1) working
correlation over each athlete's time-ordered observations.

The correlation parameter is a lag-1 moment estimator over Pearson residuals;
beta updates are Fisher scoring steps, each scaled down so that its largest
component is at most GEE_MAX_STEP.  From the null start on many correlated
raw columns a full step overshoots, and repeated full steps diverge; capped
steps walk to the same root, near which the full steps fall below the cap.
Convergence is judged on the full, unscaled step.

A group's rows must form one contiguous run; rows i and i+1 are linked when
they share a group.  R(alpha)^-1 = L'L for the bidiagonal L that keeps a
group's first row and maps each linked row to (b_i - alpha b_{i-1}) /
sqrt(1 - alpha^2) (Prais & Winsten 1954), so one whitening pass over all rows
applies the block-diagonal inverse.
"""

from __future__ import annotations

import numpy as np

from .base import (ConvergenceError, TrainedModel, check_binary_labels,
                   register_family, resolve_feature_names, sigmoid)
from .linear import _score_linear

GEE_TOL = 1e-6
GEE_MAX_STEP = 10.0
GEE_MAX_ITER = 200
_MIN_VAR = 1e-10
_ALPHA_BOUND = 0.95


def _links(groups):
    """Bool vector, True where rows i and i+1 share a group.  A group whose
    rows form more than one run raises ValueError naming the first group, in
    row order, that comes back after another group."""
    groups = np.asarray(groups)
    links = groups[1:] == groups[:-1]
    labels = groups[np.r_[True, ~links]]
    repeats = np.setdiff1d(np.arange(labels.size), np.unique(labels, return_index=True)[1])
    if repeats.size:
        raise ValueError(f"GEE group '{labels[repeats[0]]}' is not contiguous; "
                         "rows must be sorted by group")
    return links


def _whiten(B, alpha, links):
    """L @ B for the block-diagonal AR(1) factor L (R^-1 = L'L), written into one
    new array: a second full-size temporary costs more than the arithmetic."""
    if alpha == 0.0:
        return B
    lag = (alpha * links).reshape((-1,) + (1,) * (B.ndim - 1))
    out = np.empty_like(B)
    out[0] = B[0]
    np.subtract(B[1:], np.multiply(B[:-1], lag, out=out[1:]), out=out[1:])
    out[1:] /= np.sqrt(1.0 - alpha * lag)
    return out


def _moment_alpha(residuals, links, n_params):
    """Lag-1 moment estimator of the AR(1) parameter from Pearson residuals."""
    lag_sum = float((residuals[:-1] * residuals[1:]) @ links)
    n_pairs = int(links.sum())
    phi = float(residuals @ residuals) / max(residuals.size - n_params, 1)
    if n_pairs <= n_params or phi <= 0.0:
        return 0.0
    alpha = lag_sum / ((n_pairs - n_params) * phi)
    return float(np.clip(alpha, -_ALPHA_BOUND, _ALPHA_BOUND))


def fit_gee_ar1(X, y, groups, alpha: float | None = None, tol: float = GEE_TOL,
                max_iter: int = GEE_MAX_ITER, feature_names=None) -> TrainedModel:
    """Fit the GEE on one group label per row; rows must be grouped by athlete
    (ValueError otherwise) and time-ordered within each group.  ``alpha=None``
    re-estimates the working correlation each iteration; a fixed value pins it.

    Each Fisher step is scaled so that max|step| <= GEE_MAX_STEP.  The fit
    converges when the full, unscaled step is below ``tol``; at the iteration
    cap, ConvergenceError reports that full step as ``last_step``.
    """
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    n, p = X.shape
    if len(groups) != n:
        raise ValueError(f"groups has {len(groups)} labels for {n} rows of X")
    links = _links(groups)
    A = np.column_stack([np.ones(n), X])

    base = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    theta = np.zeros(p + 1)
    theta[0] = np.log(base / (1.0 - base))
    alpha_hat = 0.0 if alpha is None else float(alpha)

    for iteration in range(1, max_iter + 1):
        mu = sigmoid(A @ theta)
        sqrt_var = np.sqrt(np.maximum(mu * (1.0 - mu), _MIN_VAR))
        pearson = (y - mu) / sqrt_var
        if alpha is None:
            alpha_hat = _moment_alpha(pearson, links, p + 1)

        W = _whiten(A * sqrt_var[:, None], alpha_hat, links)
        try:
            step = np.linalg.solve(W.T @ W, W.T @ _whiten(pearson, alpha_hat, links))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular GEE information matrix: {exc}") from exc
        last_step = float(np.max(np.abs(step)))
        if last_step > GEE_MAX_STEP:
            step *= GEE_MAX_STEP / last_step
        theta = theta + step
        if last_step < tol:
            return TrainedModel(
                family="gee_ar1",
                feature_names=resolve_feature_names(feature_names, p),
                hyperparams={"alpha_fixed": alpha},
                params={"intercept": float(theta[0]), "beta": theta[1:],
                        "working_alpha": alpha_hat},
                metadata={"iterations": iteration},
            )
    raise ConvergenceError(f"GEE did not converge in {max_iter} iterations "
                           f"(last max step={last_step:.3e})",
                           iterations=max_iter, last_step=last_step)


register_family("gee_ar1", _score_linear)
