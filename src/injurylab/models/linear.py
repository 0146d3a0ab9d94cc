"""Logistic regression models: elastic-net penalized (proximal Newton) and
unregularized univariate fits (iteratively reweighted least squares).

The elastic net minimizes
    mean log-loss + lam * (alpha * ||beta||_1 + (1 - alpha) * ||beta||_2^2 / 2)
with an unpenalized intercept.  Each outer step re-linearizes the log-loss at
the current point, solves the penalized quadratic model (by FISTA, or exactly
when there is no L1 term) and backtracks along the step on the true
objective.
"""

from __future__ import annotations

import numpy as np

from .base import (ConvergenceError, TrainedModel, check_binary_labels,
                   register_family, sigmoid)
from .tuning import FIT_ERRORS, coerce_grid, each_candidate, tune

LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
ALPHA_GRID = (0.0, 0.5, 1.0)

ENET_TOL = 1e-7
ENET_MAX_ITER = 10000
UNIVARIATE_TOL = 1e-8
UNIVARIATE_MAX_ITER = 100
_MIN_WEIGHT = 1e-5
_FISTA_MAX_STEPS = 100000


def log_loss(intercept, beta, X, y, lam: float = 0.0, alpha: float = 0.0) -> float:
    """Mean logistic log-loss plus the elastic-net penalty."""
    eta = intercept + X @ beta
    # log(1 + exp(-y_pm * eta)) with y in {0,1}, numerically stable
    margin = np.where(y == 1, eta, -eta)
    loss = float(np.mean(np.logaddexp(0.0, -margin)))
    penalty = lam * (alpha * np.abs(beta).sum() + (1 - alpha) * 0.5 * beta @ beta)
    return loss + penalty


def smooth_gradient(intercept, beta, X, y, lam: float = 0.0, alpha: float = 0.0):
    """Gradient of the smooth part (log-loss + ridge term) wrt (intercept, beta)."""
    n = X.shape[0]
    p_hat = sigmoid(intercept + X @ beta)
    resid = p_hat - y
    grad_b = float(resid.sum() / n)
    grad_beta = X.T @ resid / n + lam * (1 - alpha) * beta
    return grad_b, grad_beta


def fit_elastic_net_raw(X, y, lam: float, alpha: float, tol: float = ENET_TOL,
                        max_iter: int = ENET_MAX_ITER, init=None):
    """Proximal Newton solve for one (lam, alpha); returns (b, beta, sweeps).

    Each outer step re-linearizes the log-loss at the current point (weighted
    least squares working response), minimizes the penalized quadratic model
    (FISTA, or an exact linear solve when the L1 term is zero) and then
    backtracks along the step until the true objective does not rise.
    Converged when an outer step moves no parameter by tol or more, or when
    no backtracked step descends.  ``sweeps`` counts outer steps, and
    max_iter caps them.
    """
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    n, p = X.shape
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    if init is None:
        base = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        b = float(np.log(base / (1.0 - base)))
        beta = np.zeros(p)
    else:
        b, beta = float(init[0]), np.asarray(init[1], dtype=float).copy()

    l1 = lam * alpha
    l2 = lam * (1.0 - alpha)
    A = np.column_stack([np.ones(n), X])
    theta = np.concatenate([[b], beta])
    ridge = np.full(p + 1, l2)
    ridge[0] = 0.0               # intercept unpenalized
    outer_change = float("inf")

    def fail(reason, iterations):
        return ConvergenceError(
            f"elastic net did not converge: {reason} (lam={lam:g}, alpha={alpha:g}, "
            f"iterations={iterations}, last change={outer_change:.3e})",
            lam=lam, alpha=alpha, iterations=iterations, last_delta=outer_change,
        )

    for iteration in range(1, max_iter + 1):
        eta = A @ theta
        p_hat = sigmoid(eta)
        w = np.maximum(p_hat * (1.0 - p_hat), _MIN_WEIGHT)
        # exact working gradient: c - G @ theta == -grad(mean log-loss)
        G = (A * w[:, None]).T @ A / n
        c = (A * w[:, None]).T @ eta / n + A.T @ (y - p_hat) / n
        H = G + np.diag(ridge)
        theta_start = theta.copy()

        if l1 == 0.0:
            # pure ridge subproblem: exact damped Newton step
            try:
                theta = np.linalg.solve(H, c)
            except np.linalg.LinAlgError as exc:
                raise fail(f"singular system ({exc})", iteration) from exc
        else:
            theta = _fista_quadratic(
                H, c, theta, l1,
                stop_tol=max(0.1 * tol, min(1e-3, 0.1 * outer_change)),
            )
            if theta is None:
                raise fail("inner solver stalled", iteration)
        # the quadratic model can overshoot the true loss when probabilities
        # saturate, so backtrack on the penalized objective
        direction = theta - theta_start
        current = log_loss(theta_start[0], theta_start[1:], X, y, lam, alpha)
        scale = 1.0
        accepted = False
        for _ in range(40):
            trial = theta_start + scale * direction
            if log_loss(trial[0], trial[1:], X, y, lam, alpha) <= current:
                theta = trial
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # no descent along the subproblem direction: numerical optimum
            return float(theta_start[0]), theta_start[1:].copy(), iteration
        if float(np.max(np.abs(theta))) > 1e6:
            raise fail("coefficients diverging (data may be separable)", iteration)
        outer_change = float(np.max(np.abs(theta - theta_start)))
        if outer_change < tol:
            return float(theta[0]), theta[1:].copy(), iteration
    raise fail(f"iteration cap {max_iter} reached", max_iter)


def _fista_quadratic(H, c, theta0, l1, stop_tol):
    """Minimize 0.5 x'Hx - c'x + l1*||x[1:]||_1 by FISTA with adaptive restart.

    Returns the solution, or None if the _FISTA_MAX_STEPS cap is hit.  The
    first coordinate (intercept) is never thresholded.
    """
    lip = float(np.linalg.eigvalsh(H)[-1])
    if lip <= 0.0:
        return None
    theta = theta0.copy()
    momentum = theta.copy()
    t_k = 1.0
    shrink = l1 / lip
    for _ in range(_FISTA_MAX_STEPS):
        grad = H @ momentum - c
        candidate = momentum - grad / lip
        candidate[1:] = np.sign(candidate[1:]) * np.maximum(
            np.abs(candidate[1:]) - shrink, 0.0)
        step = candidate - theta
        if float((momentum - candidate) @ step) > 0.0:
            momentum = candidate.copy()   # adaptive restart
            t_k = 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
            momentum = candidate + ((t_k - 1.0) / t_next) * step
            t_k = t_next
        theta = candidate
        if float(np.max(np.abs(step))) < stop_tol:
            return theta
    return None


def tune_elastic_net(X, y, grid, **cv) -> TrainedModel:
    """Elastic net over the grid's (lam, alpha) candidates, run alpha-major
    (alphas in order of first appearance) with lam descending, so warm starts
    chain along each penalty path.  AUC ties prefer the larger penalty, then
    the larger L1 share; ``cv`` goes to tune."""
    def fit(candidates, X, y, rows, rngs):
        # a fit starts from its predecessor's solution when that one has the
        # same alpha and converged, and cold otherwise
        X_rows, y_rows = X[rows], y[rows]
        init, init_alpha = None, None
        for params in candidates:
            lam, alpha = params["lam"], params["alpha"]
            try:
                b, beta, sweeps = fit_elastic_net_raw(
                    X_rows, y_rows, lam, alpha, init=init if init_alpha == alpha else None)
            except FIT_ERRORS as exc:
                init, init_alpha = None, None
                yield exc
                continue
            init, init_alpha = (b, beta), alpha
            yield {"intercept": b, "beta": beta}, {"sweeps": sweeps}

    candidates = coerce_grid(grid, lam=float, alpha=float)
    alphas = list(dict.fromkeys(params["alpha"] for params in candidates))
    candidates.sort(key=lambda params: (alphas.index(params["alpha"]), -params["lam"]))
    return tune("logistic_elastic_net", candidates, fit, X, y,
                prefer=lambda prm: (prm["lam"], prm["alpha"]), **cv)


def fit_logistic_irls(X, y, tol: float = UNIVARIATE_TOL,
                      max_iter: int = UNIVARIATE_MAX_ITER):
    """Unregularized logistic MLE by Newton steps with halving; returns (b, beta)."""
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    n, p = X.shape
    A = np.column_stack([np.ones(n), X])
    theta = np.zeros(p + 1)
    loss = log_loss(theta[0], theta[1:], X, y)
    for _ in range(max_iter):
        p_hat = sigmoid(A @ theta)
        w = np.maximum(p_hat * (1.0 - p_hat), _MIN_WEIGHT)
        grad = A.T @ (p_hat - y) / n
        hess = (A * w[:, None]).T @ A / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(40):
            candidate = theta - scale * step
            new_loss = log_loss(candidate[0], candidate[1:], X, y)
            if new_loss <= loss:
                break
            scale *= 0.5
        theta = theta - scale * step
        loss = new_loss
        if float(np.max(np.abs(scale * step))) < tol:
            break
    return float(theta[0]), theta[1:]


def tune_univariate(X, y, grid, **cv) -> TrainedModel:
    """Univariate logistic fits over the grid's columns; CV picks the column,
    ties going to the lower index.  The model scores the full feature matrix."""
    def fit_one(params, X_rows, y_rows, rng):
        j = params["column"]
        b, beta = fit_logistic_irls(X_rows[:, j:j + 1], y_rows)
        return {"intercept": b, "slope": float(beta[0]), "column": j}, {}

    return tune("univariate_logistic", coerce_grid(grid, column=int),
                each_candidate(fit_one), X, y, prefer=lambda prm: -prm["column"], **cv)


def _score_linear(params, X):
    return sigmoid(params["intercept"] + X @ np.asarray(params["beta"], dtype=float))


def _score_univariate(params, X):
    j = int(params["column"])
    return sigmoid(params["intercept"] + params["slope"] * X[:, j])


register_family("logistic_elastic_net", _score_linear)
register_family("univariate_logistic", _score_univariate)
