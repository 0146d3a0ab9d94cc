import numpy as np
import pytest

from injurylab.metrics import auc
from injurylab.models import (ConvergenceError, fit_gee_ar1, fit_logistic_irls,
                              sigmoid)
from injurylab.models import gee
from injurylab.models.gee import _ALPHA_BOUND, _MIN_VAR, GEE_MAX_ITER, GEE_TOL, _whiten
from injurylab.pipeline import (PipelineSettings, Protocol, fit_preprocessing,
                                modeling_data_from_records)
from injurylab.synthdata import generate_cohort, signal_config


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


def ar1_correlation(n, alpha):
    return alpha ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


def links_of(sizes):
    """The links vector of contiguous groups with the given sizes."""
    return np.concatenate([[False] + [True] * (size - 1) for size in sizes])[1:]


class TestAr1Inverse:
    """_whiten applies the factor L of R^-1 = L'L, so L'(L block) must be
    the AR(1) inverse applied to the block."""

    def test_matches_dense_inverse(self, rng):
        for n in (1, 2, 3, 7):
            alpha = 0.6
            R = ar1_correlation(n, alpha)
            block = rng.normal(size=(n, 4))
            expected = np.linalg.solve(R, block)
            W = _whiten(np.eye(n), alpha, links_of([n]))
            np.testing.assert_allclose(W.T @ (W @ block), expected, atol=1e-10)

    def test_zero_alpha_is_identity(self, rng):
        block = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(_whiten(block, 0.0, links_of([5])), block)

    def test_several_groups_match_block_diagonal_inverse(self, rng):
        sizes, alpha = [1, 3, 1, 2, 7], 0.6
        n = sum(sizes)
        R_inv = np.zeros((n, n))
        start = 0
        for size in sizes:
            stop = start + size
            R_inv[start:stop, start:stop] = np.linalg.inv(ar1_correlation(size, alpha))
            start = stop
        block = rng.normal(size=(n, 4))
        W = _whiten(np.eye(n), alpha, links_of(sizes))
        np.testing.assert_allclose(W.T @ (W @ block), R_inv @ block, atol=1e-10)
        np.testing.assert_allclose(_whiten(block, alpha, links_of(sizes)), W @ block,
                                   atol=1e-15)


# The per-group fit that the whitened one replaced, kept as an oracle.

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


def reference_fit(X, y, groups, alpha=None, tol=GEE_TOL, max_iter=GEE_MAX_ITER):
    """(theta, working alpha, iterations) of the per-group Fisher loop."""
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
        step = np.linalg.solve(lhs, rhs)
        theta = theta + step
        if float(np.max(np.abs(step))) < tol:
            return theta, alpha_hat, iteration
    raise AssertionError("reference fit did not converge")


def smote_like_panel(rng, n_athletes=6, length=20, n_synthetic=8, p=3):
    """Athlete runs, each followed by synthetic positive rows that are each
    their own group, as the smote protocol treats them."""
    X = rng.normal(size=(n_athletes * (length + n_synthetic), p))
    y = (rng.random(X.shape[0]) < sigmoid(X @ np.array([0.8, -0.5, 0.3]) - 0.5))
    y = y.astype(float)
    groups = []
    for i in range(n_athletes):
        groups += [f"A{i}"] * length
        groups += [f"synthetic{i * n_synthetic + k}" for k in range(n_synthetic)]
        y[len(groups) - n_synthetic:len(groups)] = 1.0
    return X, y, np.array(groups, dtype=object)


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
        with pytest.raises(ConvergenceError) as info:
            fit_gee_ar1(X, y, groups, max_iter=1)
        assert info.value.diagnostics["iterations"] == 1
        last_step = info.value.diagnostics["last_step"]
        assert last_step >= GEE_TOL
        assert f"last max step={last_step:.3e}" in str(info.value)

    @pytest.mark.parametrize("panel", [grouped_data, markov_binary_panel,
                                       smote_like_panel])
    @pytest.mark.parametrize("alpha", [None, 0.0, 0.5])
    def test_matches_per_group_loop(self, rng, panel, alpha):
        X, y, groups = panel(rng)
        theta, working_alpha, iterations = reference_fit(X, y, groups, alpha)
        model = fit_gee_ar1(X, y, groups, alpha=alpha)
        fitted = np.r_[model.params["intercept"], model.params["beta"]]
        np.testing.assert_allclose(fitted, theta, rtol=0, atol=1e-10)
        assert model.params["working_alpha"] == pytest.approx(working_alpha, abs=1e-12)
        assert model.metadata["iterations"] == iterations

    def test_groups_length_must_match_rows(self, rng):
        X, y, groups = grouped_data(rng)
        for wrong in (groups[:200], np.r_[groups, groups[:100]]):
            with pytest.raises(ValueError, match=f"{wrong.size} labels for 300 rows"):
                fit_gee_ar1(X, y, wrong)

    def test_non_contiguous_groups_rejected(self, rng):
        X, y, groups = grouped_data(rng)
        split = np.concatenate([groups[6:], groups[:6]])   # G0 in two runs
        with pytest.raises(ValueError, match="'G0' is not contiguous"):
            fit_gee_ar1(X, y, split)
        interleaved = np.array([f"G{i % 25}" for i in range(groups.size)])
        with pytest.raises(ValueError, match="not contiguous"):
            fit_gee_ar1(X, y, interleaved)


class TestStepCap:
    """Each Fisher step is scaled to max|step| <= GEE_MAX_STEP, while
    convergence and the iteration-cap report use the full step."""

    def test_capped_steps_reach_the_uncapped_root(self, rng, monkeypatch):
        X, y, groups = grouped_data(rng)
        uncapped = fit_gee_ar1(X, y, groups)
        monkeypatch.setattr(gee, "GEE_MAX_STEP", 0.5)
        capped = fit_gee_ar1(X, y, groups)
        assert capped.metadata["iterations"] > uncapped.metadata["iterations"]
        assert capped.params["intercept"] == pytest.approx(uncapped.params["intercept"],
                                                           abs=1e-6)
        np.testing.assert_allclose(capped.params["beta"], uncapped.params["beta"],
                                   atol=1e-6)
        assert capped.params["working_alpha"] == pytest.approx(
            uncapped.params["working_alpha"], abs=1e-6)

    def test_iteration_cap_reports_the_full_step(self, rng, monkeypatch):
        X, y, groups = grouped_data(rng)
        with pytest.raises(ConvergenceError) as info:
            fit_gee_ar1(X, y, groups, max_iter=1)
        full_step = info.value.diagnostics["last_step"]
        monkeypatch.setattr(gee, "GEE_MAX_STEP", 0.5)
        assert full_step > gee.GEE_MAX_STEP
        with pytest.raises(ConvergenceError) as info:
            fit_gee_ar1(X, y, groups, max_iter=1)
        assert info.value.diagnostics["last_step"] == full_step
        assert f"last max step={full_step:.3e}" in str(info.value)


@pytest.fixture(scope="module")
def raw_signal_panel():
    """The standardized 60 raw load columns of a 12-athlete x 26-week signal
    cohort, trained on 2014-2015 and tested on 2016: (Z, y, groups, Z_test,
    y_test) for the nc outcome."""
    cohort = generate_cohort(signal_config(seed=7000, n_athletes=12,
                                           seasons=(2014, 2015, 2016), season_weeks=26,
                                           missing_rate=0.02, newcomer_fraction=0.0))
    data = modeling_data_from_records(cohort.sessions, cohort.injuries, cohort.athletes,
                                      (2014, 2015), (2016,))[3]
    bundle, Z = fit_preprocessing(data.X_train, PipelineSettings(), Protocol(),
                                  np.random.default_rng(1))
    Z_test = bundle.transform(data.X_test, np.random.default_rng(2))
    return Z, data.y_train["nc"], data.groups_train, Z_test, data.y_test["nc"]


class TestRawSignalPanel:
    """Taken in full, Fisher steps from the null start overshoot and diverge
    on these columns; capped steps converge."""

    @pytest.mark.parametrize("alpha", [None, 0.0])
    def test_converges_with_signal(self, raw_signal_panel, alpha):
        Z, y, groups, Z_test, y_test = raw_signal_panel
        assert Z.shape[1] == 60
        model = fit_gee_ar1(Z, y, groups, alpha=alpha)
        assert model.metadata["iterations"] <= 30
        assert auc(model.score(Z_test), y_test) > 0.5

    def test_zero_alpha_matches_independence_logistic(self, raw_signal_panel):
        Z, y, groups, _, _ = raw_signal_panel
        model = fit_gee_ar1(Z, y, groups, alpha=0.0)
        b, beta = fit_logistic_irls(Z, y, tol=1e-10, max_iter=200)
        assert model.params["intercept"] == pytest.approx(b, abs=1e-6)
        np.testing.assert_allclose(model.params["beta"], beta, atol=1e-6)
