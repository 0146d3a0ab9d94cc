"""End-to-end acceptance suite.

Each test checks one release gate at its stated tolerance and prints one
pass/fail line (visible with `pytest -s`); `pytest -v` shows the same
verdicts as test outcomes.  The slow full-pipeline gates run last.
"""

import csv
import time
import warnings

import numpy as np
import pytest

import injurylab as il
from injurylab.cli import main as cli_main
from injurylab.metrics import (auc, binomial_sign_test_p, operating_metrics,
                               optimal_operating_point, roc_curve)
from injurylab.models import (ModelSpec, candidate_grid, fit_elastic_net_raw,
                              fit_gee_ar1, fit_logistic_irls, fit_model, log_loss,
                              sigmoid, smooth_gradient)
from injurylab.pipeline import (Protocol, PipelineSettings, learning_curve,
                                modeling_data_from_records, run_pipeline_once)
from injurylab.preprocess import (PmmImputer, apply_standardize, pca_fit,
                                  pca_transform, smote, standardize,
                                  undersample)
from injurylab.synthdata import generate_cohort, null_config, signal_config

from conftest import load_features


class criterion:
    """Prints `[criterion NN] PASS/FAIL <label>` when the block exits."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {self.label}")
        return False


def build_signal_data(seed, n_athletes=30, weeks=26, missing=0.02):
    cohort = generate_cohort(signal_config(seed=seed, n_athletes=n_athletes,
                                           seasons=(2014, 2015, 2016),
                                           season_weeks=weeks,
                                           missing_rate=missing))
    _, _, _, data = modeling_data_from_records(
        cohort.sessions, cohort.injuries, cohort.athletes,
        [2014, 2015], [2016], seed=seed)
    return cohort, data


# ---------------------------------------------------------------------------
# 1. Feature oracle equivalence


def test_criterion_01_feature_oracle_equivalence():
    with criterion(1, "load features match brute-force oracles on 1000 series"):
        rng = np.random.default_rng(11)
        started = time.monotonic()
        spans = (3, 6, 21)
        for _ in range(1000):
            n = int(rng.integers(30, 70))
            w = rng.uniform(0.0, 900.0, size=n)
            w[rng.random(n) < 0.35] = 0.0

            features = load_features(w)
            computed = {
                **{("ra", c): features[f"ra{c}"] for c in spans},
                **{("ewma", s): features[f"ewma{s}"] for s in spans},
                **{("acwr", a): features[f"acwr{a}_21"] for a in (3, 6)},
                **{("ewacwr", s): features[f"ewacwr{s}_21"] for s in (3, 6)},
                ("monotony", 7): features["monotony7"],
                ("strain", 7): features["strain7"],
            }
            weights = {s: (2.0 / (s + 1)) * (1 - 2.0 / (s + 1)) ** np.arange(n)
                       for s in spans}
            for i in range(n):
                for c in spans:
                    if i >= c:
                        assert computed[("ra", c)][i] == pytest.approx(
                            float(w[i - c:i].sum()) / c, abs=1e-9)
                ewma_vals = {s: float(weights[s][:i] @ w[i - 1::-1]) if i else 0.0
                             for s in spans}
                for s in spans:
                    assert computed[("ewma", s)][i] == pytest.approx(
                        ewma_vals[s], abs=1e-9)
                if i >= 21:
                    chronic = float(w[i - 21:i].sum()) / 21
                    for a in (3, 6):
                        expected = (0.0 if chronic == 0.0
                                    else (float(w[i - a:i].sum()) / a) / chronic)
                        assert computed[("acwr", a)][i] == pytest.approx(expected, abs=1e-9)
                        if chronic == 0.0:
                            assert computed[("acwr", a)][i] == 0.0   # exact zero rule
                for s in (3, 6):
                    expected = (0.0 if ewma_vals[21] == 0.0
                                else ewma_vals[s] / ewma_vals[21])
                    assert computed[("ewacwr", s)][i] == pytest.approx(expected, abs=1e-9)
                if i >= 7:
                    week = w[i - 7:i]
                    total = float(week.sum())
                    if total == 0.0:
                        mono = 0.0
                    else:
                        sd = float(np.std(week, ddof=1))
                        mono = 10.0 if sd < 1e-12 else (total / 7.0) / sd
                    assert computed[("monotony", 7)][i] == pytest.approx(mono, abs=1e-9)
                    assert computed[("strain", 7)][i] == pytest.approx(
                        0.0 if total == 0.0 else total * mono, abs=1e-9)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. No leakage


def test_criterion_02_no_leakage():
    with criterion(2, "same-day loads and test rows leak into nothing"):
        rng = np.random.default_rng(7)
        # (a) features on days <= i ignore the day-i load, to the bit
        for _ in range(50):
            w = rng.uniform(0, 600, size=50)
            i = int(rng.integers(22, 49))
            before = load_features(w)
            w[i] = w[i] * 5.0 + 1234.5
            after = load_features(w)
            for name, series in before.items():
                assert series[:i + 1].tobytes() == after[name][:i + 1].tobytes(), name

        # (b) poisoning test rows changes no fitted preprocessing parameter
        X_train = rng.normal(size=(120, 6))
        holes = rng.random((120, 6)) < 0.15
        holes[:, :2] = False
        X_train[holes] = np.nan
        imputer = PmmImputer.fit(X_train)
        fitted_before = imputer.to_dict()
        filled = imputer.transform(X_train, np.random.default_rng(0))
        Z, means, scales = standardize(filled)
        projection = pca_fit(Z)
        loadings_before = projection.loadings.copy()

        X_test = rng.normal(size=(40, 6))
        reference = pca_transform(apply_standardize(
            imputer.transform(X_test, np.random.default_rng(1)), means, scales),
            projection)
        poisoned = X_test * -1e9 + 777.0
        pca_transform(apply_standardize(
            imputer.transform(poisoned, np.random.default_rng(2)), means, scales),
            projection)
        assert imputer.to_dict() == fitted_before
        np.testing.assert_array_equal(projection.loadings, loadings_before)
        repeat = pca_transform(apply_standardize(
            imputer.transform(X_test, np.random.default_rng(1)), means, scales),
            projection)
        np.testing.assert_array_equal(reference, repeat)


# ---------------------------------------------------------------------------
# 3. AUC correctness


def test_criterion_03_auc_correctness():
    with criterion(3, "rank AUC == pairwise concordance; ROC area == AUC"):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(5, 90))
            if rng.random() < 0.5:
                scores = rng.integers(0, 7, size=n).astype(float)
            else:
                scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            concordance = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) / (
                pos.size * neg.shape[1])
            fast = auc(scores, labels)
            assert fast == pytest.approx(concordance, abs=1e-12)
            assert roc_curve(scores, labels).area() == pytest.approx(fast, abs=1e-12)
        assert auc(np.full(30, 2.5), np.r_[np.ones(7), np.zeros(23)]) == 0.5


# ---------------------------------------------------------------------------
# 4. Cost operating-point arithmetic


def test_criterion_04_operating_point_arithmetic():
    with criterion(4, "published operating-point table reproduced from TPR/FPR"):
        started = time.monotonic()
        prevalence = 13 / 4664
        # (tpr, fpr) -> reported (lr+, lr-, p(inj|pos), p(inj|neg)); the first
        # row's LR+ from the rounded inputs is exactly 20
        table = [
            ((0.08, 0.004), (20.0, 0.93, 0.05, 0.003)),
            ((0.54, 0.11), (5.0, 0.52, 0.01, 0.001)),
            ((0.92, 0.53), (1.7, 0.16, 0.005, 0.0004)),
        ]

        def unit(reported):
            text = f"{reported!r}"
            decimals = len(text.split(".")[1]) if "." in text else 0
            return 10.0 ** -decimals

        for (tpr, fpr), reported in table:
            point = operating_metrics(tpr, fpr, prevalence)
            computed = (point.lr_pos, point.lr_neg,
                        point.p_injury_given_pos, point.p_injury_given_neg)
            for got, want in zip(computed, reported):
                assert abs(got - want) <= 1.05 * unit(want), (got, want)
        assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 5. Cost-ratio monotonicity


def test_criterion_05_cost_ratio_monotonicity():
    with criterion(5, "optimal TPR/FPR non-decreasing in the cost ratio"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(10, 120))
            scores = (rng.integers(0, 9, size=n).astype(float)
                      if rng.random() < 0.5 else rng.normal(size=n))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            curve = roc_curve(scores, labels)
            prevalence = float(rng.uniform(0.001, 0.25))
            previous = None
            for ratio in (50.0, 100.0, 1000.0):
                point = optimal_operating_point(curve, ratio, prevalence)
                if previous is not None:
                    assert point.tpr >= previous.tpr
                    assert point.fpr >= previous.fpr
                previous = point


# ---------------------------------------------------------------------------
# 6. Model correctness suite


def _permutation_null_means():
    rng = np.random.default_rng(60)
    n_train, n_test, p = 260, 160, 4
    X_train = rng.normal(size=(n_train, p))
    X_test = rng.normal(size=(n_test, p))
    groups = np.repeat([f"G{i}" for i in range(13)], n_train // 13)
    specs = {
        "logistic_elastic_net": ModelSpec("logistic_elastic_net",
                                          grid=[{"lam": 0.01, "alpha": 0.5}]),
        "univariate_logistic": ModelSpec("univariate_logistic", grid=[{"column": 0}]),
        "gee_ar1": ModelSpec("gee_ar1"),
        "random_forest": ModelSpec("random_forest",
                                   grid=[{"n_trees": 25, "max_features": "sqrt",
                                          "min_leaf": 1}]),
        "svm_rbf": ModelSpec("svm_rbf", grid=[{"C": 1.0, "gamma": 0.1}]),
    }
    means = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for family, spec in specs.items():
            aucs = []
            for sim in range(50):
                sim_rng = np.random.default_rng((hash(family) % 100000, sim))
                y_train = np.zeros(n_train, dtype=float)
                y_train[sim_rng.choice(n_train, n_train // 4, replace=False)] = 1.0
                y_test = np.zeros(n_test, dtype=float)
                y_test[sim_rng.choice(n_test, n_test // 4, replace=False)] = 1.0
                model = fit_model(spec, X_train, y_train, sim_rng, groups=groups)
                aucs.append(auc(model.score(X_test), y_test))
            means[family] = float(np.mean(aucs))
    return means


def test_criterion_06_model_correctness_suite():
    with criterion(6, "gradients, shrinkage, GEE reduction, separable fits, null band"):
        rng = np.random.default_rng(6)

        # analytic gradients vs central finite differences (relative 1e-5)
        X = rng.normal(size=(90, 4))
        y = (rng.random(90) < sigmoid(X @ rng.normal(size=4))).astype(float)
        lam, alpha = 0.03, 0.4
        h = 1e-6
        for _ in range(20):
            b = float(rng.normal())
            beta = rng.normal(size=4)
            g0, g = smooth_gradient(b, beta, X, y, lam, alpha)
            numeric = np.empty(5)
            for k in range(5):
                def smooth_value(eps, k=k):
                    bb = b + (eps if k == 0 else 0.0)
                    vec = beta.copy()
                    if k > 0:
                        vec[k - 1] += eps
                    return (log_loss(bb, vec, X, y, 0.0, 0.0)
                            + lam * (1 - alpha) * 0.5 * vec @ vec)
                numeric[k] = (smooth_value(h) - smooth_value(-h)) / (2 * h)
            analytic = np.r_[g0, g]
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert float(rel.max()) < 1e-5

        # extreme penalty: all slopes exactly zero, prediction = base rate
        b, beta, _ = fit_elastic_net_raw(X, y, 1e8, 1.0)
        assert np.all(beta == 0.0)
        assert sigmoid(b) == pytest.approx(y.mean(), abs=1e-9)

        # GEE with alpha pinned at 0 equals the independence logistic fit
        groups = np.repeat([f"G{i}" for i in range(15)], 6)
        gee = fit_gee_ar1(X, y, groups, alpha=0.0)
        b_ind, beta_ind = fit_logistic_irls(X, y, tol=1e-10, max_iter=200)
        assert abs(gee.params["intercept"] - b_ind) < 1e-6
        assert float(np.max(np.abs(gee.params["beta"] - beta_ind))) < 1e-6

        # separable fixtures: perfect training AUC
        X_sep = rng.normal(size=(150, 3))
        y_sep = (X_sep[:, 1] > 0.2).astype(float)
        forest = fit_model(ModelSpec("random_forest", candidate_grid(
            n_trees=40, max_features=3, min_leaf=1)), X_sep, y_sep, np.random.default_rng(1))
        assert auc(forest.score(X_sep), y_sep) == 1.0
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        X_xor = np.repeat(centers, 15, axis=0) + rng.normal(0, 0.12, size=(60, 2))
        y_xor = np.repeat([0.0, 0.0, 1.0, 1.0], 15)
        svm = fit_model(ModelSpec("svm_rbf", candidate_grid(C=(10.0,), gamma=(1.0,))),
                        X_xor, y_xor, np.random.default_rng(2))
        assert auc(svm.score(X_xor), y_xor) == 1.0

        # label-permutation null: every family inside [0.42, 0.58] over 50 sims
        for family, mean_auc in _permutation_null_means().items():
            assert 0.42 <= mean_auc <= 0.58, (family, mean_auc)


# ---------------------------------------------------------------------------
# 7. Planted-signal recovery


ENET_CV = ModelSpec("logistic_elastic_net",
                    grid=[{"lam": lam, "alpha": 0.5} for lam in (1e-3, 1e-2, 1e-1)])


def _pipeline_auc(data, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_pipeline_once(
            data.X_train, data.y_train["nc"], data.X_test, data.y_test["nc"],
            ENET_CV, Protocol(), PipelineSettings(), master_seed=seed,
            groups_train=data.groups_train, feature_names=data.feature_names)
    return run.test_auc


def test_criterion_07_planted_signal_recovery():
    with criterion(7, "elastic-net pipeline recovers the planted mechanism"):
        started = time.monotonic()
        signal_aucs, rates, day_counts = [], [], []
        for seed in range(20):
            cohort, data = build_signal_data(seed=100 + seed)
            day_counts.append(len(cohort.truth))
            rates.append(np.mean([t.injured for t in cohort.truth]))
            signal_aucs.append(_pipeline_auc(data, seed))
        assert 8000 <= float(np.mean(day_counts)) <= 13000
        assert 0.01 <= float(np.mean(rates)) <= 0.04
        assert float(np.mean(signal_aucs)) >= 0.80, np.mean(signal_aucs)

        null_aucs = []
        for seed in range(20):
            cfg = null_config(seed=300 + seed, n_athletes=30,
                              seasons=(2014, 2015, 2016), season_weeks=26,
                              missing_rate=0.02)
            cohort = generate_cohort(cfg)
            _, _, _, data = modeling_data_from_records(
                cohort.sessions, cohort.injuries, cohort.athletes,
                [2014, 2015], [2016], seed=seed)
            null_aucs.append(_pipeline_auc(data, seed))
        assert 0.42 <= float(np.mean(null_aucs)) <= 0.58, np.mean(null_aucs)
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"recovery gate took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 8. Learning-curve trend


def test_criterion_08_learning_curve_trend():
    with criterion(8, "test AUC grows with data; flexible model overfits small data"):
        _, data = build_signal_data(seed=77, n_athletes=35)
        assert data.n_train >= 5000
        enet = ModelSpec("logistic_elastic_net", grid=[{"lam": 1e-2, "alpha": 0.5}])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            points = learning_curve(data, "nc", enet, Protocol(),
                                    sizes=[500, 5000], repeats=20, master_seed=8)
        small, big = points
        wins = sum(1 for a, b in zip(small.test_aucs, big.test_aucs) if b > a)
        assert binomial_sign_test_p(wins, 20) < 0.05, (wins, 20)

        forest = ModelSpec("random_forest",
                           grid=[{"n_trees": 200, "max_features": "sqrt",
                                  "min_leaf": 1}])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rf_points = learning_curve(data, "nc", forest, Protocol(),
                                       sizes=[500], repeats=20, master_seed=9)
        gap = rf_points[0].train_mean - rf_points[0].test_mean
        assert gap > 0.15, gap


# ---------------------------------------------------------------------------
# 9. Imbalance protocol behaviour


def test_criterion_09_imbalance_protocols():
    with criterion(9, "under-sampling balances exactly; SMOTE rows sit on segments"):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n_min = int(rng.integers(5, 15))
            n_maj = int(rng.integers(50, 160))
            X = rng.normal(size=(n_min + n_maj, 5))
            y = np.r_[np.ones(n_min, dtype=int), np.zeros(n_maj, dtype=int)]
            order = rng.permutation(y.size)
            X, y = X[order], y[order]

            under = undersample(X, y, np.random.default_rng(trial))
            assert np.count_nonzero(under.y == 1) == n_min
            assert np.count_nonzero(under.y == 0) == n_min
            np.testing.assert_array_equal(under.X[under.y == 1], X[y == 1])

            k = 4
            result = smote(X, y, np.random.default_rng(trial), k=k)
            assert np.count_nonzero(result.y == 1) == np.count_nonzero(result.y == 0)
            minority = X[y == 1]
            diffs = minority[:, None, :] - minority[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
            np.fill_diagonal(dist2, np.inf)
            neighbors = np.argsort(dist2, axis=1)[:, :min(k, n_min - 1)]
            for point in result.X[result.synthetic]:
                assert _on_some_segment(point, minority, neighbors), point


def _on_some_segment(point, minority, neighbor_table, atol=1e-9):
    for i in range(minority.shape[0]):
        x = minority[i]
        for j in neighbor_table[i]:
            d = minority[j] - x
            denom = float(d @ d)
            if denom == 0.0:
                if np.abs(point - x).max() < atol:
                    return True
                continue
            u = float((point - x) @ d) / denom
            if -1e-12 <= u <= 1.0 + 1e-12 and np.abs(x + u * d - point).max() < atol:
                return True
    return False


# ---------------------------------------------------------------------------
# 10. End-to-end determinism


SIM_CONFIG = """\
[inputs]
sessions = data/sessions.csv
injuries = data/injuries.csv
athletes = data/athletes.csv

[split]
train_seasons = 2014
test_seasons = 2015

[outcomes]
outcomes = nc, nc_lag

[preprocess]
protocols = none, pca

[models]
families = logistic_elastic_net
elastic_net_lambdas = 1e-2, 1e-1
elastic_net_alphas = 0.5
cv_folds = 3

[simulate]
n_sims = 3

[synth]
preset = signal
n_athletes = 8
seasons = 2014, 2015
season_weeks = 12
missing_rate = 0.02

[run]
seed = 424242
out = out
"""


def test_criterion_10_simulate_determinism(tmp_path):
    with criterion(10, "cmd_simulate output is byte-identical across thread counts"):
        config = tmp_path / "run.ini"
        config.write_text(SIM_CONFIG)
        assert cli_main(["synth", "--config", str(config),
                         "--out", str(tmp_path / "data")]) == 0
        outputs = []
        for threads, name in ((1, "t1"), (4, "t4"), (1, "t1_again")):
            out = tmp_path / name
            assert cli_main(["simulate", "--config", str(config), "--out", str(out),
                             "--threads", str(threads)]) == 0
            outputs.append((out / "simulation_summary.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        per_sim = [(tmp_path / name / "simulation_aucs.csv").read_bytes()
                   for name in ("t1", "t4", "t1_again")]
        assert per_sim[0] == per_sim[1] == per_sim[2]
