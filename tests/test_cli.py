import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from injurylab import cli, models, pipeline
from injurylab.cli import main, model_spec_for
from injurylab.domain import parse_athletes, parse_injuries, parse_sessions
from injurylab.metrics import operating_metrics, optimal_operating_point, roc_curve
from injurylab.models import ModelSpec
from injurylab.runconfig import (_SECTIONS, ConfigError, RunConfig, example_config,
                                 load_config)

BASE_CONFIG = """\
[inputs]
sessions = data/sessions.csv
injuries = data/injuries.csv
athletes = data/athletes.csv

[split]
train_seasons = 2014
test_seasons = 2015

[outcomes]
outcomes = nc, nc_lag
lag_days = 4

[preprocess]
protocols = none

[models]
families = logistic_elastic_net
elastic_net_lambdas = 1e-2, 1e-1
elastic_net_alphas = 0.5
cv_folds = 3

[evaluate]
cost_ratios = 50, 100, 1000

[simulate]
n_sims = 2

[learning_curve]
sizes = 80, 160
repeats = 2
family = logistic_elastic_net
protocol = none
outcome = nc_lag

[synth]
preset = signal
n_athletes = 8
seasons = 2014, 2015
season_weeks = 12
missing_rate = 0.02

[run]
seed = 99
out = out
threads = 1
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(BASE_CONFIG)
    data_dir = root / "data"
    assert main(["synth", "--config", str(config), "--out", str(data_dir)]) == 0
    return root, str(config)


class TestSynthCommand:
    def test_writes_three_csvs_and_manifest(self, workspace):
        root, _ = workspace
        for name in ("sessions.csv", "injuries.csv", "athletes.csv", "manifest.txt"):
            assert (root / "data" / name).exists()
        manifest = (root / "data" / "manifest.txt").read_text()
        assert "command=synth" in manifest
        assert "status=ok" in manifest

    def test_deterministic_output(self, workspace, tmp_path):
        root, config = workspace
        assert main(["synth", "--config", config, "--out", str(tmp_path / "again")]) == 0
        for name in ("sessions.csv", "injuries.csv", "athletes.csv"):
            assert ((root / "data" / name).read_bytes()
                    == (tmp_path / "again" / name).read_bytes())


class TestFeaturesCommand:
    def test_schema(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "features"
        assert main(["features", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out / "features.csv")
        header = rows[0]
        assert header[:4] == ["athlete_id", "date", "season", "new_player"]
        assert "distance_ra21" in header and "srpe_monotony7" in header
        assert header[-6:] == ["nc", "nctl", "hs", "nc_lag", "nctl_lag", "hs_lag"]
        assert len(header) == 4 + 60 + 6
        assert len(rows) > 100

    def test_values_round_trip_exactly(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "features"
        assert main(["features", "--config", config, "--out", str(out)]) == 0
        cfg = load_config(config)
        panel, features = pipeline.features_from_records(
            parse_sessions(cfg.sessions), parse_injuries(cfg.injuries),
            parse_athletes(cfg.athletes), seed=cfg.seed, lag_days=cfg.lag_days,
            monotony_cap=cfg.monotony_cap, pmm_donors=cfg.pmm_donors)
        rows = read_csv(out / "features.csv")[1:]
        assert len(rows) == len(panel)
        assert [row[3] for row in rows] == [
            "true" if new else "false" for new in panel.new_player]
        assert any(row[3] == "true" for row in rows)
        written = np.array([[float(field) if field else np.nan for field in row[4:64]]
                            for row in rows])
        missing = np.isnan(features.values)
        assert missing.any() and np.array_equal(np.isnan(written), missing)
        assert np.array_equal(written[~missing].view(np.int64),
                              features.values[~missing].view(np.int64))


class TestTrainPredict:
    def test_train_then_predict(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        model_path = out / "model__logistic_elastic_net__nc__none.json"
        assert model_path.exists()
        summary = read_csv(out / "training_summary.csv")
        assert len(summary) == 3   # header + 2 outcomes

        pred_out = tmp_path / "pred"
        assert main(["predict", "--config", config, "--model", str(model_path),
                     "--out", str(pred_out)]) == 0
        scores = read_csv(pred_out / "scores.csv")
        assert scores[0] == ["athlete_id", "date", "season", "score"]
        values = [float(r[3]) for r in scores[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_predict_missing_model_is_usage_error(self, workspace, tmp_path):
        _, config = workspace
        assert main(["predict", "--config", config, "--model",
                     str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bundle, key", [
        ({"bundle_version": 1}, "preprocess"),
        ({"bundle_version": 1, "preprocess": {}, "model": {}}, "imputer"),
    ])
    def test_malformed_model_is_error(self, workspace, tmp_path, capsys, bundle, key):
        _, config = workspace
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundle))
        assert main(["predict", "--config", config, "--model", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and key in err

    def test_reordered_feature_names_rejected(self, workspace, tmp_path, capsys):
        _, config = workspace
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        bundle = json.loads((out / "model__logistic_elastic_net__nc__none.json").read_text())
        names = bundle["preprocess"]["feature_names"]
        names[1], names[2] = names[2], names[1]
        path = tmp_path / "reordered.json"
        path.write_text(json.dumps(bundle))
        assert main(["predict", "--config", config, "--model", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bundle feature 1 is {names[1]!r}")
        assert not (tmp_path / "o" / "scores.csv").exists()


class TestEvaluateCommand:
    def test_operating_point_rows(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", config, "--out", str(out)]) == 0
        ops = read_csv(out / "operating_points.csv")
        # one family x two outcomes x three cost ratios
        assert len(ops) == 1 + 2 * 3
        ratios = {row[3] for row in ops[1:]}
        assert ratios == {"50", "100", "1000"}
        subgroups = read_csv(out / "subgroups.csv")
        assert {row[3] for row in subgroups[1:]} == {"new", "returning"}
        assert (out / "roc_points.csv").exists()

    def test_train_operating_points_match_test_set_count(self, workspace, tmp_path):
        config = config_variant(workspace, "train_points.ini", (
            "cost_ratios = 50, 100, 1000",
            "cost_ratios = 50, 100, 1000\noperating_point_source = train"))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", config, "--out", str(out)]) == 0
        cfg = load_config(config)
        data = cli._modeling_data(cfg)[2]
        tasks = [pipeline.Task(cell, 0) for cell in cli._cells(cfg)]
        scores = pipeline.run_tasks(data, tasks, cfg.seed,
                                    lambda task, run: (run.train_scores, run.test_scores),
                                    cli._settings(cfg), compute_train_auc=True)
        expected, thresholds = [], set()
        for task, (train_scores, test_scores) in zip(tasks, scores):
            y_test = data.y_test[task.cell.outcome]
            for ratio in cfg.cost_ratios:
                point = counted_train_threshold_point(
                    train_scores, data.y_train[task.cell.outcome], test_scores,
                    y_test, ratio, float(np.mean(y_test)))
                thresholds.add(point.threshold)
                expected.append([*task.cell.key, cli._fmt(ratio), *(
                    cli._fmt(value) for value in (
                        point.threshold, point.tpr, point.fpr, point.lr_pos,
                        point.lr_neg, point.p_injury_given_pos,
                        point.p_injury_given_neg, point.expected_cost))])
        assert read_csv(out / "operating_points.csv")[1:] == expected
        assert len(thresholds) > 2


def counted_train_threshold_point(train_scores, y_train, test_scores, y_test,
                                  cost_ratio, prevalence):
    """The train-side operating point as evaluate computed it by counting
    test predictions, kept verbatim as the oracle."""
    train_curve = roc_curve(train_scores, y_train)
    chosen = optimal_operating_point(train_curve, cost_ratio, prevalence)
    threshold = chosen.threshold
    predicted = test_scores >= threshold
    y_test = np.asarray(y_test)
    n_pos = int(np.count_nonzero(y_test == 1))
    n_neg = y_test.size - n_pos
    tpr = float(np.count_nonzero(predicted & (y_test == 1)) / n_pos)
    fpr = float(np.count_nonzero(predicted & (y_test == 0)) / n_neg)
    return operating_metrics(tpr, fpr, prevalence, cost_ratio=cost_ratio,
                             threshold=threshold)


def test_train_threshold_point_reads_the_test_roc():
    rng = np.random.default_rng(5)
    thresholds = set()
    for _ in range(400):
        n = int(rng.integers(4, 40))
        # few distinct values make ties; some infinite scores on both sides
        train_scores = rng.integers(0, 6, size=n).astype(float)
        test_scores = rng.integers(-1, 7, size=n).astype(float)
        train_scores[rng.random(n) < 0.05] = np.inf
        test_scores[rng.random(n) < 0.1] = np.inf
        y_train, y_test = rng.integers(0, 2, size=(2, n))
        y_train[:2] = y_test[:2] = (0, 1)
        prevalence = float(np.mean(y_test))
        train_curve = roc_curve(train_scores, y_train)
        test_curve = roc_curve(test_scores, y_test)
        for ratio in (0.05, 1.0, 50.0):
            point = cli._train_threshold_point(train_curve, test_curve, ratio, prevalence)
            expected = counted_train_threshold_point(train_scores, y_train, test_scores,
                                                     y_test, ratio, prevalence)
            assert repr(dataclasses.astuple(point)) == repr(dataclasses.astuple(expected))
            thresholds.add(point.threshold)
    assert np.inf in thresholds


class TestSimulateCommand:
    def test_summary_shape_and_threads_determinism(self, workspace, tmp_path):
        _, config = workspace
        out1 = tmp_path / "sims1"
        out2 = tmp_path / "sims2"
        assert main(["simulate", "--config", config, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", config, "--out", str(out2),
                     "--threads", "3"]) == 0
        bytes1 = (out1 / "simulation_summary.csv").read_bytes()
        assert bytes1 == (out2 / "simulation_summary.csv").read_bytes()
        rows = read_csv(out1 / "simulation_summary.csv")
        assert len(rows) == 1 + 2   # header + (1 family x 2 outcomes x 1 protocol)
        assert all(row[-1] == "complete" for row in rows[1:])
        aucs = read_csv(out1 / "simulation_aucs.csv")
        assert len(aucs) == 1 + 2 * 2   # per-sim rows

    def test_seed_override_changes_results(self, workspace, tmp_path):
        _, config = workspace
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(a)]) == 0
        assert main(["simulate", "--config", config, "--out", str(b),
                     "--seed", "123"]) == 0
        assert ((a / "simulation_summary.csv").read_bytes()
                != (b / "simulation_summary.csv").read_bytes())

    def test_manifest_records_blas_threads(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "sims"
        assert main(["simulate", "--config", config, "--out", str(out),
                     "--sims", "1", "--threads", "2"]) == 0
        expected = "unpinned" if pipeline._openblas_threads() is None else "1"
        lines = (out / "manifest.txt").read_text().splitlines()
        assert f"blas_threads={expected}" in lines


@pytest.mark.parametrize("command, flag", [
    ("train", "--threads"), ("evaluate", "--threads"), ("learning-curve", "--threads"),
    ("features", "--sims"), ("describe", "--sims"),
])
def test_run_flags_only_on_simulate(workspace, command, flag):
    _, config = workspace
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, flag, "2"])
    assert exc.value.code == 2


class TestLearningCurveCommand:
    def test_rows_per_size(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "lc"
        assert main(["learning-curve", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out / "learning_curve.csv")
        assert [r[3] for r in rows[1:]] == ["80", "160"]
        for row in rows[1:]:
            assert 0.0 <= float(row[5]) <= 1.0   # train mean
            assert 0.0 <= float(row[7]) <= 1.0   # test mean


def config_variant(workspace, name, *replacements):
    """BASE_CONFIG with each (old, new) text replacement, written next to the
    workspace's data directory; returns its path."""
    root, _ = workspace
    text = BASE_CONFIG
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = root / name
    path.write_text(text)
    return str(path)


WITH_GEE = ("families = logistic_elastic_net", "families = logistic_elastic_net, gee_ar1")
ENET_ROWS = [["logistic_elastic_net", "nc", "none"],
             ["logistic_elastic_net", "nc_lag", "none"]]


def assert_gee_cells_failed(out, status_name):
    status = read_csv(out / status_name)
    assert status[0] == ["family", "outcome", "protocol", "sim", "error"]
    assert [row[:4] for row in status[1:]] == [["gee_ar1", "nc", "none", "0"],
                                               ["gee_ar1", "nc_lag", "none", "0"]]
    assert all(row[4].startswith("ConvergenceError: ") for row in status[1:])
    lines = (out / "manifest.txt").read_text().splitlines()
    assert any(line.startswith(f"output={status_name} ") for line in lines)
    assert lines[-1] == "status=partial"


class TestPartialFailures:
    """A command whose runs partly fail writes the runs that succeeded, lists
    the failed ones in a status CSV and exits 3.  Every GEE fit is stubbed to
    fail, so the failure does not hang on how the solver fares on the cohort."""

    @pytest.fixture(autouse=True)
    def failing_gee(self, monkeypatch):
        def fail(*args, **kwargs):
            raise models.ConvergenceError("stubbed GEE failure")

        monkeypatch.setattr(models, "fit_gee_ar1", fail)

    def test_train(self, workspace, tmp_path):
        config = config_variant(workspace, "gee.ini", WITH_GEE)
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--out", str(out)]) == 3
        assert sorted(path.name for path in out.glob("model__*.json")) == [
            "model__logistic_elastic_net__nc__none.json",
            "model__logistic_elastic_net__nc_lag__none.json"]
        summary = read_csv(out / "training_summary.csv")
        assert [row[:3] for row in summary[1:]] == ENET_ROWS
        assert_gee_cells_failed(out, "training_status.csv")

    def test_evaluate(self, workspace, tmp_path):
        config = config_variant(workspace, "gee.ini", WITH_GEE)
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", config, "--out", str(out)]) == 3
        for name in ("roc_points.csv", "operating_points.csv", "subgroups.csv"):
            rows = read_csv(out / name)
            assert sorted({tuple(row[:3]) for row in rows[1:]}) == [
                tuple(row) for row in ENET_ROWS], name
        assert_gee_cells_failed(out, "evaluation_status.csv")

    def test_learning_curve(self, workspace, tmp_path):
        config = config_variant(workspace, "lc_gee.ini",
                                ("\nfamily = logistic_elastic_net", "\nfamily = gee_ar1"))
        out = tmp_path / "lc"
        assert main(["learning-curve", "--config", config, "--out", str(out)]) == 3
        rows = read_csv(out / "learning_curve.csv")
        assert [row[3:] for row in rows[1:]] == [
            [size, "0", "nan", "nan", "nan", "nan"] for size in ("80", "160")]
        status = read_csv(out / "learning_curve_status.csv")
        assert status[0] == ["family", "outcome", "protocol", "size", "repeat", "error"]
        assert [row[:5] for row in status[1:]] == [
            ["gee_ar1", "nc_lag", "none", size, repeat]
            for size in ("80", "160") for repeat in ("0", "1")]
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[-1] == "status=partial"


@pytest.mark.parametrize("command, runs", [("train", 2), ("learning-curve", 4)])
def test_runs_see_one_blas_thread(workspace, tmp_path, monkeypatch, command, runs):
    functions = pipeline._openblas_threads()
    if functions is None:
        pytest.skip("numpy does not use a bundled OpenBLAS")
    get, put = functions
    seen = []

    def stub(*args, **kwargs):
        seen.append(get())
        raise RuntimeError("stub")

    _, config = workspace
    monkeypatch.setattr(pipeline, "run_pipeline_once", stub)
    saved = get()
    put(2)   # a count the pin must override and then restore
    try:
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 3
        assert seen == [1] * runs
        assert get() == 2
    finally:
        put(saved)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "blas_threads=1" in lines


def test_train_runs_simulation_zero(workspace, tmp_path):
    _, config = workspace
    assert main(["train", "--config", config, "--out", str(tmp_path / "train")]) == 0
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "sims")]) == 0
    trained = {tuple(row[:3]): row[5]
               for row in read_csv(tmp_path / "train" / "training_summary.csv")[1:]}
    simulated = {tuple(row[:3]): row[4]
                 for row in read_csv(tmp_path / "sims" / "simulation_aucs.csv")[1:]
                 if row[3] == "0"}
    assert trained == simulated and len(trained) == 2


def test_group_cv_keeps_each_athlete_in_one_fold(workspace, tmp_path, monkeypatch):
    # 10 grouped folds for 8 athletes: some folds are empty and skipped
    config = config_variant(workspace, "group_cv.ini",
                            ("cv_folds = 3", "cv_folds = 10\ngroup_cv = true"))
    assert model_spec_for(load_config(config), "logistic_elastic_net").group_folds
    splits, cross_validate = [], models.tuning.cross_validate

    def recording(candidates, X, y, fit_fold, rng, groups=None, **options):
        splits.append([])

        def record(candidates, train_idx, valid_idx, rngs):
            splits[-1].append((set(groups[train_idx]), set(groups[valid_idx])))
            return fit_fold(candidates, train_idx, valid_idx, rngs)

        return cross_validate(candidates, X, y, record, rng, groups=groups, **options)

    monkeypatch.setattr(models.tuning, "cross_validate", recording)
    out = tmp_path / "train"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    assert len(splits) == 2
    for outcome, folds in zip(("nc", "nc_lag"), splits):
        assert all(len(valid) >= 1 and not train & valid for train, valid in folds)
        _, model, _ = pipeline.load_bundle(
            out / f"model__logistic_elastic_net__{outcome}__none.json")
        assert model.metadata["folds"] == len(folds) < 10


def test_lower_pca_threshold_keeps_fewer_components(workspace):
    components = []
    for threshold in ("0.95", "0.5"):
        config = config_variant(workspace, f"pca{threshold}.ini", (
            "protocols = none", f"protocols = none\npca_threshold = {threshold}"))
        cfg = load_config(config)
        settings = cli._settings(cfg)
        assert settings.pca_threshold == float(threshold)
        data = cli._modeling_data(cfg)[2]
        bundle, Z = pipeline.fit_preprocessing(data.X_train, settings,
                                               pipeline.Protocol(pca=True),
                                               pipeline.stream_rng(cfg.seed, 0, "impute"))
        assert Z.shape[1] == bundle.pca.n_components
        components.append(bundle.pca.n_components)
    assert 1 <= components[1] < components[0]


class TestDescribeCommand:
    def test_feature_table(self, workspace, tmp_path):
        _, config = workspace
        out = tmp_path / "desc"
        assert main(["describe", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out / "describe.csv")
        assert len(rows) == 1 + 60
        effects = [float(r[3]) for r in rows[1:] if r[3]]
        assert all(-1.0 <= e <= 1.0 for e in effects)
        rates = read_csv(out / "injury_rates.csv")
        assert {r[0] for r in rates[1:]} == {"nc", "nctl", "hs",
                                             "nc_lag", "nctl_lag", "hs_lag"}


class TestErrorPaths:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.ini")]) == 2

    def test_overlapping_seasons_rejected_before_compute(self, tmp_path):
        bad = BASE_CONFIG.replace("test_seasons = 2015", "test_seasons = 2014")
        path = tmp_path / "bad.ini"
        path.write_text(bad)
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_inputs_reported(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE_CONFIG)   # data/ CSVs do not exist here
        assert main(["features", "--config", str(path)]) == 2


def test_init_config_prints_template(capsys):
    assert main(["init-config"]) == 0
    text = capsys.readouterr().out
    assert "[models]" in text and "families" in text


def test_full_grid_summary_has_one_row_per_cell(tmp_path):
    # paper-shaped grid: five families x six outcomes x one protocol
    config_text = BASE_CONFIG.replace(
        "outcomes = nc, nc_lag", "outcomes = nc, nctl, hs, nc_lag, nctl_lag, hs_lag"
    ).replace(
        "families = logistic_elastic_net",
        "families = logistic_elastic_net, univariate_logistic, gee_ar1, "
        "random_forest, svm_rbf",
    ).replace("cv_folds = 3", "cv_folds = 2").replace(
        "[models]", "[models]\nrf_trees = 10\nrf_max_features = sqrt\n"
                    "svm_cost = 1\nsvm_gamma = 0.1")
    config = tmp_path / "grid.ini"
    config.write_text(config_text)
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(data_dir)]) == 0
    out = tmp_path / "sims"
    code = main(["simulate", "--config", str(config), "--out", str(out),
                 "--sims", "1"])
    assert code in (0, 3)   # sparse outcomes may legitimately fail in tiny cohorts
    rows = read_csv(out / "simulation_summary.csv")
    assert len(rows) == 1 + 5 * 6
    if code == 3:
        assert (out / "simulation_status.csv").exists()


class TestConfigTable:
    """One table reads, validates and prints the config; no model is fitted."""

    def test_template_loads_back_as_the_defaults(self, tmp_path):
        path = tmp_path / "template.ini"
        path.write_text(example_config())
        loaded, default = load_config(str(path)), RunConfig()
        for field in dataclasses.fields(RunConfig):
            expected = getattr(default, field.name)
            if field.name in ("sessions", "injuries", "athletes", "out"):
                expected = os.path.join(str(tmp_path), expected)
            assert repr(getattr(loaded, field.name)) == repr(expected), field.name

    def test_every_field_listed_once(self):
        listed = [name for names in _SECTIONS.values() for name in names]
        fields = [field.name for field in dataclasses.fields(RunConfig)]
        assert sorted(listed) == sorted(set(fields) - {"synth_overrides"})

    @pytest.mark.parametrize("family, tuner", [
        ("logistic_elastic_net", "tune_elastic_net"),
        ("svm_rbf", "tune_svm"),
        ("random_forest", "tune_random_forest"),
    ])
    def test_default_grid_is_the_library_default(self, family, tuner, monkeypatch):
        monkeypatch.setattr(models, tuner, lambda X, y, grid, **cv: grid)
        X, y = np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0])
        library = models.fit_model(ModelSpec(family), X, y, np.random.default_rng(0))
        assert model_spec_for(RunConfig(), family).grid == library

    @pytest.mark.parametrize("section, setting, option", [
        ("models", "cv_folds = 1", "cv_folds"),
        ("preprocess", "pmm_donors = 0", "pmm_donors"),
        ("preprocess", "smote_k = 0", "smote_k"),
        ("preprocess", "smote_oversample_pct = -10", "smote_oversample_pct"),
        ("evaluate", "cost_ratios = 50, 0", "cost_ratios"),
        ("learning_curve", "repeats = 0", "repeats"),
        ("learning_curve", "sizes =", "sizes"),
        ("learning_curve", "sizes = 5, 80", "sizes"),
        ("models", "families =", "families"),
        ("outcomes", "outcomes =", "outcomes"),
        ("preprocess", "protocols =", "protocols"),
        ("models", "svm_cost = 1, 0", "svm_cost"),
        ("models", "svm_cost = -1", "svm_cost"),
        ("models", "svm_gamma = -1", "svm_gamma"),
        ("models", "svm_gamma =", "svm_gamma"),
        ("evaluate", "cost_ratios =", "cost_ratios"),
        ("models", "elastic_net_lambdas = 0.1, -1e-3", "elastic_net_lambdas"),
        ("models", "elastic_net_alphas = -0.5", "elastic_net_alphas"),
        ("models", "elastic_net_alphas = 1.5", "elastic_net_alphas"),
        ("models", "rf_trees = 0", "rf_trees"),
        ("models", "rf_min_leaf = 0", "rf_min_leaf"),
        ("models", "rf_max_features = bogus", "rf_max_features"),
        ("models", "rf_max_features = sqrt, 0", "rf_max_features"),
    ])
    def test_bad_setting_rejected(self, tmp_path, section, setting, option):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{setting}\n")
        with pytest.raises(ConfigError, match=option):
            load_config(str(path))
        assert main(["features", "--config", str(path)]) == 2

    @pytest.mark.parametrize("preset, setting", [
        ("custom", "base_hazrd = 0.01"),   # not a CohortConfig field
        ("custom", "seed = 3"),            # set from [run] seed
        ("custom", "beta1 = strong"),
        ("custom", "acute_window = 3.5"),  # an int field
        ("signal", "beta1 = 3"),           # only custom takes overrides
        ("null", "beta1 = 3"),
    ])
    def test_bad_synth_override_rejected(self, tmp_path, preset, setting):
        path = tmp_path / "bad.ini"
        path.write_text(f"[synth]\npreset = {preset}\n{setting}\n")
        key = setting.split(" =")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))
        assert main(["synth", "--config", str(path)]) == 2

    def test_synth_overrides_cast_to_field_types(self, tmp_path):
        path = tmp_path / "custom.ini"
        path.write_text("[synth]\npreset = custom\nbeta1 = 3\nacute_window = 4\n"
                        "hazard_variable = distance\n")
        overrides = load_config(str(path)).cohort_overrides()
        assert overrides == {"beta1": 3.0, "acute_window": 4,
                             "hazard_variable": "distance"}
        assert [type(overrides[key]) for key in ("beta1", "acute_window")] == [float, int]
