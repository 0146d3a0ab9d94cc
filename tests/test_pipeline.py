import json
import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from injurylab import pipeline
from injurylab.domain import build_daily_panel, split_by_season
from injurylab.load_metrics import build_feature_matrix
from injurylab.models import ModelSpec
from injurylab.pipeline import (Cell, ModelingData, PipelineSettings, Protocol,
                                assemble_modeling_data, learning_curve,
                                load_bundle, run_pipeline_once,
                                run_simulations, save_bundle, stream_rng)
from injurylab.preprocess import PmmImputer
from injurylab.synthdata import generate_cohort, signal_config


@pytest.fixture(scope="module")
def cohort_data():
    cfg = signal_config(seed=21, n_athletes=10, seasons=(2014, 2015),
                        season_weeks=16, missing_rate=0.02)
    cohort = generate_cohort(cfg)
    panel = build_daily_panel(cohort.sessions, cohort.injuries, cohort.athletes)
    from injurylab.preprocess import impute_session_values
    sessions = impute_session_values(cohort.sessions, stream_rng(1, 0, "ingest"))
    features = build_feature_matrix(panel, sessions)
    split = split_by_season(panel, [2014], [2015])
    return assemble_modeling_data(panel, split, features)


def synthetic_modeling_data(rng, n_train=220, n_test=120, p=6, signal=2.0):
    X_train = rng.normal(size=(n_train, p))
    X_test = rng.normal(size=(n_test, p))
    logits_train = signal * X_train[:, 0] - 1.5
    logits_test = signal * X_test[:, 0] - 1.5
    y_train = (rng.random(n_train) < 1 / (1 + np.exp(-logits_train))).astype(np.int8)
    y_test = (rng.random(n_test) < 1 / (1 + np.exp(-logits_test))).astype(np.int8)
    y_train[:3] = 1
    y_test[:3] = 1
    y_train[3:6] = 0
    y_test[3:6] = 0
    return ModelingData(
        feature_names=[f"f{j}" for j in range(p)],
        X_train=X_train, X_test=X_test,
        y_train={"nc": y_train, "empty": np.zeros(n_train, dtype=np.int8)},
        y_test={"nc": y_test, "empty": np.zeros(n_test, dtype=np.int8)},
        groups_train=np.array([f"G{i % 10}" for i in range(n_train)], dtype=object),
        new_player_test=np.zeros(n_test, dtype=bool),
    )


ENET = ModelSpec("logistic_elastic_net", grid=[{"lam": 0.01, "alpha": 0.5}])


class TestProtocol:
    def test_parse_and_name_roundtrip(self):
        for token in ("none", "pca", "undersample", "smote",
                      "pca+undersample", "pca+smote"):
            assert Protocol.parse(token).name == token

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Protocol.parse("bootstrap")
        with pytest.raises(ValueError, match="sampling"):
            Protocol(sampling="jitter")


class TestStreamRng:
    def test_streams_are_stable_and_distinct(self):
        a = stream_rng(7, 0, "impute").random(4)
        b = stream_rng(7, 0, "impute").random(4)
        np.testing.assert_array_equal(a, b)
        c = stream_rng(7, 0, "sampling").random(4)
        d = stream_rng(7, 1, "impute").random(4)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestRunPipelineOnce:
    def test_deterministic_given_master_seed(self, rng):
        data = synthetic_modeling_data(rng)
        run_a = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                  data.y_test["nc"], ENET, Protocol(),
                                  PipelineSettings(), master_seed=5)
        run_b = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                  data.y_test["nc"], ENET, Protocol(),
                                  PipelineSettings(), master_seed=5)
        assert run_a.test_auc == run_b.test_auc
        np.testing.assert_array_equal(run_a.test_scores, run_b.test_scores)

    def test_learns_planted_signal(self, rng):
        data = synthetic_modeling_data(rng, signal=3.0)
        run = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                data.y_test["nc"], ENET, Protocol(),
                                PipelineSettings(), master_seed=5)
        assert run.test_auc > 0.8

    @pytest.mark.parametrize("protocol", ["pca", "undersample", "smote", "pca+smote"])
    def test_protocols_run_end_to_end(self, rng, protocol):
        data = synthetic_modeling_data(rng)
        run = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                data.y_test["nc"], ENET, Protocol.parse(protocol),
                                PipelineSettings(), master_seed=3,
                                groups_train=data.groups_train)
        assert 0.0 <= run.test_auc <= 1.0
        if protocol.startswith("pca"):
            assert run.bundle.pca is not None
            assert run.model.feature_names[0] == "pc1"

    def test_real_cohort_pipeline(self, cohort_data):
        run = run_pipeline_once(cohort_data.X_train, cohort_data.y_train["nc"],
                                cohort_data.X_test, cohort_data.y_test["nc"],
                                ENET, Protocol(), PipelineSettings(), master_seed=2,
                                groups_train=cohort_data.groups_train,
                                feature_names=cohort_data.feature_names,
                                compute_train_auc=True)
        assert run.train_auc is not None
        assert np.isfinite(run.test_auc)

    def test_bundle_roundtrip(self, rng, tmp_path):
        data = synthetic_modeling_data(rng)
        run = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                data.y_test["nc"], ENET, Protocol(pca=True),
                                PipelineSettings(), master_seed=5)
        save_bundle(tmp_path / "bundle.json", run.bundle, run.model)
        bundle, model, _ = load_bundle(tmp_path / "bundle.json")
        transformed = bundle.transform(data.X_test, stream_rng(0, 0, "impute"))
        np.testing.assert_allclose(model.score(transformed),
                                   run.model.score(bundle.transform(
                                       data.X_test, stream_rng(0, 0, "impute"))),
                                   atol=1e-12)


class TestRunSimulations:
    def test_single_simulation_flagged(self, rng):
        data = synthetic_modeling_data(rng)
        cells = [Cell(ENET, "nc", Protocol())]
        summary = run_simulations(data, cells, n_sims=1, master_seed=3)
        assert summary.cells[0].single_run
        assert summary.cells[0].sd_auc == 0.0

    def test_identical_seed_identical_summary(self, rng):
        data = synthetic_modeling_data(rng)
        cells = [Cell(ENET, "nc", Protocol())]
        a = run_simulations(data, cells, n_sims=3, master_seed=9)
        b = run_simulations(data, cells, n_sims=3, master_seed=9)
        assert a.cells[0].aucs == b.cells[0].aucs

    def test_thread_count_does_not_change_results(self, rng):
        data = synthetic_modeling_data(rng)
        cells = [Cell(ENET, "nc", Protocol()),
                 Cell(ENET, "nc", Protocol(pca=True))]
        serial = run_simulations(data, cells, n_sims=3, master_seed=4, threads=1)
        threaded = run_simulations(data, cells, n_sims=3, master_seed=4, threads=4)
        for cell_a, cell_b in zip(serial.cells, threaded.cells):
            assert cell_a.aucs == cell_b.aucs

    def test_failures_recorded_not_raised(self, rng):
        data = synthetic_modeling_data(rng)
        cells = [Cell(ENET, "empty", Protocol()),   # zero positives: cannot fit
                 Cell(ENET, "nc", Protocol())]
        summary = run_simulations(data, cells, n_sims=2, master_seed=1)
        assert not summary.cells[0].complete
        assert summary.cells[0].errors
        assert math.isnan(summary.cells[0].sd_auc)
        assert summary.cells[1].complete
        assert not all(cell.complete for cell in summary.cells)

    def test_permuted_labels_sit_at_chance(self):
        rng = np.random.default_rng(0)
        data = synthetic_modeling_data(rng, n_train=300, n_test=200, signal=2.0)
        permuted_test = data.y_test["nc"].copy()
        rng.shuffle(permuted_test)
        data.y_test["null"] = permuted_test
        data.y_train["null"] = data.y_train["nc"]
        cells = [Cell(ENET, "null", Protocol())]
        summary = run_simulations(data, cells, n_sims=20, master_seed=2)
        assert 0.4 <= summary.cells[0].mean_auc <= 0.6


def _openblas_or_skip():
    functions = pipeline._openblas_threads()
    if functions is None:
        pytest.skip("numpy does not use a bundled OpenBLAS")
    return functions


def _stub_run(*args, **kwargs):
    return SimpleNamespace(test_auc=0.5)


class TestSimulationProcessState:
    """run_simulations holds OpenBLAS at one thread while it runs and leaves
    the BLAS thread count and the warning filters as it found them."""

    CELLS = [Cell(ENET, "nc", Protocol()), Cell(ENET, "nc", Protocol(pca=True))]

    @pytest.fixture
    def data(self, rng):
        return synthetic_modeling_data(rng, n_train=40, n_test=20)

    @pytest.fixture
    def blas_get(self):
        get, put = _openblas_or_skip()
        saved = get()
        put(2)   # a count the pin must override and then restore
        try:
            yield get
        finally:
            put(saved)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_runs_see_one_blas_thread(self, data, blas_get, monkeypatch, threads):
        before = blas_get()
        seen = []

        def stub(*args, **kwargs):
            seen.append(blas_get())
            return _stub_run()

        monkeypatch.setattr(pipeline, "run_pipeline_once", stub)
        summary = run_simulations(data, self.CELLS, n_sims=3, master_seed=0,
                                  threads=threads)
        assert seen == [1] * 6
        assert summary.blas_threads == 1
        assert blas_get() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_thread_count_restored_after_raise(self, data, blas_get, monkeypatch,
                                               threads):
        class Abort(BaseException):   # not an Exception, so no cell catches it
            pass

        def stub(*args, **kwargs):
            raise Abort

        before = blas_get()
        monkeypatch.setattr(pipeline, "run_pipeline_once", stub)
        with pytest.raises(Abort):
            run_simulations(data, self.CELLS, n_sims=2, master_seed=0,
                            threads=threads)
        assert blas_get() == before

    def test_threaded_run_leaves_warning_filters(self, data, monkeypatch):
        def stub(*args, **kwargs):
            warnings.warn("fold count reduced", UserWarning)
            time.sleep(0.002)   # lets the pool threads interleave
            return _stub_run()

        monkeypatch.setattr(pipeline, "run_pipeline_once", stub)
        before = list(warnings.filters)
        for _ in range(5):
            run_simulations(data, self.CELLS, n_sims=4, master_seed=0, threads=4)
            assert warnings.filters == before

    def test_runs_without_openblas(self, rng, monkeypatch):
        monkeypatch.setattr(pipeline, "_openblas_threads", lambda: None)
        data = synthetic_modeling_data(rng)
        summary = run_simulations(data, [Cell(ENET, "nc", Protocol())], n_sims=2,
                                  master_seed=4, threads=2)
        assert summary.blas_threads is None
        assert summary.cells[0].complete


def data_with_gaps(rng, **kwargs):
    """synthetic_modeling_data with 10% missing cells: columns 0 and 1 stay
    complete in train but have gaps in test."""
    data = synthetic_modeling_data(rng, **kwargs)
    holes = rng.random(data.X_train.shape) < 0.1
    holes[:, :2] = False
    data.X_train[holes] = np.nan
    data.X_test[rng.random(data.X_test.shape) < 0.1] = np.nan
    return data


class TestSharedImputer:
    CELLS = [Cell(ENET, "nc", Protocol()), Cell(ENET, "nc", Protocol(pca=True)),
             Cell(ENET, "nc", Protocol(sampling="smote"))]

    def test_shared_fit_gives_the_per_run_results(self, rng):
        data = data_with_gaps(rng)
        summary = run_simulations(data, self.CELLS, n_sims=2, master_seed=5,
                                  threads=2)
        for cell, cell_summary in zip(self.CELLS, summary.cells):
            for sim in range(2):
                run = run_pipeline_once(
                    data.X_train, data.y_train["nc"], data.X_test, data.y_test["nc"],
                    cell.spec, cell.protocol, PipelineSettings(), 5, sim_index=sim,
                    groups_train=data.groups_train, feature_names=data.feature_names)
                assert cell_summary.aucs[sim] == run.test_auc

    def test_one_fit_per_call(self, rng, monkeypatch):
        data = data_with_gaps(rng, n_train=60, n_test=30)
        fit = PmmImputer.fit.__func__
        fits = []

        def counting_fit(cls, *args, **kwargs):
            fits.append(1)
            return fit(cls, *args, **kwargs)

        used = []

        def stub(X_train, y_train, X_test, y_test, spec, protocol, settings,
                 master_seed, sim_index=0, **kwargs):
            used.append(kwargs["imputer"])
            pipeline.fit_preprocessing(X_train, settings, protocol,
                                       stream_rng(master_seed, sim_index, "impute"),
                                       kwargs["feature_names"], kwargs["imputer"])
            return _stub_run()

        monkeypatch.setattr(PmmImputer, "fit", classmethod(counting_fit))
        monkeypatch.setattr(pipeline, "run_pipeline_once", stub)
        for threads in (1, 2):
            fits.clear()
            used.clear()
            run_simulations(data, self.CELLS, n_sims=3, master_seed=0,
                            threads=threads)
            assert len(fits) == 1
            assert len(used) == 9 and all(imputer is used[0] for imputer in used)

    def test_failed_fit_recorded_for_every_run(self, rng):
        data = synthetic_modeling_data(rng, n_train=60, n_test=30)
        data.X_train[5:, 2] = np.nan          # 5 observed values
        with pytest.raises(ValueError) as raised:
            run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                              data.y_test["nc"], ENET, Protocol(), PipelineSettings(),
                              0, feature_names=data.feature_names)
        message = f"ValueError: {raised.value}"
        assert message == "ValueError: f2 has fewer than 10 observed values"
        for threads in (1, 2):
            summary = run_simulations(data, self.CELLS, n_sims=2, master_seed=0,
                                      threads=threads)
            for cell in summary.cells:
                assert cell.errors == {0: message, 1: message}

    def test_imputer_fitted_on_other_rows_rejected(self, rng):
        data = data_with_gaps(rng)
        settings = PipelineSettings()
        others = (PmmImputer.fit(data.X_train[1:], donors=settings.pmm_donors),
                  PmmImputer.from_dict(PmmImputer.fit(data.X_train,
                                                      donors=settings.pmm_donors).to_dict()))
        for imputer in others:
            with pytest.raises(ValueError, match="other rows"):
                pipeline.fit_preprocessing(data.X_train, settings, Protocol(),
                                           stream_rng(0, 0, "impute"),
                                           imputer=imputer)
        shared = PmmImputer.fit(data.X_train, donors=settings.pmm_donors)
        _, with_shared = pipeline.fit_preprocessing(
            data.X_train, settings, Protocol(), stream_rng(0, 0, "impute"),
            imputer=shared)
        _, own = pipeline.fit_preprocessing(data.X_train, settings, Protocol(),
                                            stream_rng(0, 0, "impute"))
        np.testing.assert_array_equal(with_shared, own)

    def test_train_scores_kept_with_train_auc(self, rng):
        data = data_with_gaps(rng)
        run = run_pipeline_once(data.X_train, data.y_train["nc"], data.X_test,
                                data.y_test["nc"], ENET, Protocol(pca=True),
                                PipelineSettings(), 3, compute_train_auc=True)
        rescored = run.model.score(run.bundle.transform(data.X_train,
                                                        stream_rng(3, 0, "impute")))
        np.testing.assert_array_equal(run.train_scores, rescored)


class TestLearningCurve:
    def test_basic_shape_and_full_size(self, rng):
        data = synthetic_modeling_data(rng, n_train=240)
        points = learning_curve(data, "nc", ENET, Protocol(), sizes=[60, 240],
                                repeats=2, master_seed=6)
        assert [p.size for p in points] == [60, 240]
        assert all(len(p.test_aucs) == 2 for p in points)
        # the full-size subsample uses every row, so repeats coincide
        assert points[1].test_aucs[0] == pytest.approx(points[1].test_aucs[1], abs=1e-12)

    def test_size_validation(self, rng):
        data = synthetic_modeling_data(rng, n_train=100)
        with pytest.raises(ValueError, match="exceeds training rows"):
            learning_curve(data, "nc", ENET, Protocol(), sizes=[50, 500],
                           repeats=1, master_seed=0)

    def test_train_auc_reported_on_subset(self, rng):
        data = synthetic_modeling_data(rng, n_train=200, signal=3.0)
        points = learning_curve(data, "nc", ENET, Protocol(), sizes=[80],
                                repeats=3, master_seed=6)
        assert all(0.5 <= a <= 1.0 for a in points[0].train_aucs)

    def test_point_without_completed_repeat_is_nan(self):
        point = pipeline.LearningCurvePoint(80, [], [], errors={0: "E: x"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = (point.train_mean, point.train_sd, point.test_mean, point.test_sd)
        assert all(np.isnan(value) for value in values)
