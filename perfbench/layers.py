"""The spans and counters the traced run reports, one list for all workloads.

Each span is a public injurylab function (or method) at a layer boundary.
The comment above each group says which end-to-end metric it should move,
and on which workload; a span predicted idle on a workload reports 0 calls.
"""

from __future__ import annotations

import math

from tracer import SpanSpec


def _enet_sweeps(tracer, result):
    tracer.count("models.linear.fit_elastic_net_raw.sweeps", result[2])


def _cv_fits(tracer, result):
    fits = sum(r.fold_auc.size for r in result.results)
    failed = sum(int(math.isnan(v)) for r in result.results for v in r.fold_auc)
    tracer.count("models.tuning.cross_validate.fits", fits)
    tracer.count("models.tuning.cross_validate.fits_failed", failed)


def _svm_support(tracer, result):
    tracer.count("models.svm.n_support", result[0].shape[0])


def _forest_nodes(tracer, result):
    tracer.count("models.forest.nodes", sum(len(t["feature"]) for t in result[0]))


def _gee_ok(tracer, model):
    tracer.count("models.gee.fit_gee_ar1.iterations", model.metadata["iterations"])


def _gee_failed(tracer, exc):
    tracer.count("models.gee.fit_gee_ar1.failed")
    iterations = getattr(exc, "diagnostics", {}).get("iterations")
    if iterations is not None:
        tracer.count("models.gee.fit_gee_ar1.iterations", iterations)


SPANS = [
    # cli: the op of ingest_features; cmd_features self time is CSV
    # formatting and writing, add_output is the sha256 -> ops_per_s,
    # peak_rss_mb on ingest_features
    SpanSpec("cli.main", "injurylab.cli", "main", root=True),
    SpanSpec("cli.cmd_features", "injurylab.cli", "cmd_features"),
    SpanSpec("cli.Manifest.add_output", "injurylab.cli", "add_output",
             owner="Manifest"),
    # ingest -> ops_per_s, op_p50_s on ingest_features; setup_s on the
    # model workloads
    SpanSpec("domain.parse_sessions", "injurylab.domain", "parse_sessions"),
    SpanSpec("domain.build_daily_panel", "injurylab.domain", "build_daily_panel"),
    SpanSpec("preprocess.impute_session_values", "injurylab.preprocess",
             "impute_session_values"),
    SpanSpec("load_metrics.build_load_series", "injurylab.load_metrics",
             "build_load_series"),
    SpanSpec("load_metrics.build_feature_matrix", "injurylab.load_metrics",
             "build_feature_matrix"),
    # pipeline and preprocessing -> ops_per_s, op_p50_s on simulate_linear;
    # a small share on simulate_nonlinear
    SpanSpec("pipeline.run_pipeline_once", "injurylab.pipeline",
             "run_pipeline_once", root=True),
    SpanSpec("pipeline.fit_preprocessing", "injurylab.pipeline",
             "fit_preprocessing"),
    SpanSpec("preprocess.PmmImputer.fit", "injurylab.preprocess", "fit",
             owner="PmmImputer"),
    SpanSpec("preprocess.PmmImputer.transform", "injurylab.preprocess",
             "transform", owner="PmmImputer"),
    SpanSpec("preprocess.pca_fit", "injurylab.preprocess", "pca_fit"),
    SpanSpec("preprocess.smote", "injurylab.preprocess", "smote"),
    # tuning and linear solvers -> ops_per_s, op_p50_s on simulate_linear
    SpanSpec("models.tuning.cross_validate", "injurylab.models.tuning",
             "cross_validate", on_result=_cv_fits),
    SpanSpec("models.linear.fit_elastic_net_raw", "injurylab.models.linear",
             "fit_elastic_net_raw", on_result=_enet_sweeps),
    SpanSpec("models.linear.fit_logistic_irls", "injurylab.models.linear",
             "fit_logistic_irls"),
    # kernel, tree and GEE solvers -> ops_per_s, op_p50_s, failed_ratio on
    # simulate_nonlinear
    SpanSpec("models.svm.fit_svm_rbf_raw", "injurylab.models.svm",
             "fit_svm_rbf_raw", on_result=_svm_support),
    SpanSpec("models.svm.rbf_kernel", "injurylab.models.svm", "rbf_kernel"),
    SpanSpec("models.forest.fit_random_forest_raw", "injurylab.models.forest",
             "fit_random_forest_raw", on_result=_forest_nodes),
    SpanSpec("models.gee.fit_gee_ar1", "injurylab.models.gee", "fit_gee_ar1",
             on_result=_gee_ok, on_error=_gee_failed),
    SpanSpec("models.base.TrainedModel.score", "injurylab.models.base", "score",
             owner="TrainedModel"),
    # predicted under 1% everywhere
    SpanSpec("metrics.auc", "injurylab.metrics", "auc"),
]

SPAN_NAMES = [spec.name for spec in SPANS]

#: counters read at span boundaries, plus the run-level figures
COUNTS = [
    "models.linear.fit_elastic_net_raw.sweeps",
    "models.tuning.cross_validate.fits",
    "models.tuning.cross_validate.fits_failed",
    "models.svm.n_support",
    "models.forest.nodes",
    "models.gee.fit_gee_ar1.iterations",
    "models.gee.fit_gee_ar1.failed",
]


def per_layer_metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["pipeline.run_simulations.parallel_efficiency"] = "fraction"
    units["synthdata.generate_cohort.total_s"] = "s"
    units["trace.overhead_ratio"] = "fraction"
    return units
