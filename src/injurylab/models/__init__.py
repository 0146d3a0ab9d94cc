"""Five predictor families behind one fit/score contract.

``fit_model`` is the one entry point: it dispatches a ModelSpec to its
family.  The four CV-tuned families (``tune_*``) pass the grid, verbatim, as
the candidate list of ``tuning.tune``; a None grid is the family default.
"""

from __future__ import annotations

import numpy as np

from .base import (FAMILIES, ConvergenceError, TrainedModel, model_from_dict,
                   model_to_dict, sigmoid)
from .forest import (RF_MAX_FEATURES, RF_MIN_LEAF, RF_TREES, fit_random_forest_raw,
                     resolve_max_features, tune_random_forest)
from .gee import fit_gee_ar1
from .linear import (ALPHA_GRID, LAMBDA_GRID, fit_elastic_net_raw, fit_logistic_irls,
                     log_loss, smooth_gradient, tune_elastic_net, tune_univariate)
from .svm import C_GRID, GAMMA_GRID, fit_svm_rbf_raw, rbf_kernel, tune_svm
from .tuning import (CV_FOLDS, CandidateResult, CvResult, ModelSpec,
                     candidate_grid, coerce_grid, cross_validate, effective_folds,
                     grouped_fold_ids, stratified_fold_ids)

__all__ = [
    "FAMILIES", "ConvergenceError", "TrainedModel", "ModelSpec", "CvResult",
    "CandidateResult", "fit_model", "model_to_dict", "model_from_dict",
    "cross_validate", "candidate_grid", "fit_gee_ar1", "fit_logistic_irls",
    "fit_elastic_net_raw", "fit_random_forest_raw", "fit_svm_rbf_raw",
    "sigmoid", "log_loss",
    "smooth_gradient", "rbf_kernel", "resolve_max_features",
    "stratified_fold_ids", "grouped_fold_ids", "effective_folds",
    "LAMBDA_GRID", "ALPHA_GRID", "C_GRID", "GAMMA_GRID", "CV_FOLDS",
]


def fit_model(spec: ModelSpec, X, y, rng: np.random.Generator,
              feature_names=None, groups=None) -> TrainedModel:
    """Fit one family per its spec; grids with several candidates are tuned
    by stratified k-fold AUC."""
    grid = spec.grid
    cv = dict(folds=spec.folds, rng=rng, feature_names=feature_names,
              groups=groups, group_folds=spec.group_folds)
    if spec.family == "logistic_elastic_net":
        return tune_elastic_net(
            X, y, grid or candidate_grid(lam=LAMBDA_GRID, alpha=ALPHA_GRID), **cv)
    if spec.family == "univariate_logistic":
        return tune_univariate(
            X, y, grid or candidate_grid(column=list(range(np.shape(X)[1]))), **cv)
    if spec.family == "gee_ar1":
        if groups is None:
            raise ValueError("gee_ar1 requires athlete groups")
        if grid is not None and len(grid) > 1:
            raise ValueError(f"gee_ar1 takes one grid entry, got {len(grid)}")
        alpha = coerce_grid(grid, alpha_fixed=None)[0]["alpha_fixed"] if grid else None
        return fit_gee_ar1(X, y, groups, alpha=alpha, feature_names=feature_names)
    if spec.family == "random_forest":
        return tune_random_forest(
            X, y, grid or candidate_grid(n_trees=RF_TREES, max_features=RF_MAX_FEATURES,
                                         min_leaf=RF_MIN_LEAF), **cv)
    if spec.family == "svm_rbf":
        return tune_svm(X, y, grid or candidate_grid(C=C_GRID, gamma=GAMMA_GRID), **cv)
    raise ValueError(f"unknown model family {spec.family!r}")
