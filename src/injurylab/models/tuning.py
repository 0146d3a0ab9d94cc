"""Stratified k-fold cross-validation for hyperparameter selection.

Folds are stratified by label (optionally grouped by athlete); every row is
scored exactly once per candidate out-of-fold, candidates are ranked by mean
validation AUC and ties go to the simpler model via a family-supplied
preference key.  ``tune`` is the one path from a candidate list to a fitted
TrainedModel that every CV-tuned family takes.

A family's ``fit`` sees every candidate at once, once per set of rows: once
per CV fold and once for the final refit.  So work shared across candidates
(a warm-start chain, a fold's Gram or kernel) stays inside the family.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from ..metrics import auc
from .base import (SCORERS, ConvergenceError, TrainedModel, check_binary_labels,
                   resolve_feature_names)

CV_FOLDS = 10

#: the errors a candidate's fit may raise and CV records as a failed fold
FIT_ERRORS = (ConvergenceError, np.linalg.LinAlgError)


@dataclass
class ModelSpec:
    """A model family plus its hyperparameter grid and tuning settings.

    ``grid`` is the exact candidate list: one dict of the family's keys per
    candidate, never expanded into a product.  None means the family default.
    """

    family: str
    grid: list[dict] | None = None
    folds: int = CV_FOLDS
    group_folds: bool = False

    def __post_init__(self):
        if self.grid is not None and len(self.grid) == 0:
            raise ValueError("hyperparameter grid must be nonempty")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass
class CandidateResult:
    params: dict
    fold_auc: np.ndarray

    @property
    def mean_auc(self) -> float:
        valid = self.fold_auc[~np.isnan(self.fold_auc)]
        return float(valid.mean()) if valid.size else float("-inf")

    @property
    def sd_auc(self) -> float:
        valid = self.fold_auc[~np.isnan(self.fold_auc)]
        return float(valid.std(ddof=1)) if valid.size > 1 else 0.0


@dataclass
class CvResult:
    results: list[CandidateResult]
    selected: dict
    folds: int   # the folds scored: a fold that lacks a class is skipped
    selected_mean_auc: float = float("nan")

    def table(self) -> list[dict]:
        return [
            {"params": r.params, "mean_auc": r.mean_auc, "sd_auc": r.sd_auc}
            for r in self.results
        ]


def effective_folds(y, folds: int) -> int:
    """Reduce the fold count when a class has fewer rows than folds."""
    y = np.asarray(y)
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    reduced = min(folds, n_pos, n_neg)
    if reduced < folds:
        warnings.warn(
            f"reducing folds from {folds} to {reduced}: minority class has "
            f"{min(n_pos, n_neg)} rows",
            stacklevel=2,
        )
    if reduced < 2:
        raise ValueError("need at least 2 rows of each class for cross-validation")
    return reduced


def stratified_fold_ids(y, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Deal shuffled positives and negatives round-robin into folds."""
    y = np.asarray(y)
    fold_id = np.empty(y.size, dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        fold_id[idx] = np.arange(idx.size) % folds
    return fold_id


def grouped_fold_ids(y, groups, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Assign whole groups to folds, greedily balancing positive counts."""
    y = np.asarray(y)
    _, first, inverse = np.unique(np.asarray(groups), return_index=True,
                                  return_inverse=True)
    inverse = np.argsort(np.argsort(first))[inverse]   # first-appearance order
    group_pos = np.bincount(inverse[y == 1], minlength=first.size)
    group_n = np.bincount(inverse, minlength=first.size)
    order = rng.permutation(first.size)
    shuffled = order[np.argsort(-group_pos[order], kind="stable")]
    fold_pos = np.zeros(folds)
    fold_n = np.zeros(folds)
    assignment = np.empty(first.size, dtype=int)
    for g in shuffled:
        # least positives, then least rows, keeps folds usable for AUC
        target = int(np.lexsort((fold_n, fold_pos))[0])
        assignment[g] = target
        fold_pos[target] += group_pos[g]
        fold_n[target] += group_n[g]
    return assignment[inverse]


def cross_validate(candidates, X, y, fit_fold, rng: np.random.Generator,
                   folds: int = CV_FOLDS, prefer=None, groups=None,
                   group_folds: bool = False) -> CvResult:
    """Score each candidate by out-of-fold AUC and select the best.

    ``fit_fold(candidates, train_idx, valid_idx, rngs)`` is called once per
    fold and yields, for each candidate in order, its validation scores or
    the FIT_ERRORS exception its fit raised; ``rngs[c]`` is candidate c's
    generator on that fold.  A failed candidate gets a NaN fold AUC and a
    warning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    folds = effective_folds(y, folds)
    if group_folds:
        if groups is None:
            raise ValueError("group_folds requires groups")
        fold_id = grouped_fold_ids(y, groups, folds, rng)
    else:
        fold_id = stratified_fold_ids(y, folds, rng)

    candidates = list(candidates)
    n_cand = len(candidates)
    fold_auc = np.full((n_cand, folds), np.nan)
    child_rngs = rng.spawn(folds * n_cand)
    scored = 0
    for f in range(folds):
        valid_idx = np.flatnonzero(fold_id == f)
        train_idx = np.flatnonzero(fold_id != f)
        y_valid = y[valid_idx]
        if np.count_nonzero(y_valid == 1) == 0 or np.count_nonzero(y_valid == 0) == 0:
            warnings.warn(f"fold {f} lacks both classes; skipped", stacklevel=2)
            continue
        scored += 1
        outcomes = fit_fold(candidates, train_idx, valid_idx,
                            child_rngs[f * n_cand:(f + 1) * n_cand])
        for c, (params, scores) in enumerate(zip(candidates, outcomes)):
            if isinstance(scores, FIT_ERRORS):
                warnings.warn(f"candidate {params} failed on fold {f}: {scores}",
                              stacklevel=2)
            else:
                fold_auc[c, f] = auc(scores, y_valid)

    results = [CandidateResult(params, fold_auc[c]) for c, params in enumerate(candidates)]
    if all(np.isnan(r.fold_auc).all() for r in results):
        raise ConvergenceError("every candidate failed cross-validation")
    if prefer is None:
        prefer = lambda params: 0
    best = max(results, key=lambda r: (r.mean_auc, prefer(r.params)))
    return CvResult(results=results, selected=dict(best.params), folds=scored,
                    selected_mean_auc=best.mean_auc)


def candidate_grid(**axes) -> list[dict]:
    """Cartesian product of the axes, first key outermost; a scalar is a
    one-value axis."""
    values = [v if isinstance(v, (tuple, list, np.ndarray)) else (v,)
              for v in axes.values()]
    return [dict(zip(axes, combo)) for combo in itertools.product(*values)]


def coerce_grid(grid, **casts) -> list[dict]:
    """The family's keys of every grid entry, each passed through its cast
    (``None`` keeps the value); an entry lacking a key raises ValueError."""
    try:
        return [{key: params[key] if cast is None else cast(params[key])
                 for key, cast in casts.items()} for params in grid]
    except KeyError as exc:
        raise ValueError(f"a grid entry lacks the key {exc.args[0]!r}") from None


def each_candidate(fit_one):
    """A family ``fit`` for tune from ``fit_one(params, X_rows, y_rows, rng)``,
    which fits one candidate on the sliced rows and returns
    ``(model_params, metadata)``; each candidate is fitted on its own."""
    def fit(candidates, X, y, rows, rngs):
        X_rows, y_rows = X[rows], y[rows]
        for params, rng in zip(candidates, rngs):
            try:
                yield fit_one(params, X_rows, y_rows, rng)
            except FIT_ERRORS as exc:
                yield exc
    return fit


def tune(family: str, candidates, fit, X, y, *, rng: np.random.Generator,
         folds: int = CV_FOLDS, prefer=None, groups=None, group_folds: bool = False,
         feature_names=None) -> TrainedModel:
    """Pick a family's candidate by cross-validated AUC and refit it on all rows.

    ``fit(candidates, X, y, rows, rngs)`` fits every candidate on the given
    rows of X, with ``rngs[c]`` for candidate c.  It is a generator that
    yields, per candidate in order, ``(model_params, metadata)`` or the
    FIT_ERRORS exception the fit raised, so each candidate is scored (by the
    family's registered scorer) before the next is fitted.  It is called once
    per CV fold and once for the final refit, whose error is raised here.
    Repeated candidates are dropped (the first is kept) and a single
    candidate skips CV.  The model's metadata is the CV summary plus the
    metadata of the final fit.
    """
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    candidates = [dict(items) for items in
                  dict.fromkeys(tuple(params.items()) for params in candidates)]
    selected, cv_meta = candidates[0], {}
    if len(candidates) > 1:
        score = SCORERS[family]

        def fit_fold(candidates, train_idx, valid_idx, rngs):
            X_valid = X[valid_idx]
            for outcome in fit(candidates, X, y, train_idx, rngs):
                failed = isinstance(outcome, FIT_ERRORS)
                yield outcome if failed else score(outcome[0], X_valid)

        cv = cross_validate(candidates, X, y, fit_fold, rng, folds=folds,
                            prefer=prefer, groups=groups, group_folds=group_folds)
        selected = cv.selected
        cv_meta = {"cv_table": cv.table(), "folds": cv.folds,
                   "cv_mean_auc": cv.selected_mean_auc}
    outcome = next(fit([selected], X, y, slice(None), [rng]))
    if isinstance(outcome, FIT_ERRORS):
        raise outcome
    model_params, metadata = outcome
    names = resolve_feature_names(feature_names, X.shape[1])
    return TrainedModel(family=family, feature_names=names, hyperparams=dict(selected),
                        params=model_params, metadata={**cv_meta, **metadata})
