"""Stratified k-fold cross-validation for hyperparameter selection.

Folds are stratified by label (optionally grouped by athlete); every row is
scored exactly once per candidate out-of-fold, candidates are ranked by mean
validation AUC and ties go to the simpler model via a family-supplied
preference key.  ``tune`` is the one path from a candidate list to a fitted
TrainedModel that every CV-tuned family takes.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from ..metrics import auc
from .base import SCORERS, ConvergenceError, TrainedModel, check_binary_labels

CV_FOLDS = 10


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
    fold_id: np.ndarray
    folds: int
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
    groups = np.asarray(groups)
    unique = list(dict.fromkeys(groups.tolist()))
    order = rng.permutation(len(unique))
    group_pos = {g: int(np.count_nonzero(y[groups == g] == 1)) for g in unique}
    shuffled = sorted((unique[i] for i in order),
                      key=lambda g: -group_pos[g])
    fold_pos = np.zeros(folds)
    fold_n = np.zeros(folds)
    assignment: dict = {}
    for g in shuffled:
        # least positives, then least rows, keeps folds usable for AUC
        target = int(np.lexsort((fold_n, fold_pos))[0])
        assignment[g] = target
        fold_pos[target] += group_pos[g]
        fold_n[target] += int(np.count_nonzero(groups == g))
    return np.array([assignment[g] for g in groups.tolist()], dtype=int)


def cross_validate(candidates, X, y, fit_score_fn, rng: np.random.Generator,
                   folds: int = CV_FOLDS, prefer=None, groups=None,
                   group_folds: bool = False) -> CvResult:
    """Score each candidate by out-of-fold AUC and select the best.

    ``fit_score_fn(params, train_idx, valid_idx, rng, state)`` must return
    ``(validation_scores, state)``.  Within one fold, each candidate gets the
    state its predecessor returned (None for the first, and after a failed
    fit), so a family can warm-start along the candidate order; a family
    that returns None starts every fit cold.  Candidates whose fit fails on
    a fold get a NaN fold AUC and a warning.
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
    fold_auc = np.full((len(candidates), folds), np.nan)
    child_rngs = rng.spawn(folds * len(candidates))
    for f in range(folds):
        valid_idx = np.flatnonzero(fold_id == f)
        train_idx = np.flatnonzero(fold_id != f)
        y_valid = y[valid_idx]
        if np.count_nonzero(y_valid == 1) == 0 or np.count_nonzero(y_valid == 0) == 0:
            warnings.warn(f"fold {f} lacks both classes; skipped", stacklevel=2)
            continue
        state = None
        for c, params in enumerate(candidates):
            child = child_rngs[f * len(candidates) + c]
            try:
                scores, state = fit_score_fn(params, train_idx, valid_idx, child, state)
            except (ConvergenceError, np.linalg.LinAlgError) as exc:
                warnings.warn(f"candidate {params} failed on fold {f}: {exc}",
                              stacklevel=2)
                state = None
                continue
            fold_auc[c, f] = auc(scores, y_valid)

    results = [CandidateResult(params, fold_auc[c]) for c, params in enumerate(candidates)]
    if all(np.isnan(r.fold_auc).all() for r in results):
        raise ConvergenceError("every candidate failed cross-validation")
    if prefer is None:
        prefer = lambda params: 0
    best = max(results, key=lambda r: (r.mean_auc, prefer(r.params)))
    return CvResult(results=results, selected=dict(best.params), fold_id=fold_id,
                    folds=folds, selected_mean_auc=best.mean_auc)


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


def tune(family: str, candidates, fit, X, y, *, rng: np.random.Generator | None = None,
         folds: int = CV_FOLDS, prefer=None, groups=None, group_folds: bool = False,
         feature_names=None) -> TrainedModel:
    """Pick a family's candidate by cross-validated AUC and refit it on all rows.

    ``fit(params, X, y, rows, rng, state)`` fits the given rows of X and
    returns ``(model_params, metadata, state)``; validation rows are scored by
    the family's registered scorer.  Repeated candidates are dropped (the
    first is kept) and a single candidate skips CV.  The model's metadata is
    the CV summary plus the metadata of the final fit.
    """
    X = np.asarray(X, dtype=float)
    y = check_binary_labels(y)
    if rng is None:
        rng = np.random.default_rng(0)
    candidates = [dict(items) for items in
                  dict.fromkeys(tuple(params.items()) for params in candidates)]
    selected, cv_meta = candidates[0], {}
    if len(candidates) > 1:
        score = SCORERS[family]
        fold = [None, None]    # a fold's validation rows and their X, sliced once

        def fit_score(params, train_idx, valid_idx, child, state):
            if fold[0] is not valid_idx:
                fold[:] = valid_idx, X[valid_idx]
            model_params, _, state = fit(params, X, y, train_idx, child, state)
            return score(model_params, fold[1]), state

        cv = cross_validate(candidates, X, y, fit_score, rng, folds=folds,
                            prefer=prefer, groups=groups, group_folds=group_folds)
        selected = cv.selected
        cv_meta = {"cv_table": cv.table(), "folds": cv.folds,
                   "cv_mean_auc": cv.selected_mean_auc}
    model_params, metadata, _ = fit(selected, X, y, slice(None), rng, None)
    names = list(feature_names) if feature_names is not None else [
        f"x{j}" for j in range(X.shape[1])
    ]
    return TrainedModel(family=family, feature_names=names, hyperparams=dict(selected),
                        params=model_params, metadata={**cv_meta, **metadata})
