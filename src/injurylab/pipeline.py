"""End-to-end modelling pipeline: impute, standardize, optional PCA, optional
re-sampling, cross-validated model fitting and test scoring - plus the
simulation repeats and learning curves built on top of a single run.

All randomness flows from one master seed through named substreams keyed by
(simulation index, stage), so results are reproducible and independent of
thread count or execution order.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import preprocess
from .domain import (DEFAULT_LAG_DAYS, DailyPanel, SplitDataset, build_daily_panel,
                     split_by_season)
from .load_metrics import MONOTONY_CAP, FeatureMatrix, build_feature_matrix
from .metrics import auc
from .models import ModelSpec, TrainedModel, fit_model
from .models.base import (_ArrayEncoder, _decode_arrays, model_from_dict, model_to_dict,
                          resolve_feature_names)
from .preprocess import PcaProjection, PmmImputer, impute_session_values

#: stage names -> fixed substream ids
_STREAMS = {"impute": 0, "sampling": 1, "model": 3, "subsample": 4, "ingest": 5}

PROTOCOL_NAMES = ("none", "pca", "undersample", "smote",
                  "pca+undersample", "pca+smote")


@dataclass(frozen=True)
class Protocol:
    """A preprocessing protocol: optional PCA x optional re-sampling."""

    pca: bool = False
    sampling: str = "none"    # none | undersample | smote

    def __post_init__(self):
        if self.sampling not in ("none", "undersample", "smote"):
            raise ValueError(f"unknown sampling scheme {self.sampling!r}")

    @property
    def name(self) -> str:
        if not self.pca:
            return self.sampling
        return "pca" if self.sampling == "none" else f"pca+{self.sampling}"

    @classmethod
    def parse(cls, token: str) -> "Protocol":
        token = token.strip().lower()
        if token not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {token!r} (expected one of {PROTOCOL_NAMES})")
        pca = token.startswith("pca")
        sampling = token.removeprefix("pca").removeprefix("+") or "none"
        return cls(pca=pca, sampling=sampling)


@dataclass
class PipelineSettings:
    pca_threshold: float = preprocess.PCA_THRESHOLD
    pmm_donors: int = preprocess.PMM_DONORS
    smote_k: int = preprocess.SMOTE_NEIGHBORS
    smote_oversample_pct: float | None = None


def stream_rng(master_seed: int, sim_index: int, stage: str) -> np.random.Generator:
    """Named, order-independent substream of the master seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(sim_index), _STREAMS[stage]])
    )


@dataclass
class ModelingData:
    """Feature matrices and labels for one train/test split."""

    feature_names: list[str]
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: dict[str, np.ndarray]
    y_test: dict[str, np.ndarray]
    groups_train: np.ndarray
    new_player_test: np.ndarray

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]


def assemble_modeling_data(panel: DailyPanel, split: SplitDataset,
                           features: FeatureMatrix) -> ModelingData:
    """Read the split's train and test rows out of the panel and its
    row-aligned feature matrix."""
    train, test = split.train_idx, split.test_idx
    return ModelingData(
        feature_names=list(features.columns),
        X_train=features.values[train],
        X_test=features.values[test],
        y_train={k: v[train] for k, v in panel.labels.items()},
        y_test={k: v[test] for k, v in panel.labels.items()},
        groups_train=np.asarray(panel.athlete_ids, dtype=object)[train],
        new_player_test=panel.new_player[test],
    )


def features_from_records(sessions, injuries, athletes, seed: int = 0,
                          lag_days: int = DEFAULT_LAG_DAYS,
                          monotony_cap: float = MONOTONY_CAP,
                          pmm_donors: int = preprocess.PMM_DONORS):
    """Records -> imputed sessions -> panel -> features.

    Returns (panel, features).  Raw missing session fields are filled once by
    predictive mean matching from the seed's "ingest" stream, so every load
    series that `build_feature_matrix` lays on the panel's calendar is
    complete.
    """
    sessions = impute_session_values(sessions, stream_rng(seed, 0, "ingest"),
                                     donors=pmm_donors)
    panel = build_daily_panel(sessions, injuries, athletes, lag_days=lag_days)
    return panel, build_feature_matrix(panel, sessions, monotony_cap=monotony_cap)


def modeling_data_from_records(sessions, injuries, athletes, train_seasons,
                               test_seasons, **options):
    """Records -> features_from_records, given the keyword ``options`` ->
    split; returns (panel, features, split, ModelingData)."""
    panel, features = features_from_records(sessions, injuries, athletes, **options)
    split = split_by_season(panel, train_seasons, test_seasons)
    return panel, features, split, assemble_modeling_data(panel, split, features)


@dataclass
class PreprocessBundle:
    """Training-fitted transforms, applied identically to any later matrix."""

    imputer: PmmImputer
    means: np.ndarray
    scales: np.ndarray
    pca: PcaProjection | None
    feature_names: list[str]

    def transform(self, X, rng: np.random.Generator) -> np.ndarray:
        filled = self.imputer.transform(X, rng)
        standardized = preprocess.apply_standardize(filled, self.means, self.scales)
        if self.pca is not None:
            return preprocess.pca_transform(standardized, self.pca)
        return standardized

    @property
    def output_names(self) -> list[str]:
        if self.pca is None:
            return list(self.feature_names)
        return [f"pc{i + 1}" for i in range(self.pca.n_components)]

    def to_dict(self) -> dict:
        return {
            "imputer": self.imputer.to_dict(),
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
            "pca": asdict(self.pca) if self.pca is not None else None,
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreprocessBundle":
        return cls(
            imputer=PmmImputer.from_dict(data["imputer"]),
            means=np.asarray(data["means"], dtype=float),
            scales=np.asarray(data["scales"], dtype=float),
            pca=PcaProjection(**_decode_arrays(data["pca"])) if data["pca"] else None,
            feature_names=list(data["feature_names"]),
        )


def fit_preprocessing(X_train, settings: PipelineSettings, protocol: Protocol,
                      rng: np.random.Generator, feature_names=None,
                      imputer: PmmImputer | None = None) -> tuple:
    """Fit imputer/standardizer/PCA on training data; returns (bundle, X_out).

    ``imputer`` is a `PmmImputer.fit` of this very X_train, shared between
    runs on the same rows; without it the imputer is fitted here.  An
    imputer whose stored fit matrix is not X_train raises ValueError,
    because its donor pools would leak other rows into this fit.
    """
    if imputer is None:
        imputer = PmmImputer.fit(X_train, donors=settings.pmm_donors,
                                 column_names=feature_names)
    elif imputer.train is None or not np.array_equal(imputer.train, X_train,
                                                     equal_nan=True):
        raise ValueError("imputer was fitted on other rows than X_train")
    filled = imputer.transform(X_train, rng)
    standardized, means, scales = preprocess.standardize(filled)
    pca = None
    out = standardized
    if protocol.pca:
        pca = preprocess.pca_fit(standardized, threshold=settings.pca_threshold)
        out = preprocess.pca_transform(standardized, pca)
    names = resolve_feature_names(feature_names, X_train.shape[1])
    return PreprocessBundle(imputer, means, scales, pca, names), out


@dataclass
class PipelineRun:
    model: TrainedModel
    bundle: PreprocessBundle
    test_scores: np.ndarray
    test_auc: float
    train_auc: float | None = None
    n_model_rows: int = 0
    #: model scores of the real (pre-sampling) training rows, with train_auc
    train_scores: np.ndarray | None = None


def run_pipeline_once(X_train, y_train, X_test, y_test, spec: ModelSpec,
                      protocol: Protocol, settings: PipelineSettings,
                      master_seed: int, sim_index: int = 0,
                      groups_train=None, feature_names=None,
                      compute_train_auc: bool = False,
                      imputer: PmmImputer | None = None) -> PipelineRun:
    """One full pass: preprocess on train, fit (with CV tuning), score test.

    ``imputer`` is passed on to `fit_preprocessing`.
    """
    rng_impute = stream_rng(master_seed, sim_index, "impute")
    rng_sampling = stream_rng(master_seed, sim_index, "sampling")
    rng_model = stream_rng(master_seed, sim_index, "model")

    y_train = np.asarray(y_train)
    y_test = np.asarray(y_test)
    bundle, Z_train = fit_preprocessing(X_train, settings, protocol, rng_impute,
                                        feature_names, imputer)
    Z_test = bundle.transform(X_test, rng_impute)

    groups = (np.asarray(groups_train, dtype=object) if groups_train is not None
              else np.array([f"r{i}" for i in range(Z_train.shape[0])], dtype=object))
    X_fit, y_fit, groups_fit = Z_train, y_train, groups
    if protocol.sampling == "undersample":
        result = preprocess.undersample(Z_train, y_train, rng_sampling)
        X_fit, y_fit = result.X, result.y
        groups_fit = groups[result.indices]
    elif protocol.sampling == "smote":
        result = preprocess.smote(Z_train, y_train, rng_sampling,
                                  k=settings.smote_k,
                                  oversample_pct=settings.smote_oversample_pct)
        X_fit, y_fit = result.X, result.y
        # synthetic rows act as independent singleton groups
        groups_fit = np.array(
            [groups[i] if i >= 0 else f"synthetic{k}"
             for k, i in enumerate(result.indices)], dtype=object)

    model = fit_model(spec, X_fit, y_fit, rng_model,
                      feature_names=bundle.output_names, groups=groups_fit)
    test_scores = model.score(Z_test)
    run = PipelineRun(
        model=model,
        bundle=bundle,
        test_scores=test_scores,
        test_auc=auc(test_scores, y_test),
        n_model_rows=X_fit.shape[0],
    )
    if compute_train_auc:
        run.train_scores = model.score(Z_train)
        run.train_auc = auc(run.train_scores, y_train)
    return run


# ---------------------------------------------------------------------------
# Simulation repeats


@dataclass(frozen=True)
class Cell:
    """One (model family, outcome, preprocessing protocol) grid cell."""

    spec: ModelSpec
    outcome: str
    protocol: Protocol

    @property
    def key(self) -> tuple:
        return (self.spec.family, self.outcome, self.protocol.name)


def _mean(values) -> float:
    """Mean of the values; nan, without numpy's warning, for none."""
    return float(np.mean(values)) if values else float("nan")


def _sd(values) -> float:
    """Sample SD of the values: 0 for one value, nan for none."""
    if len(values) > 1:
        return float(np.std(values, ddof=1))
    return 0.0 if values else float("nan")


@dataclass
class CellSummary:
    family: str
    outcome: str
    protocol: str
    aucs: list
    errors: dict = field(default_factory=dict)   # sim index -> message
    single_run: bool = False

    @property
    def n_completed(self) -> int:
        return sum(1 for a in self.aucs if a is not None)

    @property
    def complete(self) -> bool:
        return not self.errors

    @property
    def mean_auc(self) -> float:
        return _mean([a for a in self.aucs if a is not None])

    @property
    def sd_auc(self) -> float:
        return _sd([a for a in self.aucs if a is not None])


@dataclass
class SimulationSummary:
    cells: list[CellSummary]
    n_sims: int
    master_seed: int
    #: OpenBLAS threads the runs were held at; None when no OpenBLAS was found
    blas_threads: int | None = None


@dataclass
class Task:
    """One run of a cell, on the training ``rows`` or, when None, on all."""

    cell: Cell
    sim: int
    rows: np.ndarray | None = None


def run_tasks(data: ModelingData, tasks, master_seed: int, keep,
              settings: PipelineSettings | None = None, threads: int = 1,
              compute_train_auc: bool = False) -> list:
    """Run each task through `run_pipeline_once` on ``threads`` pool threads;
    returns, in task order, ``keep(task, run)`` or the run's failure as a
    "Type: message" string.  Only what ``keep`` returns outlives the task;
    an error raised by ``keep`` itself propagates.

    Tasks on all training rows share one `PmmImputer.fit` made once per
    call (fitting draws no random numbers); if that fit fails,
    each run refits and records its own error.  OpenBLAS is held at one
    thread for the call (see `_one_blas_thread`), so the pool does not
    oversubscribe the cores and no result bit depends on ``threads`` or the
    core count.  Warnings are silenced for the call.
    """
    settings = settings or PipelineSettings()
    tasks = list(tasks)

    def one(task: Task):
        cell = task.cell
        rows = slice(None) if task.rows is None else task.rows
        try:
            run = run_pipeline_once(
                data.X_train[rows], data.y_train[cell.outcome][rows],
                data.X_test, data.y_test[cell.outcome],
                cell.spec, cell.protocol, settings, master_seed, sim_index=task.sim,
                groups_train=data.groups_train[rows], feature_names=data.feature_names,
                compute_train_auc=compute_train_auc,
                imputer=imputer if task.rows is None else None,
            )
        except Exception as exc:  # recorded per task, batch continues
            return f"{type(exc).__name__}: {exc}"
        return keep(task, run)

    # catch_warnings saves and restores the process-wide filter list, so it is
    # entered once, here: entered in each pool thread, interleaved exits can
    # leave "ignore" installed for good.
    with _one_blas_thread(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        imputer = None
        if any(task.rows is None for task in tasks):
            try:
                imputer = PmmImputer.fit(data.X_train, donors=settings.pmm_donors,
                                         column_names=data.feature_names)
            except Exception:   # each run refits and records the error itself
                pass
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(one, tasks))
        return [one(task) for task in tasks]


def run_simulations(data: ModelingData, cells, n_sims: int, master_seed: int,
                    settings: PipelineSettings | None = None,
                    threads: int = 1) -> SimulationSummary:
    """Repeat the whole pipeline n_sims times per cell with per-simulation
    seeds derived from (master_seed, sim index).  `run_tasks` runs them: it
    pins OpenBLAS, silences warnings, shares the PMM imputer and records
    each failure per cell rather than aborting the batch."""
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    cells = list(cells)
    tasks = [Task(cell, sim) for cell in cells for sim in range(n_sims)]
    results = run_tasks(data, tasks, master_seed, lambda task, run: run.test_auc,
                        settings, threads)
    summaries = []
    for c, cell in enumerate(cells):
        values = results[c * n_sims:(c + 1) * n_sims]
        errors = {s: value for s, value in enumerate(values) if isinstance(value, str)}
        aucs = [None if s in errors else float(value) for s, value in enumerate(values)]
        summaries.append(CellSummary(cell.spec.family, cell.outcome,
                                     cell.protocol.name, aucs, errors,
                                     single_run=n_sims == 1))
    return SimulationSummary(summaries, n_sims, master_seed, pinned_blas_threads())


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    wheels bundle under ``numpy.libs``, or None for any other BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # not loadable here, so not the library numpy uses
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread and restore the previous count on
    exit; changes nothing when no OpenBLAS is found."""
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, put = functions
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def pinned_blas_threads() -> int | None:
    """The OpenBLAS thread count `run_tasks` holds its runs at: 1, or None
    when no OpenBLAS is found and the runs use the BLAS as it is."""
    return None if _openblas_threads() is None else 1


# ---------------------------------------------------------------------------
# Learning curves


@dataclass
class LearningCurvePoint:
    size: int
    train_aucs: list[float]
    test_aucs: list[float]
    errors: dict = field(default_factory=dict)   # repeat index -> message

    @property
    def train_mean(self) -> float:
        return _mean(self.train_aucs)

    @property
    def train_sd(self) -> float:
        return _sd(self.train_aucs)

    @property
    def test_mean(self) -> float:
        return _mean(self.test_aucs)

    @property
    def test_sd(self) -> float:
        return _sd(self.test_aucs)


def _stratified_subsample(y, size: int, rng: np.random.Generator) -> np.ndarray:
    """Class-proportional subsample without replacement with >= 2 positives."""
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if size >= y.size:
        return np.arange(y.size)
    n_pos = max(2, int(round(size * pos.size / y.size)))
    n_pos = min(n_pos, pos.size)
    n_neg = min(size - n_pos, neg.size)
    chosen = np.concatenate([rng.choice(pos, n_pos, replace=False),
                             rng.choice(neg, n_neg, replace=False)])
    return np.sort(chosen)


def learning_curve(data: ModelingData, outcome: str, spec: ModelSpec,
                   protocol: Protocol, sizes, repeats: int, master_seed: int,
                   settings: PipelineSettings | None = None) -> list[LearningCurvePoint]:
    """Train/test AUC versus training-set size, re-sampled `repeats` times.

    Train AUC is measured on the drawn subset itself; test AUC on the fixed
    test split.  A point lists the AUCs of its completed repeats and the
    error of each failed one.
    """
    y_train = data.y_train[outcome]
    if np.count_nonzero(y_train == 1) < 2:
        raise ValueError("training data needs at least 2 positive rows")
    sizes = sorted(int(s) for s in sizes)
    if sizes[0] < 10:
        raise ValueError("sizes must be at least 10 rows")
    if sizes[-1] > data.n_train:
        raise ValueError(f"size {sizes[-1]} exceeds training rows {data.n_train}")
    cell, tasks = Cell(spec, outcome, protocol), []
    for size_index, size in enumerate(sizes):
        for repeat in range(repeats):
            sim = size_index * 100003 + repeat + 1
            rng_sub = stream_rng(master_seed, sim, "subsample")
            tasks.append(Task(cell, sim, _stratified_subsample(y_train, size, rng_sub)))
    results = run_tasks(data, tasks, master_seed,
                        lambda task, run: (run.train_auc, run.test_auc), settings,
                        compute_train_auc=True)
    points = []
    for size_index, size in enumerate(sizes):
        point = LearningCurvePoint(size, [], [])
        first = size_index * repeats
        for repeat, result in enumerate(results[first:first + repeats]):
            if isinstance(result, str):
                point.errors[repeat] = result
            else:
                point.train_aucs.append(result[0])
                point.test_aucs.append(result[1])
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Model bundle serialization (preprocessing + model in one flat file)

BUNDLE_VERSION = 1


def save_bundle(path, bundle: PreprocessBundle, model: TrainedModel,
                extra: dict | None = None) -> None:
    data = {
        "bundle_version": BUNDLE_VERSION,
        "preprocess": bundle.to_dict(),
        "model": model_to_dict(model),
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, cls=_ArrayEncoder)


def load_bundle(path) -> tuple[PreprocessBundle, TrainedModel, dict]:
    """A bundle written by `save_bundle`; a file that is not one raises a
    ValueError that names it."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            if data.get("bundle_version") != BUNDLE_VERSION:
                raise ValueError(f"unsupported bundle version {data.get('bundle_version')!r}")
            return (PreprocessBundle.from_dict(data["preprocess"]),
                    model_from_dict(data["model"]),
                    data.get("extra", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed model bundle "
                             f"({type(exc).__name__}: {exc})") from None
