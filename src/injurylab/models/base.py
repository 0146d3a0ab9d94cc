"""Common fitted-model contract and its JSON form.

Every family produces a TrainedModel whose ``score`` returns one finite real
per row, higher meaning more injury-like.  A model is written only inside a
model bundle (``pipeline.save_bundle``), as a versioned dict holding the
family tag, feature names, chosen hyperparameters and parameter arrays;
``model_from_dict`` turns the arrays' JSON lists back into numpy arrays by
one rule for every family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MODEL_FILE_VERSION = 1

FAMILIES = (
    "logistic_elastic_net",
    "univariate_logistic",
    "gee_ar1",
    "random_forest",
    "svm_rbf",
)

#: family -> score(params, X) -> np.ndarray, registered by the family modules
SCORERS: dict = {}


class ConvergenceError(RuntimeError):
    """Optimization failed to reach its tolerance within the iteration cap."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def register_family(family: str, scorer):
    SCORERS[family] = scorer


@dataclass
class TrainedModel:
    family: str
    feature_names: list[str]
    hyperparams: dict
    params: dict
    metadata: dict = field(default_factory=dict)

    def score(self, X) -> np.ndarray:
        """Injury-likeness score per row; higher = more injury-like."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} feature columns, got {X.shape}"
            )
        scores = SCORERS[self.family](self.params, X)
        if not np.all(np.isfinite(scores)):
            raise RuntimeError(f"{self.family} produced non-finite scores")
        return scores


class _ArrayEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        return super().default(obj)


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FILE_VERSION,
        "family": model.family,
        "feature_names": list(model.feature_names),
        "hyperparams": model.hyperparams,
        "params": model.params,
        "metadata": model.metadata,
    }


def model_from_dict(data: dict) -> TrainedModel:
    version = data.get("format_version")
    if version != MODEL_FILE_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    family = data["family"]
    if family not in SCORERS:
        raise ValueError(f"unknown model family {family!r}")
    return TrainedModel(
        family=family,
        feature_names=list(data["feature_names"]),
        hyperparams=data["hyperparams"],
        params=_decode_arrays(data["params"]),
        metadata=data.get("metadata", {}),
    )


def _decode_arrays(value):
    """`value` read back from JSON: a list of numbers, or of number lists,
    becomes a numpy array, and a number stays as it is; in a dict, or a list
    of objects (a forest's trees), each item is decoded the same way.
    Anything else raises ValueError."""
    if isinstance(value, dict):
        return {key: _decode_arrays(item) for key, item in value.items()}
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return [_decode_arrays(item) for item in value]
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"not numeric: {value!r:.80}")
    return array if isinstance(value, list) else value


def resolve_feature_names(feature_names, n_features: int) -> list[str]:
    """The given names as a list, or x0 .. x{n_features-1} when None."""
    return [f"x{j}" for j in range(n_features)] if feature_names is None else list(feature_names)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def check_binary_labels(y):
    y = np.asarray(y)
    if np.count_nonzero(y == 1) == 0 or np.count_nonzero(y == 0) == 0:
        raise ValueError("labels are single-class; need both outcomes present")
    return y.astype(float)
