"""Common fitted-model contract and flat-file serialization.

Every family produces a TrainedModel whose ``score`` returns one finite real
per row, higher meaning more injury-like.  Models serialize to a versioned
JSON file holding the family tag, feature names, chosen hyperparameters and
parameter arrays.
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
#: family -> decode(params_jsonable) -> params with numpy arrays restored
DECODERS: dict = {}


class ConvergenceError(RuntimeError):
    """Optimization failed to reach its tolerance within the iteration cap."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def register_family(family: str, scorer, decoder):
    SCORERS[family] = scorer
    DECODERS[family] = decoder


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
    if family not in DECODERS:
        raise ValueError(f"unknown model family {family!r}")
    return TrainedModel(
        family=family,
        feature_names=list(data["feature_names"]),
        hyperparams=data["hyperparams"],
        params=DECODERS[family](data["params"]),
        metadata=data.get("metadata", {}),
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, cls=_ArrayEncoder)


def load_model(path) -> TrainedModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def check_binary_labels(y):
    y = np.asarray(y)
    if np.count_nonzero(y == 1) == 0 or np.count_nonzero(y == 0) == 0:
        raise ValueError("labels are single-class; need both outcomes present")
    return y.astype(float)
