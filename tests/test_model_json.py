"""Every family's model survives the JSON round trip of a model bundle.

``model_from_dict`` restores parameter arrays by one rule for all families;
these tests hold it to the arrays the fit produced, to the bit.
"""

import json

import numpy as np
import pytest

from injurylab.models import (FAMILIES, ModelSpec, TrainedModel, candidate_grid,
                              fit_model, model_from_dict, model_to_dict, sigmoid)
from injurylab.models.base import _ArrayEncoder

GRIDS = {
    "logistic_elastic_net": candidate_grid(lam=(0.01,), alpha=(0.5,)),
    "univariate_logistic": None,
    "gee_ar1": None,
    "random_forest": candidate_grid(n_trees=8, max_features=2, min_leaf=1),
    "svm_rbf": candidate_grid(C=(1.0,), gamma=(0.5,)),
}


def json_round_trip(model):
    return model_from_dict(json.loads(json.dumps(model_to_dict(model), cls=_ArrayEncoder)))


def assert_same_params(clone, original):
    """Equal nesting, and equal dtype, shape and bits at every leaf."""
    if isinstance(original, dict):
        assert isinstance(clone, dict) and list(clone) == list(original)
        for key in original:
            assert_same_params(clone[key], original[key])
    elif isinstance(original, list):
        assert isinstance(clone, list) and len(clone) == len(original)
        for a, b in zip(clone, original):
            assert_same_params(a, b)
    else:
        assert isinstance(clone, np.ndarray) == isinstance(original, np.ndarray)
        a, b = np.asarray(clone), np.asarray(original)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def grouped_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 3))
    y = (rng.random(200) < sigmoid(1.5 * X[:, 0] - 1.0)).astype(float)
    groups = np.repeat([f"G{i}" for i in range(20)], 10)
    return X, y, groups


@pytest.mark.parametrize("family", FAMILIES)
def test_round_trip_restores_params_and_scores(family, grouped_data):
    X, y, groups = grouped_data
    model = fit_model(ModelSpec(family, GRIDS[family]), X, y, np.random.default_rng(3),
                      groups=groups)
    clone = json_round_trip(model)
    assert clone.family == family
    assert_same_params(clone.params, model.params)
    np.testing.assert_array_equal(clone.score(X), model.score(X))


def test_empty_support_set_scores_the_intercept():
    model = TrainedModel("svm_rbf", ["a", "b"], {}, {
        "support_vectors": np.zeros((0, 2)), "dual_coef": np.zeros(0),
        "intercept": -0.25, "gamma": 0.5})
    np.testing.assert_array_equal(json_round_trip(model).score(np.ones((3, 2))),
                                  np.full(3, -0.25))


@pytest.mark.parametrize("family, path, bad", [
    ("logistic_elastic_net", ("beta",), ["a", "b", "c"]),
    ("logistic_elastic_net", ("intercept",), "x"),
    ("random_forest", ("trees", 0, "feature"), [0, None]),
])
def test_non_numeric_param_rejected(family, path, bad, grouped_data):
    X, y, _ = grouped_data
    model = fit_model(ModelSpec(family, GRIDS[family]), X, y, np.random.default_rng(3))
    data = json.loads(json.dumps(model_to_dict(model), cls=_ArrayEncoder))
    node = data["params"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(ValueError, match="not numeric"):
        model_from_dict(data)
