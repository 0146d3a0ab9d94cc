"""Every span the benchmark's traced run wraps must exist in the package.

The traced run looks each ``SPANS`` entry of ``perfbench/layers.py`` up by
name, so a rename in ``src/`` that forgets the span would only fail there.
The list is read from the source text; nothing under ``perfbench/`` is
imported or run.  The call shape that the benchmark's op clock relies on is
checked here too.
"""

import ast
import importlib
import os

import numpy as np

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def span_targets():
    """(name, module, attr, owner) of every SpanSpec call in SPANS."""
    with open(LAYERS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANS" for t in node.targets)):
            targets = []
            for call in node.value.elts:
                args = [ast.literal_eval(a) for a in call.args]
                kwargs = {k.arg: k.value for k in call.keywords}
                owner = kwargs.get("owner")
                targets.append((*args[:3], ast.literal_eval(owner) if owner else None))
            return targets
    raise AssertionError("no SPANS list in perfbench/layers.py")


def test_every_span_resolves():
    targets = span_targets()
    assert len(targets) >= 20
    missing = []
    for name, module_name, attr, owner in targets:
        module = importlib.import_module(module_name)
        if owner is None:
            found = callable(getattr(module, attr, None))
        else:
            # the tracer replaces the entry in the owner class's own dict
            found = attr in vars(getattr(module, owner, object))
        if not found:
            missing.append(name)
    assert missing == []


def test_op_clock_sees_spec_and_protocol_by_position(monkeypatch):
    """The benchmark's op clock rebinds ``pipeline.run_pipeline_once`` and
    reads the cell's ModelSpec from ``args[4]`` and its Protocol from
    ``args[5]``; ``run_simulations`` must call it that way once per
    (cell, sim), on the serial and the pooled path."""
    from injurylab import pipeline
    from injurylab.models import ModelSpec
    from injurylab.pipeline import Cell, ModelingData, Protocol

    rng = np.random.default_rng(0)
    X_train, X_test = rng.normal(size=(60, 3)), rng.normal(size=(30, 3))
    y_train = (X_train[:, 0] + rng.normal(size=60) > 0).astype(np.int8)
    y_test = (X_test[:, 0] + rng.normal(size=30) > 0).astype(np.int8)
    data = ModelingData(feature_names=["a", "b", "c"], X_train=X_train, X_test=X_test,
                        y_train={"nc": y_train}, y_test={"nc": y_test},
                        groups_train=np.array([f"G{i % 6}" for i in range(60)], dtype=object),
                        new_player_test=np.zeros(30, dtype=bool))
    spec = ModelSpec("logistic_elastic_net", grid=[{"lam": 0.01, "alpha": 0.5}])
    cells = [Cell(spec, "nc", Protocol()), Cell(spec, "nc", Protocol(pca=True))]
    original = pipeline.run_pipeline_once
    calls = []

    def wrapped(*args, **kwargs):
        calls.append((args[4], args[5], kwargs["sim_index"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_pipeline_once", wrapped)
    for threads in (1, 2):
        calls.clear()
        summary = pipeline.run_simulations(data, cells, n_sims=2, master_seed=0,
                                           threads=threads)
        assert all(cell.errors == {} for cell in summary.cells)
        assert all(isinstance(s, ModelSpec) and isinstance(p, Protocol)
                   for s, p, _ in calls)
        seen = sorted((p.name, sim) for _, p, sim in calls)
        assert seen == [("none", 0), ("none", 1), ("pca", 0), ("pca", 1)]
