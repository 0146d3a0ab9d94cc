"""Every span the benchmark's traced run wraps must exist in the package.

The traced run looks each ``SPANS`` entry of ``perfbench/layers.py`` up by
name, so a rename in ``src/`` that forgets the span would only fail there.
The list is read from the source text; nothing under ``perfbench/`` is
imported or run.
"""

import ast
import importlib
import os

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
