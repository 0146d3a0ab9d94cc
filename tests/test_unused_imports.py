"""No module of the package imports a name it never uses.

A name imported by a package ``__init__`` also counts as used when it is
listed in that module's literal ``__all__``; an ``__all__`` computed at import
time exports every name, so such an ``__init__`` is not checked.
"""

import ast
from pathlib import Path

import injurylab

PACKAGE_DIR = Path(injurylab.__file__).parent


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    """Names in a literal ``__all__``; None when ``__all__`` is computed."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return None
    return set()


def unused_imports(source: str, package_init: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never loads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if package_init:
        exported = _exported_names(tree)
        if exported is None:
            return []
        used |= exported
    return [(line, name) for name, line in _imported_names(tree) if name not in used]


def test_package_has_no_unused_imports():
    found = [f"{path.relative_to(PACKAGE_DIR.parent)}:{line}: {name}"
             for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for line, name in unused_imports(path.read_text(),
                                              package_init=path.name == "__init__.py")]
    assert found == []


def test_models_all_lists_only_bound_names():
    # a stale entry would break only ``from injurylab.models import *``
    import injurylab.models as models

    source = (PACKAGE_DIR / "models" / "__init__.py").read_text()
    exported = _exported_names(ast.parse(source))
    assert exported and exported == set(models.__all__)
    assert sorted(name for name in exported if not hasattr(models, name)) == []


def test_checker_flags_unused_names():
    source = ("import os\nimport os.path as osp\nfrom math import pi, tau\n"
              "print(osp.sep, pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


def test_literal_all_counts_as_use_in_package_init():
    source = "from math import pi, tau\n__all__ = ['pi']\n"
    assert unused_imports(source, package_init=True) == [(1, "tau")]
    computed = "from math import pi\n__all__ = [n for n in dir()]\n"
    assert unused_imports(computed, package_init=True) == []
