"""`pipeline.run_tasks` is the one function of the package that calls
`run_pipeline_once`, so every command's runs share its OpenBLAS pin, warning
filter, shared imputer and per-run error records."""

import ast
from pathlib import Path

import injurylab

PACKAGE_DIR = Path(injurylab.__file__).parent
TARGET = "run_pipeline_once"


def scoped_nodes(source: str):
    """Each AST node of ``source`` with the top-level function or
    ``Class.method`` that holds it, or ``<module>`` outside any function."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            scopes = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, functions)]
        else:
            scopes = [("<module>", node)]
        for scope, body in scopes:
            for inner in ast.walk(body):
                yield scope, inner


def referring_functions(source: str, name: str = TARGET) -> list[str]:
    """The scope of each reference to ``name`` (a call or a bare use; the
    definition itself is none)."""
    return [scope for scope, node in scoped_nodes(source)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def test_run_tasks_is_the_only_caller():
    found = [f"{path.stem}.{scope}"
             for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for scope in referring_functions(path.read_text())]
    assert found == ["pipeline.run_tasks"]


def test_checker_finds_calls_and_uses_in_any_scope():
    source = ("from m import run_pipeline_once\n"
              "def f():\n    def g():\n        return run_pipeline_once(1)\n"
              "class C:\n    def m(self):\n        return pipeline.run_pipeline_once\n"
              "fn = run_pipeline_once\n"
              "def run_pipeline_once():\n    pass\n")
    assert referring_functions(source) == ["f", "C.m", "<module>"]
