"""`pipeline.run_tasks` is the one function of the package that calls
`run_pipeline_once`, so every command's runs share its OpenBLAS pin, warning
filter, shared imputer and per-run error records."""

import ast
from pathlib import Path

import injurylab

PACKAGE_DIR = Path(injurylab.__file__).parent
TARGET = "run_pipeline_once"


def referring_functions(source: str, name: str = TARGET) -> list[str]:
    """The top-level function or ``Class.method`` that holds each reference
    to ``name`` (a call or a bare use; the definition itself is none), or
    ``<module>`` for a reference outside any function."""
    tree = ast.parse(source)
    found = []
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
                if ((isinstance(inner, ast.Name) and inner.id == name)
                        or (isinstance(inner, ast.Attribute) and inner.attr == name)):
                    found.append(scope)
    return found


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
