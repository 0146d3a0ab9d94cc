"""`domain.write_csv` is the one function of the package that builds a
`csv` writer, so every emitted CSV keeps the file conventions the parsers
read: ISO dates, empty field = missing, true/false, exact floats."""

import ast
from pathlib import Path

import injurylab
from test_single_runner import scoped_nodes

PACKAGE_DIR = Path(injurylab.__file__).parent
WRITERS = {"writer", "DictWriter"}


def writer_references(source: str) -> list[str]:
    """The scope of each ``csv.writer`` or ``csv.DictWriter`` reference and
    of each import of either name from ``csv``."""
    found = []
    for scope, node in scoped_nodes(source):
        if (isinstance(node, ast.Attribute) and node.attr in WRITERS
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            found.append(scope)
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [scope for alias in node.names if alias.name in WRITERS]
    return found


def test_write_csv_is_the_only_writer():
    found = [f"{path.stem}.{scope}"
             for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for scope in writer_references(path.read_text())]
    assert found == ["domain.write_csv"]


def test_checker_finds_attributes_and_imports_in_any_scope():
    source = ("import csv\n"
              "def f(fh):\n    return csv.writer(fh)\n"
              "class C:\n    def m(self, fh):\n        return csv.DictWriter(fh, [])\n"
              "from csv import writer as w\n"
              "def g(out):\n    return out.writer\n")
    assert writer_references(source) == ["f", "C.m", "<module>"]
