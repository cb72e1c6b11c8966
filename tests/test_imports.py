"""Every name a ``qcmt`` module imports is read somewhere in that module, and
every module-level function, class and constant of ``qcmt`` is read somewhere
in the project.

``__init__.py`` is skipped by the import check: its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

import qcmt

PACKAGE = Path(qcmt.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
READERS = ("src", "tests", "demos", "perfbench")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["math", "sep"]


def defined_names(source: str) -> set:
    """Module-level functions, classes and assigned constants, dunders excluded."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set:
    """Names a source reads: loaded names, attributes, and the dotted parts of
    strings (``getattr(module, "name")``, ``monkeypatch.setattr("qcmt.cli.NAME", ...)``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_no_module_level_name_is_dead():
    read = set()
    for folder in READERS:
        for path in (ROOT / folder).rglob("*.py"):
            read |= read_names(path.read_text(encoding="utf-8"))
    dead = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in defined_names(path.read_text(encoding="utf-8")) - read
    }
    assert sorted(dead) == []


def test_dead_code_detector_flags_an_unread_definition():
    source = "LIMIT = 3\ndef used():\n    return LIMIT\ndef unused():\n    pass\nclass Spare: ...\n"
    assert defined_names(source) - read_names(source + "used()\n") == {"unused", "Spare"}
