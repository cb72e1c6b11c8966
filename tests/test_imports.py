"""Every name a ``qcmt`` module imports is read somewhere in that module.

``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import qcmt

MODULES = sorted(p for p in Path(qcmt.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
