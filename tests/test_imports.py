"""Every name a ``qcmt`` module imports is read somewhere in that module,
every module-level function, class and constant of ``qcmt`` is read somewhere
in the project, every defaulted parameter is passed by some call in ``src/``,
``demos/`` or ``perfbench/``, and no ``qcmt`` module uses ``numpy.random``.

``__init__.py`` is skipped by the import check: its imports are the package's
exports.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcmt

PACKAGE = Path(qcmt.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
READERS = ("src", "tests", "demos", "perfbench")
# production callers: a default that only tests set is a test-only option
CALLERS = ("src", "demos", "perfbench")


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


def sources(folders) -> list:
    return [path.read_text(encoding="utf-8") for folder in folders for path in (ROOT / folder).rglob("*.py")]


def test_no_module_level_name_is_dead():
    read = set().union(*map(read_names, sources(READERS)))
    dead = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in defined_names(path.read_text(encoding="utf-8")) - read
    }
    assert sorted(dead) == []


def test_dead_code_detector_flags_an_unread_definition():
    source = "LIMIT = 3\ndef used():\n    return LIMIT\ndef unused():\n    pass\nclass Spare: ...\n"
    assert defined_names(source) - read_names(source + "used()\n") == {"unused", "Spare"}


def _defaults(function: ast.FunctionDef, is_method: bool) -> dict:
    """A function's defaulted parameters: {name: position in a call, or None if keyword-only}."""
    args = function.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    found = {a.arg: positional.index(a) for a in defaulted}
    found.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return found


def _classes(trees) -> dict:
    """Each class name: (its base names, whether it defines ``__init__``)."""
    classes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases]
                inits = any(isinstance(n, ast.FunctionDef) and n.name == "__init__"
                            for n in node.body)
                classes.setdefault(node.name, (bases, inits))
    return classes


def dead_defaults(defining: list, calling: list) -> set:
    """Defaulted parameters of the functions and methods in ``defining`` that no
    call in ``calling`` passes, as ``"name(parameter)"``.

    A call is matched by the called name alone, so calls through any object
    count; a class call, through the class or a subclass, and
    ``super().__init__`` count as calls of the ``__init__`` the class inherits.
    """
    defined = {}  # label: (the name a call uses, the defaulted parameters)
    for tree in map(ast.parse, defining):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = (node.name, _defaults(node, False))
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in method.decorator_list)
                    label = f"{node.name}.{method.name}"
                    key = label if method.name == "__init__" else method.name
                    defined[label] = (key, _defaults(method, not static))
    trees = [ast.parse(source) for source in calling]
    classes = _classes(trees + [ast.parse(source) for source in defining])

    def init_of(name, seen=()):
        """The ``Class.__init__`` a call of class ``name`` runs, if it is defined."""
        if name not in classes or name in seen:
            return None
        bases, inits = classes[name]
        if inits:
            return f"{name}.__init__"
        return next(filter(None, (init_of(b, seen + (name,)) for b in bases)), None)

    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name == "__init__":
                targets = {key for key, _ in defined.values() if key.endswith(".__init__")}
            else:
                targets = {name, init_of(name)}
            for label, (key, parameters) in defined.items():
                if key not in targets:
                    continue
                for parameter, position in parameters.items():
                    by_position = position is not None and (
                        position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))
                    by_keyword = any(k.arg in (parameter, None) for k in call.keywords)
                    if by_position or by_keyword:
                        passed.add((label, parameter))
    return {f"{label}({parameter})" for label, (_, parameters) in defined.items()
            for parameter in parameters if (label, parameter) not in passed}


def test_no_default_parameter_is_dead():
    defining = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert sorted(dead_defaults(defining, sources(CALLERS))) == []


def test_dead_default_detector_flags_a_parameter_no_call_passes():
    source = (
        "def f(a, b=1, *, c=2):\n    return a\n"
        "class Base:\n    def __init__(self, x=0, y=1, z=2): ...\n"
        "    def scaled(self, k=2): ...\n"
        "class Child(Base): ...\n"
        "class Grandchild(Child):\n    def __init__(self):\n        super().__init__(z=3)\n"
        "f(1, c=3)\nChild(5)\nGrandchild().scaled()\n"
    )
    assert dead_defaults([source], [source]) == {"f(b)", "Base.__init__(y)", "Base.scaled(k)"}


def test_dead_default_detector_counts_production_calls_only():
    source = "def draw(count, steps=None):\n    return count\n"
    production, test = "draw(3)\n", "draw(3, steps=7)\ndraw(3, 7)\n"
    assert dead_defaults([source], [source, production]) == {"draw(steps)"}
    assert dead_defaults([source], [source, production, test]) == set()


def test_no_module_names_numpy_random():
    # the randomized checks draw from random.Random; numpy.random costs a verify process ~5 MB
    named = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if re.search(r"\b(np|numpy)\.random\b", p.read_text(encoding="utf-8"))]
    assert named == []


def test_verify_never_imports_numpy_random(tmp_path):
    config = tmp_path / "thermal.json"
    config.write_text(json.dumps({"kernel": {
        "type": "field", "mass": 1.0, "beta": 1.0,
        "packets": [{"center": [0.0, 0.0]}, {"center": [0.0, 0.5]}],
    }}))
    script = (
        "import contextlib, io, sys\n"
        "from qcmt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['verify']), cli.main(['verify', '--config', {str(config)!r}])]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, QCMT_LOG="warning", PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.split("\n")[-2] == "[0, 0] False"
