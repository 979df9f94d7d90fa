"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "instab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _referenced_names(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private_definitions(sources: dict):
    """Module-level ``_``-prefixed functions and classes that no module of
    ``sources`` ({file name: text}) references outside their own definition,
    as (file name, line, name)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    return sorted((name, node.lineno, node.name) for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and total[node.name] == _referenced_names(node)[node.name])


def test_modules_are_found():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_unused_import_detector():
    src = ("import math\nimport numpy as np\nfrom os import path, sep\n"
           "def f(x: np.ndarray):\n    from sys import argv\n    return path\n")
    assert unused_imports(src) == [(1, "math"), (3, "sep")]


def test_private_definitions_are_referenced():
    unused = unreferenced_private_definitions(
        {path.name: path.read_text() for path in SRC.glob("*.py")})
    assert not unused, "never referenced: " + ", ".join(
        f"{name} ({path}:{line})" for path, line, name in unused)


def test_unreferenced_private_detector():
    sources = {"a.py": ("def _used():\n    pass\n\n"
                        "def _dead(x):\n    return _dead(x - 1)\n\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "from a import _used\n\n_used()\n"}
    assert unreferenced_private_definitions(sources) == [
        ("a.py", 4, "_dead"), ("a.py", 7, "_Gone")]
