"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "instab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the callers of the package besides its own modules: the benchmark and the
# acceptance gate (tests of a definition do not count as its callers)
CALLERS = [ROOT / "bench" / f"{name}.py" for name in ("run", "spans", "checks", "workloads")] \
    + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "oracles.py"]


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


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def unreferenced_public_definitions(sources: dict, outside: Counter):
    """Public module-level functions and classes of ``sources`` ({file name:
    text}), and the public methods of those classes, that neither
    ``sources`` nor the name counts ``outside`` reference outside their own
    definition, as (file name, line, qualified name).  Functions registered
    as click commands are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_referenced_names(tree) for tree in trees.values()), outside)
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            out += [(name, d.lineno, qual) for d, qual in defs
                    if not d.name.startswith("_") and not _is_click_command(d)
                    and total[d.name] == _referenced_names(d)[d.name]]
    return sorted(out)


def traced_names() -> dict:
    """``TRACED`` of bench/spans.py, {module: function names}, read without
    importing the benchmark."""
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TRACED")


def unread_parameters(source: str):
    """Parameters of functions and lambdas in ``source`` that their body never
    reads, as (line, function name, parameter); a method's ``self`` or ``cls``
    is not counted."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")]
    return sorted(out)


# is_unstable keeps these because bench/run.py still passes them
UNREAD_ALLOWED = {("instability.py", "is_unstable", "budget"),
                  ("instability.py", "is_unstable", "seed"),
                  ("instability.py", "is_unstable", "adapted")}


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


def test_public_definitions_have_callers():
    outside = sum((_referenced_names(ast.parse(path.read_text())) for path in CALLERS),
                  Counter(name for names in traced_names().values() for name in names))
    unused = unreferenced_public_definitions(
        {path.name: path.read_text() for path in MODULES}, outside)
    assert not unused, "only tests call: " + ", ".join(
        f"{name} ({path}:{line})" for path, line, name in unused)


def test_unreferenced_public_detector():
    sources = {"a.py": ("def used():\n    return Box().kept()\n\n"
                        "def dead(x):\n    return dead(x - 1)\n\n"
                        "class Box:\n"
                        "    def kept(self):\n        return 1\n\n"
                        "    def gone(self):\n        return self.gone()\n\n"
                        "    def _own(self):\n        return 0\n\n"
                        "def traced():\n    pass\n\n"
                        "@main.command('run')\ndef cmd_run():\n    pass\n"),
               "b.py": "from a import used\n\nused()\n"}
    assert unreferenced_public_definitions(sources, Counter(["traced"])) == [
        ("a.py", 4, "dead"), ("a.py", 11, "Box.gone")]


def test_traced_names_exist():
    # a deletion that breaks the benchmark's --trace pass shows here
    missing = [f"{module}.{name}" for module, names in traced_names().items()
               for name in names
               if not hasattr(importlib.import_module(f"instab.{module}"), name)]
    assert not missing, "traced but not defined: " + ", ".join(missing)


def test_parameters_are_read():
    unread = [(path.name, line, fn, param) for path in SRC.glob("*.py")
              for line, fn, param in unread_parameters(path.read_text())
              if (path.name, fn, param) not in UNREAD_ALLOWED]
    assert not unread, "never read: " + ", ".join(
        f"{fn}({param}) ({path}:{line})" for path, line, fn, param in unread)


def test_unread_parameter_detector():
    src = ("def f(a, b, *args, c=1, **kw):\n"
           "    a += 1\n"
           "    def g(d):\n"
           "        return c\n"
           "    return lambda e, h: e\n\n"
           "class K:\n"
           "    def m(self, x):\n"
           "        return 0\n")
    assert unread_parameters(src) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (3, "g", "d"),
        (5, "<lambda>", "h"), (8, "m", "x")]


def test_cli_import_leaves_scipy_out():
    # scipy costs about 0.3 s of every command's start-up; only tests use it
    code = "import sys, instab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout.strip() == "False"
