"""Source hygiene: every imported name is used where it is imported, one
function in the package calls the stepping kernel, and the package loads
no scipy subpackage it does not use.

A stdlib ``ast`` scan of the package, the tests, the scripts and the
benchmark (read only).  An import counts as
used when its bound name is read anywhere in the enclosing function (or the
module, for module-level imports).  A ``# noqa: F401`` on the line of an
imported name keeps it as a deliberate re-export; in the package that is
allowed only for a name that ``bench/tracing.py``'s ``FUNCTION_SPANS``
patches on that module, so a re-export cannot outlive the span it serves.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/zakharov4d").glob("*.py"))
SOURCES = PACKAGE + [path for folder in ("tests", "scripts", "bench")
                     for path in sorted((ROOT / folder).glob("*.py"))]


def _imports(path: Path):
    """(import node, bound name, kept by noqa, read in its scope) of every
    imported name in path."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))

    def scan(scope):
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scan(node)
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                kept = "noqa: F401" in lines[alias.lineno - 1]
                yield node, bound, kept, bound in used

    return list(scan(tree))


def _own_nodes(scope):
    """Nodes of scope that do not sit inside a nested function."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _traced_attributes() -> set:
    """(module name, attribute) of every FUNCTION_SPANS entry in
    bench/tracing.py, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "FUNCTION_SPANS"):
            return {(entry.elts[0].id, entry.elts[1].value)
                    for entry in node.value.elts}
    raise AssertionError("bench/tracing.py defines no FUNCTION_SPANS")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [f"{path.name}:{node.lineno}: {bound}"
              for node, bound, kept, used in _imports(path)
              if not (kept or used)]
    assert unused == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_reexports_are_traced(path):
    traced = _traced_attributes()
    stale = [f"{path.name}:{node.lineno}: {bound}"
             for node, bound, kept, _ in _imports(path)
             if kept and (path.stem, bound) not in traced]
    assert stale == []


def test_one_stepper_calls_the_kernel():
    # every attempt goes through one loop, so one function in the package
    # calls `_Propagator.step_values`: the stepper that run and the probe
    # consume
    callers = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "step_values"
                   for node in _own_nodes(fn)):
                callers.append(f"{path.name}:{fn.name}")
    assert callers == ["dynamics.py:_accepted_steps"]


def test_package_loads_only_the_scipy_it_uses():
    # a fresh interpreter imports every module of the package: scipy.special
    # (J_0, J_1) and scipy.sparse (the banded FD matrices) are all it uses,
    # and any other public subpackage on the import path is resident memory
    # and import time that no computation needs
    code = ("import importlib, json, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(\n"
            "    k for k in sys.modules if k.startswith('scipy.')\n"
            "    and k.count('.') == 1 and not k.split('.')[1].startswith('_'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code]
                          + [path.parent.name if path.stem == "__init__"
                             else f"{path.parent.name}.{path.stem}"
                             for path in PACKAGE],
                          env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == ["scipy.sparse", "scipy.special", "scipy.version"]
