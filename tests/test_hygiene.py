"""Source hygiene: every imported name is used where it is imported.

A stdlib ``ast`` scan of the package, the tests, the scripts and the
benchmark (read only).  An import counts as
used when its bound name is read anywhere in the enclosing function (or the
module, for module-level imports).  A ``# noqa: F401`` on any line of the
import statement keeps a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for folder in ("src/zakharov4d", "tests", "scripts", "bench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def _unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    found = []

    def scan(scope):
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(node)
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{path.name}:{node.lineno}: {bound}")

    scan(tree)
    return found


def _own_nodes(scope):
    """Nodes of scope that do not sit inside a nested function."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
