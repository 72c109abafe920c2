"""Source hygiene: ``quadalg`` modules import at the top, and use every import."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import quadalg

SOURCES = sorted(Path(quadalg.__path__[0]).glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports in ``tree`` and never read anywhere in it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def imports_in_functions(tree: ast.Module) -> list[str]:
    """Import statements inside a function body, as ``function (line n)``."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend(
                f"{fn.name} (line {node.lineno})"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports(path):
    assert imports_in_functions(ast.parse(path.read_text())) == []


def test_the_check_sees_a_function_import():
    tree = ast.parse("import os\ndef f():\n    import math\n    return math.pi\n")
    assert imports_in_functions(tree) == ["f (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["math (line 1)", "path (line 2)"]
