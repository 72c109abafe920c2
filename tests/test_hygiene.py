"""Source hygiene: ``quadalg`` modules import at the top, use every import,
and call every private helper."""
from __future__ import annotations

import ast
from collections import Counter
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


def unread_private_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` functions and classes that no module reads,
    reads inside their own definition aside, as ``module: name (line n)``."""
    reads = Counter(
        n.id
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                own = sum(
                    1 for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == node.name
                )
                if reads[node.name] == own:
                    out.append(f"{module}: {node.name} (line {node.lineno})")
    return out


def test_every_private_helper_is_called():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert unread_private_helpers(trees) == []


def test_the_check_sees_an_unread_helper():
    a = ast.parse("def _used():\n    pass\ndef _recursive(n):\n    return _recursive(n)\n")
    b = ast.parse("class _Unread:\n    pass\n_used()\n")
    assert unread_private_helpers({"a.py": a, "b.py": b}) == [
        "a.py: _recursive (line 3)",
        "b.py: _Unread (line 1)",
    ]
