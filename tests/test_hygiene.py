"""Source hygiene: ``quadalg`` modules import at the top, use every import,
call every private helper, and keep no state between calls."""
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


def closures_set_on_objects(tree: ast.Module) -> list[str]:
    """Assignments, inside a function, of a lambda or of a function defined
    in that function to an attribute of an object other than ``self``, as
    ``target = value (line n)``: such an assignment replaces a method of
    the object behind its class's back."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = {
            node.name
            for node in ast.walk(fn)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Lambda):
                shown = "lambda"
            elif isinstance(value, ast.Name) and value.id in inner:
                shown = value.id
            else:
                continue
            out.extend(
                f"{ast.unparse(target)} = {shown} (line {node.lineno})"
                for target in node.targets
                if isinstance(target, ast.Attribute)
                and not (isinstance(target.value, ast.Name) and target.value.id == "self")
            )
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_closure_replaces_an_attribute(path):
    assert closures_set_on_objects(ast.parse(path.read_text())) == []


def test_the_check_sees_a_closure_on_an_object():
    tree = ast.parse(
        "def install(c, n):\n"
        "    def draw(rng):\n        return n\n"
        "    c.sample = draw\n"
        "    c.zero = lambda: 0\n"
        "    self.sample = draw\n"
        "    c.size = n\n"
        "def outer_helper():\n    pass\n"
        "def other(c):\n    c.sample = outer_helper\n"
    )
    assert closures_set_on_objects(tree) == ["c.sample = draw (line 4)", "c.zero = lambda (line 5)"]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """``(callee, parameter, position, line)`` for each defaulted parameter of
    a module-level function, public method, classmethod or ``__init__``.
    ``__init__`` is called by its class's name; ``position`` counts the
    arguments a call passes (``self``/``cls`` excluded) and is ``None`` for a
    keyword-only parameter."""
    out = []

    def collect(fn, callee: str, skip: int) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            out.append((callee, positional[i].arg, i - skip, fn.lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((callee, arg.arg, None, fn.lineno))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            collect(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                if fn.name == "__init__":
                    collect(fn, node.name, 1)
                elif not fn.name.startswith("_") or "classmethod" in decorators:
                    collect(fn, fn.name, 0 if "staticmethod" in decorators else 1)
    return out


def set_options(trees: list[ast.Module]) -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, position)`` for every argument
    passed in a call to a plain or attribute name. A call that unpacks
    ``*args`` or ``**kwargs`` may pass anything, so it adds ``(callee, "*")``."""
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.update((name, i) for i in range(len(call.args)))
            out.update((name, kw.arg) for kw in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                out.add((name, "*"))
    return out


def unset_options(sources: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Defaulted parameters in ``sources`` that no call in ``callers`` passes,
    as ``module: callee(parameter) (line n)``."""
    passed = set_options(callers)
    return [
        f"{module}: {callee}({param}) (line {line})"
        for module, tree in sources.items()
        for callee, param, position, line in defaulted_parameters(tree)
        if (callee, param) not in passed
        and (callee, "*") not in passed
        and (position is None or (callee, position) not in passed)
    ]


def test_every_option_is_set():
    root = Path(__file__).resolve().parent.parent
    sources = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    callers = list(sources.values()) + [
        ast.parse(path.read_text())
        for folder in ("tests", "bench")
        for path in sorted((root / folder).glob("*.py"))
    ]
    assert unset_options(sources, callers) == []


def test_the_check_sees_an_unset_option():
    src = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0):\n        pass\n"
        "    def _private(self, z=0):\n        pass\n"
        "def g(p=0):\n    pass\n"
    )
    calls = ast.parse("f(0, 5)\nf(0, d=4)\nK()\nk.m(1)\ng(*args)\n")
    assert unset_options({"s.py": src}, [src, calls]) == [
        "s.py: f(c) (line 1)",
        "s.py: K(x) (line 4)",
    ]


MUTABLE_TYPES = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
MEMO_DECORATORS = {"lru_cache", "cache"}


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Tuple):
        return any(_is_mutable_container(v) for v in value.elts)
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_TYPES
    return False


def shared_state(tree: ast.Module) -> list[str]:
    """Mutable containers bound at module level or in a class body, and
    every use of ``functools.lru_cache`` or ``functools.cache``, as
    ``name (line n)``: either keeps values from one call to the next for
    the whole process. A per-instance ``cached_property`` is not shared."""
    out = []
    scopes = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_mutable_container(node.value):
                out.extend(f"{ast.unparse(t)} (line {node.lineno})" for t in targets)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out.extend(
                f"{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in MEMO_DECORATORS
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MEMO_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            out.append(f"functools.{node.attr} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_state_is_shared_between_calls(path):
    assert shared_state(ast.parse(path.read_text())) == []


def test_the_check_sees_shared_state():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, cached_property, partial\n"
        "SEEN = {}\n"
        "ORDER: list = []\n"
        "PAIRS = (1, [2])\n"
        "COUNTS = collections.Counter()\n"
        "NAMES = (\"a\", \"b\")\n"
        "KEY = operator.itemgetter(0)\n"
        "class K:\n"
        "    rows = [0]\n"
        "    @cached_property\n"
        "    def table(self):\n"
        "        local = {}\n"
        "        return local\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(n):\n"
        "    return n\n"
    )
    assert shared_state(tree) == [
        "SEEN (line 3)",
        "ORDER (line 4)",
        "PAIRS (line 5)",
        "COUNTS (line 6)",
        "rows (line 10)",
        "cache (line 2)",
        "functools.lru_cache (line 15)",
    ]


BOUNDED_DRAWS = ("randrange", "randint", "choice")


def bounded_draw_calls(tree: ast.Module) -> list[str]:
    """Calls of a method named ``randrange``, ``randint`` or ``choice``, and
    two-argument calls of one named ``sample``, as ``name (line n)``. A
    carrier draws a bounded integer with ``abelian.draw_below``, or with a
    copy of its loop (in ``FgAbGroup.sample`` and ``nil2._group_tuples``),
    and distinct pool items with ``abelian.draw_sample``, which read the
    same bits from ``getrandbits`` without ``random.Random``'s Python
    layers. A carrier's own ``sample(rng)`` takes one argument."""
    return [
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr in BOUNDED_DRAWS
            or node.func.attr == "sample" and len(node.args) + len(node.keywords) == 2
        )
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_bounded_draws_read_getrandbits(path):
    assert bounded_draw_calls(ast.parse(path.read_text())) == []


def test_the_check_sees_a_bounded_draw():
    tree = ast.parse(
        "n = rng.randint(0, 3)\n"
        "x = random.choice(xs)\n"
        "ys = rng.sample(xs, 2)\n"
        "k = draw_below(rng, 4)\n"
        "zs = rng.sample(xs, k=2)\n"
        "a = carrier.sample(rng)\n"
        "bs = draw_sample(rng, xs, 2)\n"
        "def f(self):\n    return self.rng.randrange(5)\n"
    )
    assert bounded_draw_calls(tree) == [
        "randint (line 1)", "choice (line 2)", "sample (line 3)", "sample (line 5)",
        "randrange (line 9)",
    ]


DENSE_STACKS = ("mat_hstack", "relation_matrix")


def dense_relation_stacks(tree: ast.Module) -> list[str]:
    """Calls of a function or method named ``mat_hstack`` or
    ``relation_matrix``, as ``name (line n)``. Columns are set beside a
    group's relations in one place, ``abelian.stacked_rows``, as sparse
    rows; the dense stack and its dense relation block live in the tests'
    oracles only."""
    return [
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in DENSE_STACKS
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_relations_are_stacked_as_sparse_rows(path):
    assert dense_relation_stacks(ast.parse(path.read_text())) == []


def test_the_check_sees_a_dense_relation_stack():
    tree = ast.parse(
        "A = mat_hstack(d2.matrix, C.relation_matrix())\n"
        "B = abelian.mat_hstack(rel, M)\n"
        "rows, n = stacked_rows(M, G.relations(), False)\n"
    )
    assert dense_relation_stacks(tree) == [
        "mat_hstack (line 1)",
        "mat_hstack (line 2)",
        "relation_matrix (line 1)",
    ]
