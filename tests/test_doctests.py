"""Run the examples in the docstrings of every ``quadalg`` module and of the
test oracles."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import quadalg

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadalg.__path__, "quadalg.")) + [
    "tests.oracles"
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
