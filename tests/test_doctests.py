"""Run the examples in every ``quadalg`` module's docstrings."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import quadalg

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadalg.__path__, "quadalg."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
