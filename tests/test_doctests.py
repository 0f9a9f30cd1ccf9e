"""The examples in docstrings run with the tests, library and oracles alike."""

import doctest
import importlib
import pkgutil

import pytest

import oracles
import redweave

LIBRARY = [redweave] + [
    importlib.import_module(f"redweave.{info.name}")
    for info in pkgutil.iter_modules(redweave.__path__)
]


@pytest.mark.parametrize("modules", [LIBRARY, [oracles]], ids=["redweave", "oracles"])
def test_doctests(modules):
    results = [doctest.testmod(module) for module in modules]  # prints each failure
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0
