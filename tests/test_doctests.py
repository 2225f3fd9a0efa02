"""Execute every doctest in the library as part of the test suite.

Doctests double as the API's usage examples (README-level snippets live in
module and class docstrings); running them here keeps the documentation
from rotting.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro


def _iter_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULES = sorted(set(_iter_modules()))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"


def test_discovered_a_reasonable_module_count():
    # Guard against the walker silently finding nothing.
    assert len(MODULES) > 30
