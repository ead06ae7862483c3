"""Run the doctest examples embedded in docstrings."""

import doctest

import repro.graph.builder


def _run(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    return results.attempted


def test_builder_doctests():
    assert _run(repro.graph.builder) > 0

