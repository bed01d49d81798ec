"""Every name a module exports resolves."""

import importlib

import pytest

MODULES = ["driftknn", "driftknn.core", "driftknn.neighbors", "driftknn.classifiers",
           "driftknn.simulation", "driftknn.io_cli"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
