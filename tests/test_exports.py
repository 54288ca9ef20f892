"""Every exported name resolves, so `from kep import *` works after a
deletion."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["kep", "kep.invariants"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import():
    namespace = {}
    exec("from kep import *", namespace)
    assert "hk_check" in namespace
