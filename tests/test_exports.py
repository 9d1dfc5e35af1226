"""Every exported name resolves: no stale ``__all__`` entry survives a deletion."""

import importlib
import pkgutil

import pytest

import twogap

MODULES = [twogap] + [
    importlib.import_module(f"twogap.{info.name}")
    for info in pkgutil.iter_modules(twogap.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
