import importlib
import pkgutil

import pytest

import noiserise

MODULES = ["noiserise", *(f"noiserise.{m.name}" for m in pkgutil.iter_modules(noiserise.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
