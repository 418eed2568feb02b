"""The public export lists name only what the packages define.

Python checks ``__all__`` only when a star import runs, so a name left in it
after its definition is deleted goes unnoticed until a user imports it.
"""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["csigen", "csigen.gan"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize("module_name", ["csigen", "csigen.gan"])
def test_star_import(module_name):
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= set(namespace)
