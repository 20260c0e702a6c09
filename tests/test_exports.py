"""Every name a module lists in `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import realroots

MODULES = ["realroots"] + [
    f"realroots.{info.name}"
    for info in pkgutil.iter_modules(realroots.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
