"""Every name a module exports resolves, so a deleted type leaves no stale export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import avgpower

MODULES = ["avgpower", *(f"avgpower.{info.name}" for info in pkgutil.iter_modules(avgpower.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing attributes: {missing}"
