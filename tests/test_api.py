"""The public API: every exported name resolves."""

import importlib
import pkgutil
import types

import pytest

import renyitail

MODULES = sorted(m.name for m in pkgutil.iter_modules(renyitail.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"renyitail.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_listed_in_module_all():
    exported = {attr for attr in dir(renyitail)
                if not attr.startswith("_")
                and not isinstance(getattr(renyitail, attr), types.ModuleType)}
    listed = set()
    for name in MODULES:
        listed.update(getattr(importlib.import_module(f"renyitail.{name}"), "__all__", ()))
    assert exported - listed == set()
