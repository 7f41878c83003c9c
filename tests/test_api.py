"""The public API: every exported name resolves."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
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


def _loaded_by_import(module: str) -> bool:
    code = ("import sys, renyitail, renyitail.cli; "
            f"sys.exit({module!r} in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(renyitail.__file__))}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the import time; only the t1 runner loads it
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs ~0.2 s and ~30 MB; rate_function solves its one root itself
    assert not _loaded_by_import("scipy.optimize")


def test_console_scripts_resolve():
    # pyproject's [project.scripts] targets are only exercised by an installed package
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target
