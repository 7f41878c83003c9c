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


_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(renyitail.__file__))}


def _loaded_by_import(module: str) -> bool:
    code = ("import sys, renyitail, renyitail.cli; "
            f"sys.exit({module!r} in sys.modules)")
    return subprocess.run([sys.executable, "-c", code], env=_ENV).returncode != 0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.9 s and ~64 MB to the package's own ~0.1 s, 35 MB
    # import; only the t1 runner loads it
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs ~0.2 s and ~30 MB; rate_function solves its one root itself
    assert not _loaded_by_import("scipy.optimize")


def test_import_leaves_scipy_special_unloaded():
    # scipy.special doubles start-up; half_width, h_minimizer and the gamma-law
    # quantile load it on first use
    assert not _loaded_by_import("scipy.special")


@pytest.mark.parametrize("argv", [
    ("rate", "--spec", "exp:gamma=1", "--z", "1.5"),
    ("simulate", "--spec", "exp:gamma=1", "--n", "50"),
    ("fit", "DATA", "--family", "exponential", "--c", "1"),
    ("estimate", "DATA", "--interval", "none", "--c", "1"),
    ("figure", "--id", "ld", "--reps", "50"),
], ids=" ".join)
def test_command_leaves_scipy_special_unloaded(argv, tmp_path):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    code = ("import sys; from renyitail.cli import main; status = main(sys.argv[1:]); "
            "print('exit', status, 'scipy.special' in sys.modules, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", code, *argv], env=_ENV,
                            capture_output=True, text=True)
    assert result.stderr.endswith("exit 0 False\n"), result.stderr


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
