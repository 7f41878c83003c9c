"""The public API: every exported name resolves, and the modules layer without cycles."""

import ast
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


_SRC = pathlib.Path(renyitail.__file__).resolve().parent


def _tree(name):
    return ast.parse((_SRC / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(tree):
    """(module, names) for each import of a package module under tree:
    ``from .x import a, b`` gives ("x", ["a", "b"]), ``from . import x`` ("x", [])."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.partition(".")[0] != "renyitail":
                continue
            module = module.removeprefix("renyitail").lstrip(".") if not node.level else module
            if module:
                found.append((module, [a.name for a in node.names]))
            else:
                found += [(a.name, []) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name.removeprefix("renyitail."), []) for a in node.names
                      if a.name.startswith("renyitail.")]
    return found


def _absolute_imports(tree):
    """The top-level names of the absolute imports under tree: ``import a.b`` gives "a"."""
    top = {a.name.partition(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
           for a in node.names}
    return top | {node.module.partition(".")[0] for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and not node.level}


_PROCESS_MODULES = {"io", "os", "pickle", "signal", "zlib"}


def test_special_imports_no_package_or_process_module():
    # the bottom of the layering: every other module may build on it
    tree = _tree("_special")
    assert _package_imports(tree) == []
    assert _absolute_imports(tree).isdisjoint(_PROCESS_MODULES), _absolute_imports(tree)


def test_rand_models_imports_no_package_or_process_module():
    # _special alone, for the gamma-law quantile
    tree = _tree("rand_models")
    assert {module for module, _ in _package_imports(tree)} <= {"_special"}
    assert _absolute_imports(tree).isdisjoint(_PROCESS_MODULES), _absolute_imports(tree)


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test dependency
    found = [str(path.relative_to(_SRC)) for path in sorted(_SRC.rglob("*.py"))
             if "scipy" in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("name", ["renyi", "engine"])
def test_module_builds_on_rand_models_alone(name):
    assert {module for module, _ in _package_imports(_tree(name))} == {"rand_models"}


def test_large_deviations_builds_on_special_and_rand_models_alone():
    # the closed forms only: every Monte Carlo job, the tail's included, is in experiments
    tree = _tree("large_deviations")
    assert {module for module, _ in _package_imports(tree)} == {"_special", "rand_models"}
    assert _absolute_imports(tree).isdisjoint(_PROCESS_MODULES), _absolute_imports(tree)


def test_experiments_takes_only_the_tail_helpers_from_large_deviations():
    names = {n for module, names in _package_imports(_tree("experiments"))
             if module == "large_deviations" for n in names}
    assert names <= {"_tail_rate", "exact_hill_tail"}, names


def test_experiments_builds_x_through_the_construction():
    # generalized_renyi owns x_k = sum z_j/(n+1-j); the experiments keep no
    # copy of it and so no use for its weights
    names = {n for _, names in _package_imports(_tree("experiments")) for n in names}
    assert "generalized_renyi" in names and "_descending" not in names, names


@pytest.mark.parametrize("name", MODULES)
def test_no_function_imports_a_package_module(name):
    # a deferred import is how a cycle hides
    functions = [node for node in ast.walk(_tree(name))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [imp for fn in functions for imp in _package_imports(fn)] == []


_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(renyitail.__file__))}


def _loaded_by_import(module):
    """Whether importing the package and its CLI, in a fresh interpreter, loads module."""
    code = ("import sys, renyitail, renyitail.cli; "
            f"sys.exit({module!r} in sys.modules)")
    return subprocess.run([sys.executable, "-c", code], env=_ENV).returncode != 0


def test_import_leaves_scipy_stats_unloaded():
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_import("scipy.optimize")


def test_import_leaves_scipy_special_unloaded():
    assert not _loaded_by_import("scipy.special")


@pytest.mark.parametrize("argv", [
    ("rate", "--spec", "exp:gamma=1", "--z", "1.5"),
    ("simulate", "--spec", "exp:gamma=1", "--n", "50"),
    ("fit", "DATA", "--family", "exponential", "--c", "1"),
    ("estimate", "DATA", "--interval", "none", "--c", "1"),
    ("estimate", "DATA", "--c", "1"),
    ("estimate", "DATA", "--interval", "self", "--c", "1"),
    ("estimate", "DATA", "--method", "quantile", "--c", "1"),
    ("figure", "--id", "ld", "--reps", "50"),
    ("figure", "--id", "3", "--n", "50", "--reps", "20"),
    ("figure", "--id", "t1", "--reps", "50"),
    ("figure", "--id", "1", "--n", "50", "--reps", "20"),
    ("figure", "--id", "2", "--n", "50"),
    ("fit", "DATA", "--family", "gamma", "--r", "2", "--c", "1"),
], ids=" ".join)
def test_command_leaves_scipy_special_unloaded(argv, tmp_path):
    # no command loads any scipy module, scipy.special or other
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    code = ("import sys; from renyitail.cli import main; status = main(sys.argv[1:]); "
            "print('exit', status, any(m.partition('.')[0] == 'scipy' for m in sys.modules), "
            "file=sys.stderr)")
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
