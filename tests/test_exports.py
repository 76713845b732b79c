import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import citerank
from citerank import aggregate, errors, ingest, linking, metrics, rank

MODULES = ["citerank"] + [
    f"citerank.{name}"
    for name in ("aggregate", "cli", "errors", "ingest", "linking", "metrics", "rank")
]

# the library modules the package re-exports, in the order it imports them
LIBRARY = [errors, ingest, linking, metrics, aggregate, rank]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # tools that walk __all__, such as perfbench's tracer, would otherwise
    # only fail on a stale name when they run
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_rank_callable_is_exported_from_the_package():
    # the row-by-row writers sit beside the string exports at the top level
    package = importlib.import_module("citerank")
    rank = importlib.import_module("citerank.rank")
    callables = [name for name in rank.__all__ if callable(getattr(rank, name))]
    assert {"write_rows", "write_breakdown"} <= set(callables)
    for name in callables:
        assert name in package.__all__
        assert getattr(package, name) is getattr(rank, name)


def test_package_all_is_built_from_the_library_modules():
    assert citerank.__all__ == [
        *errors.__all__,
        *ingest.__all__,
        *linking.__all__,
        *metrics.__all__,
        *aggregate.__all__,
        *rank.__all__,
        "__version__",
    ]


def test_no_star_import_can_shadow_another():
    # a name in two modules' __all__, or named like a submodule, would make
    # the package silently bind whichever star import ran last
    names = [name for module in LIBRARY for name in module.__all__]
    assert len(names) == len(set(names))
    submodules = {info.name for info in pkgutil.iter_modules(citerank.__path__)}
    assert submodules >= {"cli", *(module.__name__.rpartition(".")[2] for module in LIBRARY)}
    assert submodules.isdisjoint(citerank.__all__)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda module: module.__name__)
def test_package_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(citerank, name) is getattr(module, name), name


def test_import_does_not_load_the_cli():
    src = str(Path(citerank.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", "import citerank, sys; print('citerank.cli' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_no_module_imports_another_modules_private_name():
    # what one module needs of another has a public name, inside __all__
    # or not, so a ``_`` name is only ever used where it is defined
    package = Path(citerank.__file__).resolve().parent
    private = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "citerank")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
