import importlib

import pytest

MODULES = ["citerank"] + [
    f"citerank.{name}"
    for name in ("aggregate", "cli", "errors", "ingest", "linking", "metrics", "rank")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # tools that walk __all__, such as perfbench's tracer, would otherwise
    # only fail on a stale name when they run
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
