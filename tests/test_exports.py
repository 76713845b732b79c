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


def test_every_rank_callable_is_exported_from_the_package():
    # the row-by-row writers sit beside the string exports at the top level
    package = importlib.import_module("citerank")
    rank = importlib.import_module("citerank.rank")
    callables = [name for name in rank.__all__ if callable(getattr(rank, name))]
    assert {"write_rows", "write_breakdown"} <= set(callables)
    for name in callables:
        assert name in package.__all__
        assert getattr(package, name) is getattr(rank, name)
