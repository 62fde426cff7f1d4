"""Every name a histopatch module lists in ``__all__`` exists.  The bench's
per-op tracer wraps each entry of five modules' ``__all__`` by name, so an
entry left behind by a deletion would stop it from installing."""

import importlib
import pkgutil

import pytest

import histopatch

MODULES = [m.name for m in pkgutil.iter_modules(histopatch.__path__)
           if m.name != "__main__"]  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"histopatch.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_traced_modules_export_names():
    for name in ("ops", "model", "trainer", "data", "checkpoint"):
        assert importlib.import_module(f"histopatch.{name}").__all__
