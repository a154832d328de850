from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import pytest

import padic_voa

MODULES = ["padic_voa"] + [f"padic_voa.{info.name}" for info in pkgutil.iter_modules(padic_voa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion must not leave its name behind in an __all__
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_package_exports_what_it_imports():
    public = {
        name
        for name, value in vars(padic_voa).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(padic_voa.__all__) == sorted(public)


def test_package_exports_the_library_modules():
    # every library module's public names, and nothing else; cli is the front end
    library = [name for name in MODULES[1:] if name != "padic_voa.cli"]
    union = {export for name in library for export in importlib.import_module(name).__all__}
    assert sorted(padic_voa.__all__) == sorted(union)
