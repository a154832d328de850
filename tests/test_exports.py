from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
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


def test_cli_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import padic_voa.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(padic_voa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    new = set(result.stdout.split())
    assert "padic_voa.cli" in new
    assert new.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("name", MODULES)
def test_every_cache_is_bounded(name):
    # an unbounded memo grows with every new input of a long-lived process
    module = importlib.import_module(name)
    caches = {attr: value.cache_info() for attr, value in vars(module).items() if hasattr(value, "cache_info")}
    assert {attr: info.maxsize for attr, info in caches.items() if info.maxsize is None} == {}


def test_the_virasoro_rewrite_has_no_memo_of_its_own():
    # its rewrites are the rows of the generator table in `modes._MODE_CACHE`
    module = importlib.import_module("padic_voa.virasoro")
    own = [attr for attr, value in vars(module).items() if hasattr(value, "cache_info") and value.__module__ == module.__name__]
    assert own == []
    assert not {"functools", "lru_cache", "cache"} & set(vars(module))
