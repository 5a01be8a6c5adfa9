import importlib
import pkgutil

import pytest

import larchpmle

MODULES = [larchpmle] + [
    importlib.import_module(f"larchpmle.{info.name}")
    for info in pkgutil.iter_modules(larchpmle.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    # a name left in an export list after its definition is gone would
    # otherwise fail only at `from module import *`
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
