"""Every name in a module's ``__all__`` resolves on that module.

A stale export of a deleted function fails only on ``import *``, which
nothing else in the suite does.
"""

import importlib
import pkgutil

import pytest

import opmeans

MODULES = [
    f"opmeans.{info.name}"
    for info in pkgutil.iter_modules(opmeans.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


def test_library_modules_declare_exports():
    declared = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert {"opmeans.matrices", "opmeans.means", "opmeans.verify"} <= set(declared)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
