"""Every name a module of ``repro`` lists in ``__all__`` must exist.

Deleting a function without dropping it from a package's re-exports
leaves an ``__all__`` entry that only fails on ``from ... import *``;
this walks every module so such an entry fails here instead.
"""

import importlib
import pkgutil

import pytest

import repro

_MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
