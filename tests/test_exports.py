"""Every name a gridram module exports through `__all__` exists."""

import pkgutil

import pytest

import gridram

MODULES = ["gridram"] + [
    f"gridram.{info.name}"
    for info in pkgutil.iter_modules(gridram.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a name deleted from the module but left in its __all__ fails here
    exec(f"from {module} import *", {})


def test_every_module_is_listed():
    assert {"gridram.coloring", "gridram.core", "gridram.search"} <= set(MODULES)
