"""Every name a gridram module exports through `__all__` exists, and so does every
name the benchmark's tracer patches."""

import importlib.util
import pkgutil
from pathlib import Path

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


def test_tracer_targets_resolve():
    # the benchmark's tracer patches these names; a rename must fail here,
    # not only when the benchmark runs with tracing on
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attribute, _ in tracing.TARGETS:
        owner = importlib.import_module(f"gridram.{module}")
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attribute)
