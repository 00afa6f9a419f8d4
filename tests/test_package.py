"""Every exported name resolves, so no removed name lingers in an ``__all__``."""

import importlib
import inspect

import pytest


@pytest.mark.parametrize("module", ["isingring"] + [
    f"isingring.{name}"
    for name in ("cli", "dynamics", "model", "observables", "oracle_ed", "pfaffian", "wick")
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_pfaffian_submodule_is_not_shadowed():
    import isingring.pfaffian as P

    assert inspect.ismodule(P)
    assert callable(P.pfaffian)
