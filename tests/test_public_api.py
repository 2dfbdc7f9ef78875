"""Public API guard: every exported name resolves, so a deletion leaves no dangling export."""

import importlib
import pkgutil

import pytest

import shapeguard

MODULES = sorted(m.name for m in pkgutil.iter_modules(shapeguard.__path__) if not m.ispkg)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"shapeguard.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_resolves_and_star_import_works():
    assert [n for n in shapeguard.__all__ if not hasattr(shapeguard, n)] == []
    namespace = {}
    exec("from shapeguard import *", namespace)
    assert set(shapeguard.__all__) <= set(namespace)
