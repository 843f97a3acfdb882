import importlib
import pkgutil

import pytest

import rowtuples

# ``__main__`` runs the command line on import
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(rowtuples.__path__) if name != "__main__"
)


def test_modules_found():
    assert {"cli", "ideals", "subspaces", "sweeps"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"rowtuples.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from rowtuples import *", namespace)
    assert "annihilator" in namespace and "RowTuple" in namespace
