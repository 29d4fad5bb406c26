"""The public surface: every exported name resolves to a definition."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rasch

MODULES = [importlib.import_module(f"rasch.{info.name}")
           for info in pkgutil.iter_modules(rasch.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def _reexports():
    """``(module, name)`` for every ``from .module import name`` in `rasch/__init__`."""
    tree = ast.parse(Path(rasch.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_reexported_name_resolves_to_its_definition():
    pairs = _reexports()
    assert len(pairs) > 40
    for module_name, name in pairs:
        module = importlib.import_module(f"rasch.{module_name}")
        assert getattr(rasch, name) is getattr(module, name), (module_name, name)
        assert name in getattr(module, "__all__", [name]), (module_name, name)
