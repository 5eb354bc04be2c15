"""Every exported name resolves, so a deleted function cannot linger in an
export list."""

import ast
import importlib
from pathlib import Path

import pytest

import dissipon

PACKAGE = Path(dissipon.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dissipon.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(dissipon, name)
        # the package re-exports only what its module exports
        exported = getattr(importlib.import_module(f"dissipon.{module}"), "__all__", None)
        assert exported is None or name in exported, f"{module}.{name}"
