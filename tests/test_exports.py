"""The export lists: every name a module's ``__all__`` lists resolves, and
the package imports only names its home module exports, so deleting a
function cannot leave a stale export behind."""

import ast
import importlib
from pathlib import Path

import pytest

import quatcnn

PACKAGE = Path(quatcnn.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if not path.stem.startswith("__") and "__all__" in path.read_text())


def test_modules_found():
    assert MODULES == ["encoding", "harness", "layers", "quat", "train"]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"quatcnn.{name}")
    assert sorted(set(module.__all__)) == sorted(module.__all__), "duplicate entries"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"quatcnn.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert unlisted == [], f"quatcnn.{node.module}"
        assert all(getattr(quatcnn, alias.name) is getattr(module, alias.name)
                   for alias in node.names)
