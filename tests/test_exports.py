"""The export lists: every name a module's ``__all__`` lists resolves, and
each public name has one import path, its home module: the package holds
only its modules, ``__version__`` and ``RESULTS_VERSION``."""

import importlib
import os
import subprocess
import sys
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


def test_package_holds_only_its_modules_and_versions():
    # in a fresh interpreter: importing a submodule such as quatcnn.cli
    # elsewhere in the session binds it on the package too
    code = ("import quatcnn; print(quatcnn.__version__, "
            "*sorted(n for n in vars(quatcnn) if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=os.environ | {"PYTHONPATH": str(PACKAGE.parent)}).stdout
    version, *public = out.split()
    assert version == quatcnn.__version__
    assert public == sorted([*MODULES, "RESULTS_VERSION"])
    with pytest.raises(ImportError):
        from quatcnn import Model  # noqa: F401
