"""The benchmark's trace hooks still name functions that bornlab has.

``perfbench/trace.py`` wraps bornlab's functions by module and attribute
name; a renamed or removed function would break the benchmark while every
test here passed.  Its table is read, never changed."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.trace import MODULES, TRACED  # noqa: E402


@pytest.mark.parametrize("module", MODULES)
def test_traced_modules_import(module):
    importlib.import_module(f"bornlab.{module}")


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _, _ in TRACED])
def test_traced_names_resolve(module, attr):
    assert module in MODULES
    owner = importlib.import_module(f"bornlab.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
