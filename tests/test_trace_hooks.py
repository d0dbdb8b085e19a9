"""The benchmark's trace hooks still name functions that bornlab has, and
bornlab still calls each of them.

``perfbench/trace.py`` wraps bornlab's functions by module and attribute
name; a renamed or removed function, or one that no command reaches any
more, would break the benchmark while every test here passed.  Its table
and its workloads are read and run, never changed."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402
from perfbench.trace import MODULES, TRACED, Tracer  # noqa: E402


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


def test_the_tiny_workloads_call_every_traced_name(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            wl = workloads.build(workload, 3, tmp_path / workload, tiny=True)
            for op in wl.ops + ([wl.probe] if wl.probe else []):
                op.check(op.run())
    finally:
        tracer.uninstall()
    uncalled = [(module, attr) for module, attr, name, _ in TRACED if tracer.counters[name + ".calls"] < 1]
    assert uncalled == []
