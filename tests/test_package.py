import ast
import ctypes
import importlib
from pathlib import Path

import pytest

import freqlab

MODULES = ["config", "data", "errors", "experiments", "losses", "nn", "poisson", "reporting", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"freqlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; a check the package relies on must raise instead
    found = []
    for path in sorted(Path(freqlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_bundled_openblas_runs_one_thread_although_numpy_loaded_first():
    # pytest's process imports numpy before freqlab, so the environment pin came too late
    if freqlab._bundled_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    getter = freqlab._openblas_function("get_num_threads")
    assert getter is not None, "bundled OpenBLAS exports no known thread getter, so nothing was pinned"
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert getter() == 1
