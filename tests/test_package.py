import importlib

import pytest

MODULES = ["config", "data", "errors", "experiments", "losses", "nn", "poisson", "reporting", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"freqlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
