"""The benchmark tracer patches library functions by name; keep those names live."""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(layer: str, name: str):
    module = importlib.import_module(f"discinterp.{layer}")
    fn = getattr(module, name, None)
    assert isinstance(fn, types.FunctionType), f"discinterp.{layer}.{name} is not a function"
    return fn


def test_targets_and_estimators_are_traced_functions(tracing):
    for dotted in tracing.TARGETS + tracing.ESTIMATORS:
        layer, name = dotted.split(".")
        assert layer in tracing.LAYERS
        module = importlib.import_module(f"discinterp.{layer}")
        assert name in module.__all__, f"{dotted} is not in __all__, so it is never wrapped"
        assert _function(layer, name).__module__ == module.__name__


def test_cross_layer_private_helpers_exist(tracing):
    for layer, names in tracing.CROSS_LAYER_PRIVATE.items():
        for name in names:
            _function(layer, name)


def test_every_layer_export_resolves(tracing):
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"discinterp.{layer}")
        if layer == "cli":
            _function(layer, "main")
            continue
        for name in module.__all__:
            # the tracer looks every name up and wraps the functions among them
            assert hasattr(module, name), f"discinterp.{layer}.{name} is missing"
