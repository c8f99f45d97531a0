"""The benchmark's tracer wraps pipeline functions by (owner, attribute) name.

A rename or removal in the package would make its traced runs fail; this pins
every binding the layer map names, read the way the tracer reads it.
"""

import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_MAP = load_layers()


BINDINGS = [entry[:2] for entry in LAYER_MAP._COARSE + LAYER_MAP._FINE]


@pytest.mark.parametrize("owner, attr", BINDINGS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in BINDINGS])
def test_binding_resolves(owner, attr):
    # classes are patched through their own __dict__, modules through getattr
    if isinstance(owner, type):
        assert attr in owner.__dict__
    else:
        assert callable(getattr(owner, attr))


def test_backward_binding_resolves():
    assert callable(LAYER_MAP.downstream.backward)
