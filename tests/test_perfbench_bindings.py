"""The benchmark's tracer wraps pipeline functions by (owner, attribute) name.

A rename or removal in the package would make its traced runs fail; this pins
every binding the layer map names, read the way the tracer reads it.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from graphcomplete import downstream, structure_path

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


def test_build_diffusion_runs_through_the_wrapped_solve_and_topk(monkeypatch):
    # the per-cell ppr_closed_form and knn_sparsify spans (roadmap.ppr_solve_ms,
    # roadmap.topk_ms) wrap module attributes; the build must look them up there
    calls = {"ppr_closed_form": 0, "knn_sparsify": 0}

    def counting(name):
        inner = getattr(structure_path, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(structure_path, name, counting(name))
    edges = np.array([[0, 1], [1, 2], [3, 4]])
    downstream.build_diffusion(edges, 5, 0.2, 2)
    assert calls["ppr_closed_form"] == 1
    assert calls["knn_sparsify"] >= 1
