"""The benchmark's tracer wraps pipeline functions by (owner, attribute) name.

A rename or removal in the package would make its traced runs fail; this pins
every binding the layer map names, read the way the tracer reads it, and the
contract its per-cell timer relies on.
"""

import gc
import importlib.util
import inspect
import pathlib
import threading
import weakref

import numpy as np
import pytest

import graphcomplete
from graphcomplete import downstream, experiment, structure_path
from graphcomplete.data import two_block_features

from conftest import row_block_threads, sbm_fixture

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


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_timer_times_compute_only(tmp_path, monkeypatch, workers):
    # the benchmark's cell_s wraps experiment._run_cell: it must keep its
    # parameters, be called through the module attribute once per cell and
    # write nothing itself; and a written cell is let go, so no earlier
    # cell's ReconState is alive while a later cell's files are written, nor
    # when the caller starts a cell after a write.  At two workers the pool
    # thread's first cell waits for that, so the caller writes cell 0 and
    # starts cell 2 while the pool thread's cell 1 still runs.
    assert list(inspect.signature(experiment._run_cell).parameters) == [
        "ds", "cfg", "fr", "er", "seed"]
    data, out = tmp_path / "data", tmp_path / "out"
    graphcomplete.write_dataset(graphcomplete.generate_sbm(
        10, 2, 0.5, 0.05, two_block_features(8), 0.3, seed=0), str(data))
    cfg = experiment.ExperimentConfig(
        dataset=str(data), out=str(out), feature_missing=(0.3, 0.5), edge_missing=(0.2,),
        seeds=(0, 1), k=3, epochs=2, imputer_hidden=8, pe_hidden=8, ppnp_hidden=8,
        gcn_hidden=8, attention_dim=4, down_max_epochs=5, down_patience=5,
        dump_embeddings=True, dump_structure=True, workers=workers)
    run_cell, write_tsv = experiment._run_cell, experiment._write_tsv
    calls, states, written = [], {}, []
    caller_after_write = threading.Event()

    def counted(ds, cfg, fr, er, seed):
        if threading.current_thread() is threading.main_thread():
            gc.collect()
            alive = [earlier for earlier in written if states[earlier]() is not None]
            assert not alive, f"{alive} still alive while the caller starts a cell"
            if written:
                caller_after_write.set()
        else:
            caller_after_write.wait(10)
        recon, results = run_cell(ds, cfg, fr, er, seed)
        tag = f"fr{fr:g}_er{er:g}_seed{seed}"
        calls.append(tag)
        assert not [p for p in out.rglob("*") if tag in p.name], tag
        states[tag] = weakref.ref(recon)
        return recon, results

    def checked(path, *args, **kwargs):
        tag = next(tag for tag in states if tag in path)
        if tag not in written:
            gc.collect()
            alive = [earlier for earlier in written if states[earlier]() is not None]
            assert not alive, f"{alive} still alive while {tag} is written"
            written.append(tag)
        write_tsv(path, *args, **kwargs)

    monkeypatch.setattr(experiment, "_run_cell", counted)
    monkeypatch.setattr(experiment, "_write_tsv", checked)
    with row_block_threads(2):
        experiment.run_experiment(cfg)
    cells = [name for name, *_ in cfg.cells()]
    assert sorted(calls) == sorted(cells) and written == cells
    assert caller_after_write.is_set()


def test_first_classifier_tape_node_counts(monkeypatch):
    # the tape the benchmark walks: the classifier's loss over its two layer
    # nodes, the dropout between them and W0, W1 (6 nodes), plus one fused
    # attention node over its six parameters
    ds = graphcomplete.apply_mask(sbm_fixture(), graphcomplete.MaskSpec(0.3, 0.3, "entry", 0))
    splits = graphcomplete.make_splits(ds, seed=0)
    cfg = experiment.ExperimentConfig(k=3, epochs=0, imputer_hidden=8, pe_hidden=8,
                                      ppnp_hidden=8, gcn_hidden=8, attention_dim=4,
                                      down_max_epochs=1)
    backward, sizes = downstream.backward, []

    def counted(root):
        sizes.append(LAYER_MAP.tape_size(root)[0])
        backward(root)

    monkeypatch.setattr(downstream, "backward", counted)
    graphcomplete.train_gcn_baseline(ds, splits, cfg, seed=0)
    state = graphcomplete.run_reconstruction(ds, cfg, seed=0)
    graphcomplete.train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=0)
    assert sizes == [6, 13]


# (node count, value bytes) of the first tape at n=100, d=16 and the default widths
@pytest.mark.parametrize("dropout, nodes, nbytes", [(0.0, 17, 2_420_376), (0.2, 19, 2_829_976)],
                         ids=["no_dropout", "dropout"])
def test_first_reconstruction_tape(monkeypatch, dropout, nodes, nbytes):
    # the recon tape the benchmark walks holds the loss, its two terms, the merge,
    # one node per layer (two imputer, two propagation), the dropout nodes, the
    # positional embeddings and the 9 parameters; no product inside a layer is kept
    ds = graphcomplete.apply_mask(sbm_fixture(), graphcomplete.MaskSpec(0.3, 0.3, "entry", 0))
    cfg = experiment.ExperimentConfig(epochs=1, recon_dropout=dropout)
    backward, sizes = downstream.backward, []

    def counted(root):
        sizes.append(LAYER_MAP.tape_size(root))
        backward(root)

    monkeypatch.setattr(downstream, "backward", counted)
    graphcomplete.run_reconstruction(ds, cfg, seed=0)
    n, d = ds.features.shape
    params = (d * cfg.imputer_hidden + cfg.imputer_hidden + cfg.imputer_hidden * d + d
              + n * cfg.pe_hidden + cfg.pe_hidden
              + cfg.pe_hidden * cfg.ppnp_hidden + cfg.ppnp_hidden * d)
    drops = (n * cfg.imputer_hidden + n * cfg.ppnp_hidden) if dropout else 0
    values = (3                       # the loss and its two terms
              + 3 * n * d             # the merge, the imputer's output, the propagated output
              + n * cfg.imputer_hidden + n * cfg.pe_hidden + n * cfg.ppnp_hidden
              + drops + params)
    assert sizes == [(nodes, nbytes)] and nbytes == 8 * values
