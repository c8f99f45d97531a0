"""The package's public surface: exactly the names a run or a caller needs,
each taking exactly the parameters a caller passes.

Reference code the tests compare against lives in tests/oracles.py; a name
or a parameter added here, or one that comes back, must be a deliberate
change to these lists.
"""

import ast
import inspect
import pathlib
import types

import graphcomplete as gc

PUBLIC_NAMES = {
    # autodiff
    "Operator", "ShapeError", "Tensor", "backward",
    # data
    "DatasetFormatError", "GraphDataset", "MaskSpec", "Splits", "apply_mask",
    "generate_sbm", "load_dataset", "make_splits", "write_dataset",
    # downstream
    "DownstreamResult", "Metrics", "ReconState", "evaluate", "gcn_forward",
    "run_reconstruction", "train_downstream", "train_gcn_baseline",
    # experiment
    "ExperimentConfig", "main", "make_config", "parse_config_file", "run_experiment",
    # feature path, fusion, nn
    "decode_structure", "impute_features", "FusionOut", "attention_fuse", "init_fusion",
    "Optimizer", "ParamStore", "mlp2_forward",
    # objective
    "feature_contrastive_loss", "structure_contrastive_loss",
    "structure_targets", "total_contrastive_loss",
    # rng, structure path
    "make_rng", "build_diffusion", "knn_sparsify", "normalize_adjacency",
    "positional_features", "ppnp_forward", "ppr_closed_form",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(gc).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(exported) == 45


# the parameter names of every public function and constructor, in order;
# the two exception classes take ValueError's arguments
PARAMETERS = {
    # autodiff
    "Operator": "M", "ShapeError": None, "Tensor": "value requires_grad _parents",
    "backward": "root",
    # data
    "DatasetFormatError": None,
    "GraphDataset": "features feature_mask edges labels num_classes",
    "MaskSpec": "feature_missing_rate edge_missing_rate feature_mode seed",
    "Splits": "train val test", "apply_mask": "ds spec",
    "generate_sbm": "n_per_block blocks p_in p_out feat_means noise_sd seed",
    "load_dataset": "path", "make_splits": "ds seed", "write_dataset": "ds path",
    # downstream
    "DownstreamResult": "metrics logits fusion_weights store",
    "Metrics": "train_accuracy val_accuracy test_accuracy loss_curve best_epoch",
    "ReconState": "imputed diffusion_topk propagated loss_history params",
    "evaluate": "logits labels idx", "gcn_forward": "op features store prefix dropout rng",
    "run_reconstruction": "ds cfg seed",
    "train_downstream": "recon labels num_classes splits cfg seed",
    "train_gcn_baseline": "ds splits cfg seed",
    # experiment
    "ExperimentConfig": "dataset out feature_missing edge_missing feature_mode seeds "
                        "baseline alpha k temperature imputer_hidden pe_hidden ppnp_hidden "
                        "gcn_hidden attention_dim epochs recon_lr recon_weight_decay "
                        "recon_dropout down_lr down_weight_decay down_dropout "
                        "down_max_epochs down_patience dump_embeddings dump_structure workers",
    "main": "argv", "make_config": "file_values overrides", "parse_config_file": "path",
    "run_experiment": "cfg",
    # feature path, fusion, nn
    "decode_structure": "completed",
    "impute_features": "features feature_mask store dropout rng",
    "FusionOut": "fused weights", "attention_fuse": "feature_view structure_view store",
    "init_fusion": "store d attention_dim rng",
    "Optimizer": "store learning_rate weight_decay", "ParamStore": "",
    "mlp2_forward": "store prefix X dropout rng",
    # objective
    "feature_contrastive_loss": "completed propagated temperature",
    "structure_contrastive_loss": "completed targets temperature",
    "structure_targets": "diffusion",
    "total_contrastive_loss": "completed propagated targets temperature",
    # rng, structure path
    "make_rng": "seed stream", "build_diffusion": "edges n alpha k",
    "knn_sparsify": "matrix k", "normalize_adjacency": "edges n",
    "positional_features": "n store", "ppnp_forward": "op features store prefix dropout rng",
    "ppr_closed_form": "a_norm alpha",
}


def test_parameter_names_are_pinned():
    found = {}
    for name in PUBLIC_NAMES:
        value = getattr(gc, name)
        is_error = isinstance(value, type) and issubclass(value, Exception)
        found[name] = None if is_error else " ".join(inspect.signature(value).parameters)
    assert found == PARAMETERS


def test_no_module_imports_a_private_scipy_module():
    # a private module (scipy.sparse._sparsetools) may be renamed in any
    # scipy release, and import graphcomplete would fail with it
    imported = []
    for path in pathlib.Path(gc.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    private = [(name, module) for name, module in imported
               if module.split(".")[0] == "scipy"
               and any(part.startswith("_") for part in module.split(".")[1:])]
    assert any(module.startswith("scipy.") for _, module in imported)
    assert not private, private
