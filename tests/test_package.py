"""The package's public surface: exactly the names a run or a caller needs.

Reference code the tests compare against lives in tests/oracles.py; a name
added here, or one that comes back, must be a deliberate change to this list.
"""

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
    "OptimConfig", "Optimizer", "ParamStore", "mlp2_forward",
    # objective
    "ContrastiveConfig", "feature_contrastive_loss", "structure_contrastive_loss",
    "structure_targets", "total_contrastive_loss",
    # rng, structure path
    "make_rng", "PPRConfig", "build_diffusion", "knn_sparsify", "normalize_adjacency",
    "positional_features", "ppnp_forward", "ppr_closed_form",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(gc).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(exported) == 48
