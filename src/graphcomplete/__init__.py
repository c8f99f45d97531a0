"""Unsupervised completion of missing node features and graph structure,
with a downstream node-classification harness.

The package reconstructs both kinds of missing information at once: a
feature path imputes attributes and decodes a soft adjacency from them,
a structure path diffuses the known edges and propagates learned positional
embeddings, and a dual contrastive objective aligns the two paths without
labels.  An attention module fuses the reconstructed views for a two-layer
graph-convolution classifier.
"""

from .autodiff import Operator, ShapeError, Tensor, backward
from .data import (
    DatasetFormatError,
    GraphDataset,
    MaskSpec,
    Splits,
    apply_mask,
    generate_sbm,
    load_dataset,
    make_splits,
    write_dataset,
)
from .downstream import (
    DownstreamResult,
    Metrics,
    ReconState,
    evaluate,
    gcn_forward,
    run_reconstruction,
    train_downstream,
    train_gcn_baseline,
)
from .experiment import (
    ExperimentConfig,
    main,
    make_config,
    parse_config_file,
    run_experiment,
)
from .feature_path import decode_structure, impute_features
from .fusion import FusionOut, attention_fuse, init_fusion
from .nn import Optimizer, ParamStore, mlp2_forward
from .objective import (
    feature_contrastive_loss,
    structure_contrastive_loss,
    structure_targets,
    total_contrastive_loss,
)
from .rng import make_rng
from .structure_path import (
    build_diffusion,
    knn_sparsify,
    normalize_adjacency,
    positional_features,
    ppnp_forward,
    ppr_closed_form,
)

__version__ = "0.1.0"
