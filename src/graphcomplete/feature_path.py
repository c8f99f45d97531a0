"""Feature-reconstruction path.

Missing attribute entries are filled by a two-layer MLP applied to the
zero-filled feature rows; observed entries pass through untouched.  The
completed features X give this path's structure view, sigmoid(X·Xᵀ): the
structure term decodes it block by block, decode_structure whole as an array.
"""

from __future__ import annotations

import numpy as np

from . import pool
from .autodiff import ShapeError, Tensor, as_tensor, logistic, where_mask
from .nn import ParamStore, mlp2_forward


def impute_features(features: np.ndarray, feature_mask: np.ndarray,
                    store: ParamStore, dropout: float = 0.0, rng=None) -> Tensor:
    """Complete missing entries with the imputer MLP (imputer.W1, ... in store).

    The merge keeps observed entries bit-exact and routes gradients only
    through the entries the network actually fills in.
    """
    features = np.asarray(features, dtype=np.float64)
    if feature_mask.shape != features.shape:
        raise ShapeError(f"mask {feature_mask.shape} vs features {features.shape}")
    d = features.shape[1]
    w1 = store["imputer.W1"].value
    w2 = store["imputer.W2"].value
    if w1.shape[0] != d or w2.shape[1] != d:
        raise ShapeError(f"imputer maps {w1.shape[0]} -> {w2.shape[1]}, features have d={d}")
    predicted = mlp2_forward(store, "imputer", features, dropout=dropout, rng=rng)
    return where_mask(feature_mask, features, predicted)


def decode_structure(completed) -> np.ndarray:
    """Inner-product decoder: logistic(X·Xᵀ) of X (array or Tensor), no gradient."""
    x = as_tensor(completed).value
    if x.ndim != 2:
        raise ShapeError(f"decode_structure: features of shape {x.shape}, not (n, d)")
    return logistic(pool.matmul(x, x.T))
