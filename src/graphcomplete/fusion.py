"""Attention fusion of the two reconstructed feature views.

Each view's row is projected to a small attention space, scored against a
learned vector, and squashed with tanh, giving one scalar per (node, view).
A per-node two-way softmax turns the scalars into convex weights, and the
fused row is the weighted combination of the two views' rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    add_rowvec,
    as_tensor,
    concat_cols,
    matmul,
    mul_colvec,
    row_softmax,
    slice_cols,
    tanh,
)
from .nn import ParamStore, glorot


@dataclass(frozen=True)
class FusionOut:
    """fused: (n, d) combined features; weights: (n, 2) per-node view weights.

    Both fields are tape tensors when built during training; .value gives
    the arrays.
    """

    fused: Tensor
    weights: Tensor


def init_fusion(store: ParamStore, d: int, attention_dim: int,
                rng: np.random.Generator) -> None:
    """One projection and one score vector per view, shared attention width."""
    store.add("fusion.proj_f.W", glorot(rng, d, attention_dim))
    store.add("fusion.proj_f.b", np.zeros((1, attention_dim)))
    store.add("fusion.proj_s.W", glorot(rng, d, attention_dim))
    store.add("fusion.proj_s.b", np.zeros((1, attention_dim)))
    store.add("fusion.score_f", glorot(rng, attention_dim, 1))
    store.add("fusion.score_s", glorot(rng, attention_dim, 1))


def _gate(view: Tensor, store: ParamStore, side: str) -> Tensor:
    proj = add_rowvec(matmul(view, store[f"fusion.proj_{side}.W"]),
                      store[f"fusion.proj_{side}.b"])
    return tanh(matmul(proj, store[f"fusion.score_{side}"]))


def attention_fuse(feature_view, structure_view, store: ParamStore) -> FusionOut:
    """Combine the two views row by row with learned convex weights."""
    x, z = as_tensor(feature_view), as_tensor(structure_view)
    if x.value.shape != z.value.shape:
        raise ShapeError(f"views differ: {x.value.shape} vs {z.value.shape}")
    gates = concat_cols(_gate(x, store, "f"), _gate(z, store, "s"))
    weights = row_softmax(gates)
    fused = add(mul_colvec(x, slice_cols(weights, 0, 1)),
                mul_colvec(z, slice_cols(weights, 1, 2)))
    return FusionOut(fused=fused, weights=weights)
