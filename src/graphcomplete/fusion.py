"""Attention fusion of the two reconstructed feature views.

Each view's row is projected to a small attention space, scored against a
learned vector, and squashed with tanh, giving one scalar per (node, view).
A per-node two-way softmax turns the scalars into convex weights, and the
fused row is the weighted combination of the two views' rows.  The gate is
computed as tanh(X·(W·s) + b·s): the projection (W, b) is reduced to the
score vector s before it meets the n rows, so no n×a array is made.

Both views are constants to the tape: the fused rows are one node whose
parents are the six fusion.* parameters.  Their vjps share one gradient
computation back through the combination, the softmax and both gates, with
the arithmetic of this composition of elementary tape ops, bit for bit:
per view tanh(add_rowvec(matmul(X, matmul(W, s)), matmul(b, s))), the two
gates side by side, a row softmax, two column slices, per-row scalings and
their sum.  With dscore the gate's upstream gradient through tanh and
v = Xᵀ·dscore, the vjps are dW = v·sᵀ, db = (Σ dscore)·sᵀ and
ds = Wᵀ·v + bᵀ·(Σ dscore).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, as_tensor, shared_node
from .nn import ParamStore, glorot


@dataclass(frozen=True)
class FusionOut:
    """fused: (n, d) combined features, a tape node over the fusion parameters;
    weights: (n, 2) per-node view weights, a plain array."""

    fused: Tensor
    weights: np.ndarray


def init_fusion(store: ParamStore, d: int, attention_dim: int,
                rng: np.random.Generator) -> None:
    """One projection and one score vector per view, shared attention width."""
    store.add("fusion.proj_f.W", glorot(rng, d, attention_dim))
    store.add("fusion.proj_f.b", np.zeros((1, attention_dim)))
    store.add("fusion.proj_s.W", glorot(rng, d, attention_dim))
    store.add("fusion.proj_s.b", np.zeros((1, attention_dim)))
    store.add("fusion.score_f", glorot(rng, attention_dim, 1))
    store.add("fusion.score_s", glorot(rng, attention_dim, 1))


def _view(view, name: str) -> np.ndarray:
    if isinstance(view, Tensor) and view.requires_grad:
        raise ValueError(f"attention_fuse: {name} requires grad, but the fused node "
                         "never differentiates into a view")
    return as_tensor(view).value


def attention_fuse(feature_view, structure_view, store: ParamStore) -> FusionOut:
    """Combine the two views row by row with learned convex weights, each
    view's gate tanh(view·(W·s) + b·s), so a forward and its backward make
    matrix-vector products with the views and none of n×a."""
    x, z = _view(feature_view, "feature_view"), _view(structure_view, "structure_view")
    if x.shape != z.shape:
        raise ShapeError(f"views differ: {x.shape} vs {z.shape}")
    views = (x, z)
    # the feature view's gate parameters (W, b, s), then the structure view's
    params = [store[f"fusion.{key}"] for side in "fs"
              for key in (f"proj_{side}.W", f"proj_{side}.b", f"score_{side}")]
    sides = (params[:3], params[3:])
    # W and b meet the score vector s first, so no view makes an n×a projection
    gates = [np.tanh(view @ (W.value @ s.value) + b.value @ s.value)
             for view, (W, b, s) in zip(views, sides)]
    both = np.hstack(gates)
    e = np.exp(both - both.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    fused = x * weights[:, 0:1] + z * weights[:, 1:2]

    def grads(g):
        # d(fused)/d(weights), then the softmax vjp, then each gate's chain
        dw = np.hstack([(g * view).sum(axis=1, keepdims=True) for view in views])
        dgates = weights * (dw - (dw * weights).sum(axis=1, keepdims=True))
        out = []
        for j, (view, gate, (W, b, s)) in enumerate(zip(views, gates, sides)):
            dscore = dgates[:, j:j + 1] * (1.0 - gate * gate)
            v, total = view.T @ dscore, dscore.sum(axis=0, keepdims=True)
            out += [v @ s.value.T, total @ s.value.T, W.value.T @ v + b.value.T @ total]
        return out

    return FusionOut(fused=shared_node(fused, [grads], [(p, lambda gs, i=i: gs[i])
                                                        for i, p in enumerate(params)]),
                     weights=weights)
