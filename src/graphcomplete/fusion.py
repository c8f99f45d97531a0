"""Attention fusion of the two reconstructed feature views.

Each view's row is projected to a small attention space, scored against a
learned vector, and squashed with tanh, giving one scalar per (node, view).
A per-node two-way softmax turns the scalars into convex weights, and the
fused row is the weighted combination of the two views' rows.

Both views are constants to the tape: the fused rows are one node whose
parents are the six fusion.* parameters.  Their vjps share one gradient
computation back through the combination, the softmax and both gates, with
the arithmetic a composition of elementary tape ops would do.
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
    """Combine the two views row by row with learned convex weights."""
    x, z = _view(feature_view, "feature_view"), _view(structure_view, "structure_view")
    if x.shape != z.shape:
        raise ShapeError(f"views differ: {x.shape} vs {z.shape}")
    views = (x, z)
    # the feature view's gate parameters, then the structure view's
    params = [store[f"fusion.{key}"] for side in "fs"
              for key in (f"proj_{side}.W", f"proj_{side}.b", f"score_{side}")]
    projs, gates = [], []
    for view, (W, b, score) in zip(views, (params[:3], params[3:])):
        projs.append(view @ W.value + b.value)
        gates.append(np.tanh(projs[-1] @ score.value))
    both = np.hstack(gates)
    e = np.exp(both - both.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    fused = x * weights[:, 0:1] + z * weights[:, 1:2]

    def grads(g):
        # d(fused)/d(weights), then the softmax vjp, then each gate's chain
        dw = np.hstack([(g * view).sum(axis=1, keepdims=True) for view in views])
        dgates = weights * (dw - (dw * weights).sum(axis=1, keepdims=True))
        out = []
        for j, (view, proj, gate, score) in enumerate(zip(views, projs, gates, params[2::3])):
            dscore = dgates[:, j:j + 1] * (1.0 - gate * gate)
            dproj = dscore @ score.value.T
            out += [view.T @ dproj, dproj.sum(axis=0, keepdims=True), proj.T @ dscore]
        return out

    return FusionOut(fused=shared_node(fused, [grads], [(p, lambda gs, i=i: gs[i])
                                                        for i, p in enumerate(params)]),
                     weights=weights)
