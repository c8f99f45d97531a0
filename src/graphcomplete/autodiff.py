"""Reverse-mode automatic differentiation over a fixed set of dense ops.

The training graphs in this package are static: the same sequence of matrix
products, activations and row reductions every epoch.  A general autodiff
system is not needed, so this module implements the smallest correct one: a
``Tensor`` records its parents together with vector-Jacobian closures, and
``backward`` walks the graph once in reverse topological order.

Conventions:

* all values are float64 ndarrays; scalars have shape ``()``
* constants (inputs, masks, propagation matrices) do not require grad and
  never accumulate one
* gradient arrays are only ever rebound, never mutated in place, so vjps
  may safely return views
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not chain."""


class Tensor:
    """Node in the computation graph: a value plus how it was produced."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_consumed")

    def __init__(self, value, requires_grad: bool = False, _parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)   # (Tensor, vjp) pairs
        self._consumed = False

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = "param" if (self.requires_grad and not self._parents) else "node"
        return f"Tensor({tag}, shape={self.value.shape})"


def constant(value) -> Tensor:
    """Wrap an array as a gradient-free leaf."""
    return Tensor(value, requires_grad=False)


def _node(value, parents) -> Tensor:
    live = [(p, vjp) for p, vjp in parents if p.requires_grad]
    return Tensor(value, requires_grad=bool(live), _parents=live)


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable grad-requiring leaf.

    ``root`` must be scalar.  A graph can be walked once; a second call on
    the same root raises, because intermediate grads are already spent.
    """
    if root.value.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")
    if root._consumed:
        raise RuntimeError("tape consumed twice: backward already ran on this graph")
    root._consumed = True

    topo: list[Tensor] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones(())
    for node in reversed(topo):
        if node.grad is None:
            continue
        g = node.grad
        for parent, vjp in node._parents:
            delta = vjp(g)
            parent.grad = delta if parent.grad is None else parent.grad + delta


# ---------------------------------------------------------------------------
# elementwise and affine ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
    return _node(a.value + b.value, [(a, lambda g: g), (b, lambda g: g)])


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a (n×m) plus a bias row v (1×m), broadcast over rows."""
    if v.value.shape != (1, a.value.shape[1]):
        raise ShapeError(f"add_rowvec: {a.value.shape} vs {v.value.shape}")
    return _node(
        a.value + v.value,
        [(a, lambda g: g), (v, lambda g: g.sum(axis=0, keepdims=True))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return _node(av * bv, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def mul_colvec(a: Tensor, c: Tensor) -> Tensor:
    """a (n×m) scaled per row by a column c (n×1)."""
    if c.value.shape != (a.value.shape[0], 1):
        raise ShapeError(f"mul_colvec: {a.value.shape} vs {c.value.shape}")
    av, cv = a.value, c.value
    return _node(
        av * cv,
        [(a, lambda g: g * cv), (c, lambda g: (g * av).sum(axis=1, keepdims=True))],
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.value * c, [(a, lambda g: g * c)])


def relu(a: Tensor) -> Tensor:
    pos = a.value > 0
    return _node(np.where(pos, a.value, 0.0), [(a, lambda g: g * pos)])


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)), so no exp overflows."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.value)
    return _node(out, [(a, lambda g: g * out * (1.0 - out))])


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)
    return _node(out, [(a, lambda g: g * (1.0 - out * out))])


# ---------------------------------------------------------------------------
# matrix products


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return _node(av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


def propagate(M, x: Tensor) -> Tensor:
    """M @ x with M a gradient-free propagation matrix (dense or sparse)."""
    if M.shape[1] != x.value.shape[0]:
        raise ShapeError(f"propagate: {M.shape} vs {x.value.shape}")
    Mt = M.T
    return _node(np.asarray(M @ x.value), [(x, lambda g: np.asarray(Mt @ g))])


def transpose(a: Tensor) -> Tensor:
    return _node(a.value.T, [(a, lambda g: g.T)])


# ---------------------------------------------------------------------------
# row reductions and structural ops


def unit_rows(x: np.ndarray, eps: float = 1e-12):
    """Rows of x scaled to unit L2 norm, denominator floored at eps; returns (out, vjp)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    nu = np.maximum(norms, eps)
    out = x / nu
    big = norms > eps

    def vjp(g):
        # unit-sphere projection where the norm is live, plain 1/eps otherwise
        proj = out * (g * out).sum(axis=1, keepdims=True)
        np.subtract(g, proj, out=proj)
        proj /= nu
        return proj if big.all() else np.where(big, proj, g / eps)

    return out, vjp


def row_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit L2 norm, flooring the denominator at eps."""
    out, vjp = unit_rows(a.value, eps)
    return _node(out, [(a, vjp)])


def row_softmax(a: Tensor) -> Tensor:
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return out * (g - (g * out).sum(axis=1, keepdims=True))

    return _node(out, [(a, vjp)])


def row_logsumexp(a: Tensor) -> Tensor:
    """Per-row log-sum-exp, returned as an n×1 column."""
    m = a.value.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(a.value - m).sum(axis=1, keepdims=True))
    av = a.value

    def vjp(g):
        return g * np.exp(av - lse)   # g times row softmax

    return _node(lse, [(a, vjp)])


def where_mask(mask: np.ndarray, a, b) -> Tensor:
    """Entrywise merge: mask picks from a, its complement from b.

    Either side may be a plain ndarray; gradients flow only into Tensor
    sides, and only through the entries they supply.
    """
    av = a.value if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bv = b.value if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or mask.shape != av.shape:
        raise ShapeError(f"where_mask: {mask.shape} / {av.shape} / {bv.shape}")
    parents = []
    if isinstance(a, Tensor):
        parents.append((a, lambda g: g * mask))
    if isinstance(b, Tensor):
        parents.append((b, lambda g: g * ~mask))
    return _node(np.where(mask, av, bv), parents)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"concat_cols: {a.value.shape} vs {b.value.shape}")
    k = a.value.shape[1]
    return _node(
        np.hstack([a.value, b.value]),
        [(a, lambda g: g[:, :k]), (b, lambda g: g[:, k:])],
    )


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    if not (0 <= j0 < j1 <= a.value.shape[1]):
        raise ShapeError(f"slice_cols: [{j0}:{j1}] of {a.value.shape}")
    shape = a.value.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, j0:j1] = g
        return full

    return _node(a.value[:, j0:j1], [(a, vjp)])


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape
    return _node(a.value.sum(), [(a, lambda g: g * np.ones(shape))])


def fused_scalar(value, grads) -> Tensor:
    """One node for a scalar computed with its gradients, grads = [(input, dvalue/dinput)].

    The vjp scales each stored gradient by the upstream scalar; non-Tensor inputs are skipped.
    """
    return _node(np.float64(value), [(x, lambda g, d=d: g * d) for x, d in grads
                                     if isinstance(x, Tensor)])
