"""Reverse-mode automatic differentiation over a fixed set of dense ops.

The training graphs in this package are static: the same sequence of matrix
products, activations and row reductions every epoch.  A general autodiff
system is not needed, so this module implements the smallest correct one: a
``Tensor`` records its parents together with vector-Jacobian closures, and
``backward`` walks the graph once in reverse topological order, letting go
of each node's closures, and the arrays only they hold, once it is walked.
A network layer is one node (``layer``) that keeps only the arrays its
vjps read, not the products inside it.

Conventions:

* all values are float64 ndarrays; scalars have shape ``()``
* constants (inputs, masks, propagation Operators) do not require grad and
  never accumulate one
* gradient arrays are only ever rebound, never mutated in place, so vjps
  may safely return views
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from . import pool

NORM_EPS = 1e-12   # floor on a row norm before dividing by it


class ShapeError(ValueError):
    """Raised when operand shapes do not chain."""


class Tensor:
    """Node in the computation graph: a value plus how it was produced."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_consumed", "_upstream")

    def __init__(self, value, requires_grad: bool = False, _parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)   # (Tensor, vjp) pairs
        self._consumed = False
        self._upstream = ()     # set by shared_node: steps from grad to what its vjps read

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        leaf = self.requires_grad and not self._parents and not self._consumed
        tag = "param" if leaf else "node"
        return f"Tensor({tag}, shape={self.value.shape})"


def constant(value) -> Tensor:
    """Wrap an array as a gradient-free leaf."""
    return Tensor(value, requires_grad=False)


def as_tensor(x) -> Tensor:
    """The one array-or-Tensor coercion: x itself if a Tensor, else a gradient-free leaf."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents) -> Tensor:
    live = [(p, vjp) for p, vjp in parents if p.requires_grad]
    return Tensor(value, requires_grad=bool(live), _parents=live)


def shared_node(value, upstream, parents) -> Tensor:
    """One node whose parents' vjps share one computation: backward applies the
    functions in upstream to the node's grad g in turn, once, letting go of each
    array as the next is made, and passes the last to the f of each parents
    entry (Tensor, f).  Parents not requiring grad are dropped, as in _node, so
    their f never runs."""
    node = _node(value, parents)
    node._upstream = tuple(upstream)
    return node


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable grad-requiring leaf.

    ``root`` must be scalar.  Each interior node is released once walked: its
    grad, its parents and their vjp closures (with the arrays they captured)
    are dropped, and it is marked consumed, so a graph is walked once and a
    later call that reaches a walked node raises.  Leaves keep their grads.
    A shared_node's grad goes as its shared steps run.
    """
    if root.value.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")

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
        if node._consumed:
            raise RuntimeError("tape consumed twice: backward already walked this graph")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones(())
    while topo:
        node = topo.pop()
        if not node._parents:
            continue
        g, parents, upstream = node.grad, node._parents, node._upstream
        node.grad, node._parents, node._upstream, node._consumed = None, (), (), True
        for step in upstream:
            g = step(g)
        for parent, vjp in parents:
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


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)), so no exp overflows."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


# ---------------------------------------------------------------------------
# matrix products


class Operator:
    """A gradient-free propagation matrix M (dense or sparse) with its
    transpose Mt, built once here (CSR if M is sparse, so pool.sparse_matmul
    can split the vjp's product by rows).

    A training phase wraps its matrix once and hands the Operator to every
    layer it propagates through, so no epoch rebuilds Mᵀ for the vjp.
    """

    __slots__ = ("M", "Mt")

    def __init__(self, M):
        self.M, self.Mt = M, M.T.tocsr() if sp.issparse(M) else M.T


def layer(x: Tensor, W: Tensor, bias: Tensor | None = None, op: Operator | None = None,
          relu: bool = False) -> Tensor:
    """One network layer, [ReLU](op.M · (x·W) [+ bias]), as one node over x, W
    and bias that keeps only x's and W's values and its own.

    The value and each vjp do the arithmetic of the product, propagation, bias
    and ReLU as separate tape ops, bit for bit, through the same pool products,
    but keep none of the products inside the layer.  The ReLU is fmax(·, 0)
    plus 0.0, which turns a -0.0 into +0.0, and its vjp masks by the output's
    positive entries.
    """
    xv, wv = x.value, W.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"layer: {xv.shape} vs {wv.shape}")
    if op is not None and op.M.shape[1] != xv.shape[0]:
        raise ShapeError(f"layer: operator {op.M.shape} vs {xv.shape}")
    if bias is not None and bias.value.shape != (1, wv.shape[1]):
        raise ShapeError(f"layer: bias {bias.value.shape} vs {wv.shape}")
    out = pool.matmul(xv, wv)
    if op is not None:
        out = pool.sparse_matmul(op.M, out)
    if bias is not None:
        out = out + bias.value
    if relu:
        out = np.fmax(out, 0.0)
        out += 0.0

    upstream = []
    if relu:
        upstream.append(lambda g: g * (out > 0))
    if op is not None:
        upstream.append(lambda g: pool.sparse_matmul(op.Mt, g))
    parents = [(x, lambda d: pool.matmul(d, wv.T)), (W, lambda d: pool.matmul(xv.T, d))]
    if bias is not None:
        parents.append((bias, lambda d: d.sum(axis=0, keepdims=True)))
    return shared_node(out, upstream, parents)


# ---------------------------------------------------------------------------
# row reductions and structural ops


def unit_rows(x: np.ndarray):
    """Rows of x scaled to unit L2 norm, denominator floored at NORM_EPS; returns (out, vjp)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    nu = np.maximum(norms, NORM_EPS)
    out = x / nu
    big = norms > NORM_EPS

    def vjp(g):
        # unit-sphere projection where the norm is live, plain 1/NORM_EPS otherwise
        proj = out * (g * out).sum(axis=1, keepdims=True)
        np.subtract(g, proj, out=proj)
        proj /= nu
        return proj if big.all() else np.where(big, proj, g / NORM_EPS)

    return out, vjp


def where_mask(mask: np.ndarray, a, b) -> Tensor:
    """Entrywise merge: mask picks from a, its complement from b.

    Either side may be a plain ndarray; gradients flow only into Tensor
    sides, and only through the entries they supply.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape != b.value.shape or mask.shape != a.value.shape:
        raise ShapeError(f"where_mask: {mask.shape} / {a.value.shape} / {b.value.shape}")
    return _node(np.where(mask, a.value, b.value),
                 [(a, lambda g: g * mask), (b, lambda g: g * ~mask)])


def fused_scalar(value, grads) -> Tensor:
    """One node for a scalar computed with its gradients, grads = [(input, dvalue/dinput)].

    The vjp scales each stored gradient by the upstream scalar; array inputs get none.
    """
    return _node(np.float64(value), [(as_tensor(x), lambda g, d=d: g * d) for x, d in grads])
