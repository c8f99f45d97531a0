"""Reverse-mode automatic differentiation over a fixed set of dense ops.

The training graphs in this package are static: the same sequence of matrix
products, activations and row reductions every epoch.  A general autodiff
system is not needed, so this module implements the smallest correct one: a
``Tensor`` records its parents together with vector-Jacobian closures, and
``backward`` walks the graph once in reverse topological order.

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


def as_tensor(x) -> Tensor:
    """The one array-or-Tensor coercion: x itself if a Tensor, else a gradient-free leaf."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents) -> Tensor:
    live = [(p, vjp) for p, vjp in parents if p.requires_grad]
    return Tensor(value, requires_grad=bool(live), _parents=live)


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable grad-requiring leaf.

    ``root`` must be scalar.  A graph can be walked once; a second call on
    the same root raises.  Interior grads are freed once spent; leaves keep theirs.
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
        if node._parents:
            node.grad = None


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


def relu(a: Tensor) -> Tensor:
    # branch-free, unlike where(a > 0, a, 0.0); += 0.0 turns fmax's -0.0 into where's +0.0
    out = np.fmax(a.value, 0.0)
    out += 0.0
    return _node(out, [(a, lambda g: g * (out > 0))])


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)), so no exp overflows."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.value)
    return _node(out, [(a, lambda g: g * out * (1.0 - out))])


# ---------------------------------------------------------------------------
# matrix products


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    # the forward and both vjps make the same number of multiply-adds
    if av.shape[0] * av.shape[1] * bv.shape[1] <= pool.DENSE_SPLIT:
        return _node(av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])
    return _node(pool.matmul_rows(av, bv), [(a, lambda g: pool.matmul_rows(g, bv.T)),
                                            (b, lambda g: pool.matmul_rows(av.T, g))])


class Operator:
    """A gradient-free propagation matrix M (dense or sparse) with its
    transpose Mt, built once here.

    A training phase wraps its matrix once and hands the Operator to every
    propagate call, so no epoch rebuilds Mᵀ for the vjp.  For a float64 CSR
    M, whose large products propagate splits by rows, nnz is M's stored
    entries and Mt_csr the transpose as CSR, which sums each row in the order
    Mt (CSC) scatters it; otherwise nnz is 0 and Mt_csr None.
    """

    __slots__ = ("M", "Mt", "Mt_csr", "nnz")

    def __init__(self, M):
        self.M, self.Mt = M, M.T
        csr = sp.issparse(M) and M.format == "csr" and M.dtype == np.float64
        # the unsplit vjp keeps Mt: at the classifier's shapes its product is faster
        self.Mt_csr = sp.csr_array(self.Mt) if csr else None
        self.nnz = M.nnz if csr else 0


def propagate(op: Operator, x: Tensor) -> Tensor:
    """op.M @ x; the vjp multiplies by the Operator's prebuilt transpose."""
    M, Mt, xv = op.M, op.Mt, x.value
    if xv.ndim != 2 or M.shape[1] != xv.shape[0]:
        raise ShapeError(f"propagate: {M.shape} vs {xv.shape}")
    if op.nnz * xv.shape[1] <= pool.SPARSE_SPLIT:
        return _node(np.asarray(M @ xv), [(x, lambda g: np.asarray(Mt @ g))])
    Mt_csr = op.Mt_csr
    return _node(pool.csr_rows(M, xv), [(x, lambda g: pool.csr_rows(Mt_csr, g))])


def transpose(a: Tensor) -> Tensor:
    return _node(a.value.T, [(a, lambda g: g.T)])


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
