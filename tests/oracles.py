"""Reference implementations the tests check the package against.

None of these runs in a pipeline: each is an independent second way to compute
what a package function computes (or to read back what it writes), kept here
so the package ships only code a run executes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from graphcomplete import pool
from graphcomplete.autodiff import (
    Operator, ShapeError, Tensor, _node, add, add_rowvec, as_tensor, backward, constant,
    logistic, mul, unit_rows,
)
from graphcomplete.downstream import evaluate, gcn_forward
from graphcomplete.fusion import init_fusion
from graphcomplete.nn import Optimizer, ParamStore, glorot
from graphcomplete.rng import STREAM_DOWNSTREAM_DROPOUT, STREAM_DOWNSTREAM_INIT, make_rng
from graphcomplete.structure_path import ppnp_hidden, ppnp_output


# ---------------------------------------------------------------------------
# diffusion


def stable_argsort_topk(matrix: np.ndarray, k: int) -> np.ndarray:
    """knn_sparsify's selection by a stable descending argsort: each row's k
    largest entries, ties to the smaller column index, the rest zero."""
    order = np.argsort(-matrix, axis=1, kind="stable")[:, :k]
    out = np.zeros_like(matrix)
    rows = np.repeat(np.arange(matrix.shape[0]), k)
    out[rows, order.ravel()] = matrix[rows, order.ravel()]
    return out


@dataclass(frozen=True)
class PowerIterationResult:
    matrix: np.ndarray
    iterations: int
    converged: bool


def ppr_power_iteration(a_norm: np.ndarray, alpha: float,
                        tol: float = 1e-8, max_iter: int = 1000) -> PowerIterationResult:
    """Iterative diffusion: A_{t+1} = (1-alpha) * a_norm @ A_t + alpha * I from I.

    Kept as the reference the closed form is checked against: every step
    multiplies dense n x n matrices, so it is never the faster solver.  Stops
    when the largest entry change drops below tol.  Hitting max_iter first
    returns the current iterate flagged as unconverged.
    """
    a_norm = np.asarray(a_norm, dtype=np.float64)
    n = a_norm.shape[0]
    eye = np.eye(n)
    current = eye.copy()
    for it in range(1, max_iter + 1):
        nxt = (1.0 - alpha) * (a_norm @ current) + alpha * eye
        delta = np.abs(nxt - current).max()
        current = nxt
        if delta < tol:
            return PowerIterationResult(current, it, True)
    warnings.warn(f"diffusion did not reach tol={tol} in {max_iter} iterations")
    return PowerIterationResult(current, max_iter, False)


# ---------------------------------------------------------------------------
# tape ops no pipeline calls


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b through pool.matmul, the product autodiff.layer fuses."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return _node(pool.matmul(av, bv), [(a, lambda g: pool.matmul(g, bv.T)),
                                       (b, lambda g: pool.matmul(av.T, g))])


def transpose(a: Tensor) -> Tensor:
    return _node(a.value.T, [(a, lambda g: g.T)])


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.value)
    return _node(out, [(a, lambda g: g * out * (1.0 - out))])


def relu(a: Tensor) -> Tensor:
    # branch-free, unlike where(a > 0, a, 0.0); += 0.0 turns fmax's -0.0 into where's +0.0
    out = np.fmax(a.value, 0.0)
    out += 0.0
    return _node(out, [(a, lambda g: g * (out > 0))])


def propagate(op: Operator, x: Tensor) -> Tensor:
    """op.M @ x; the vjp multiplies by the Operator's prebuilt transpose."""
    M, Mt, xv = op.M, op.Mt, x.value
    if xv.ndim != 2 or M.shape[1] != xv.shape[0]:
        raise ShapeError(f"propagate: {M.shape} vs {xv.shape}")
    return _node(pool.sparse_matmul(M, xv), [(x, lambda g: pool.sparse_matmul(Mt, g))])


def tape_layer(x: Tensor, W: Tensor, bias=None, op=None, activate=False) -> Tensor:
    """autodiff.layer(x, W, bias, op, relu=activate) composed from the tape ops
    it fuses, one node each: the layer node must match its value and every
    parent's gradient bit for bit."""
    out = matmul(x, W)
    if op is not None:
        out = propagate(op, out)
    if bias is not None:
        out = add_rowvec(out, bias)
    return relu(out) if activate else out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.value * c, [(a, lambda g: g * c)])


def row_logsumexp(a: Tensor) -> Tensor:
    """Per-row log-sum-exp, returned as an n×1 column."""
    m = a.value.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(a.value - m).sum(axis=1, keepdims=True))
    av = a.value

    def vjp(g):
        return g * np.exp(av - lse)   # g times row softmax

    return _node(lse, [(a, vjp)])


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape
    return _node(a.value.sum(), [(a, lambda g: g * np.ones(shape))])


def tape_cross_entropy(logits: Tensor, labels: np.ndarray, idx: np.ndarray,
                       num_classes: int) -> Tensor:
    """Mean softmax cross-entropy over the given nodes, composed from tape ops.

    The fused downstream.cross_entropy_loss must match its loss and gradient
    bit for bit."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty train split")
    n = logits.value.shape[0]
    onehot = np.zeros((n, num_classes))
    onehot[idx, labels[idx]] = 1.0
    w = np.zeros((n, 1))
    np.add.at(w[:, 0], idx, 1.0 / idx.size)
    picked = matmul(mul(logits, constant(onehot)), constant(np.ones((num_classes, 1))))
    per_node = add(row_logsumexp(logits), scale(picked, -1.0))
    return sum_all(mul(per_node, constant(w)))


def mul_colvec(a: Tensor, c: Tensor) -> Tensor:
    """a (n×m) scaled per row by a column c (n×1)."""
    if c.value.shape != (a.value.shape[0], 1):
        raise ShapeError(f"mul_colvec: {a.value.shape} vs {c.value.shape}")
    av, cv = a.value, c.value
    return _node(
        av * cv,
        [(a, lambda g: g * cv), (c, lambda g: (g * av).sum(axis=1, keepdims=True))],
    )


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)
    return _node(out, [(a, lambda g: g * (1.0 - out * out))])


def row_softmax(a: Tensor) -> Tensor:
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return out * (g - (g * out).sum(axis=1, keepdims=True))

    return _node(out, [(a, vjp)])


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


def _gate(view: Tensor, store: ParamStore, side: str) -> Tensor:
    """tanh(view·(W·s) + b·s): W·s and b·s first, so the view meets one column."""
    score = store[f"fusion.score_{side}"]
    return tanh(add_rowvec(matmul(view, matmul(store[f"fusion.proj_{side}.W"], score)),
                           matmul(store[f"fusion.proj_{side}.b"], score)))


def tape_attention_fuse(feature_view, structure_view, store: ParamStore):
    """Attention fusion composed from tape ops: (fused, weights), both tape tensors.

    The fused fusion.attention_fuse must match its rows, weights and the
    gradients into the six fusion parameters bit for bit."""
    x, z = as_tensor(feature_view), as_tensor(structure_view)
    if x.value.shape != z.value.shape:
        raise ShapeError(f"views differ: {x.value.shape} vs {z.value.shape}")
    gates = concat_cols(_gate(x, store, "f"), _gate(z, store, "s"))
    weights = row_softmax(gates)
    fused = add(mul_colvec(x, slice_cols(weights, 0, 1)),
                mul_colvec(z, slice_cols(weights, 1, 2)))
    return fused, weights


# ---------------------------------------------------------------------------
# gradients and kernels


def finite_diff_grad(loss_fn, store: ParamStore, eps: float = 1e-5,
                     names=None) -> dict[str, np.ndarray]:
    """Central-difference gradients, entry by entry.

    loss_fn must be a pure function of the store's current values.  This is
    deliberately independent of the tape: it calls loss_fn 2·(entry count)
    times and never inspects analytic gradients.
    """
    grads = {}
    for name in (names if names is not None else store.names()):
        value = store[name].value
        g = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = value[idx]
            value[idx] = orig + eps
            lp = float(loss_fn())
            value[idx] = orig - eps
            lm = float(loss_fn())
            value[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise FloatingPointError(f"non-finite loss while probing {name}{idx}")
            g[idx] = (lp - lm) / (2.0 * eps)
            it.iternext()
        grads[name] = g
    return grads


def cosine_matrix(U: np.ndarray, V: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """S[i][j] = cosine of U row i with V row j, zero rows floored at eps."""
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise ShapeError(f"cosine_matrix: {U.shape} vs {V.shape}")
    un = U / np.maximum(np.linalg.norm(U, axis=1, keepdims=True), eps)
    vn = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), eps)
    return un @ vn.T


def row_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm, flooring the denominator at NORM_EPS."""
    out, vjp = unit_rows(a.value)
    return _node(out, [(a, vjp)])


def serial_contrastive_terms(X, P, targets, temperature, block_rows):
    """Both contrastive terms as one plain loop over row blocks, the sums
    across blocks taken in block order: ((feature loss, dX, dP), (structure
    loss, dX)).  The blocks compute in float32 from objective.F32_ROWS nodes
    on, into float64 sums.  The package's terms must match these bit for bit
    however their blocks are scheduled."""
    from graphcomplete.objective import _block_dtype, _infonce_block
    dtype = _block_dtype(len(X))
    u, u_vjp = unit_rows(X)
    v, v_vjp = unit_rows(P)
    rows, du, dv = np.empty(len(u)), np.empty_like(u), np.zeros_like(v)
    u, v = u.astype(dtype), v.astype(dtype)
    for r0 in range(0, len(u), block_rows):
        blk = slice(r0, r0 + block_rows)
        rows[blk], ds = _infonce_block(u[blk] @ v.T, r0, temperature)
        du[blk] = ds @ v
        dv += ds.T @ u[blk]
    feature = (rows.sum(), u_vjp(du), v_vjp(dv))
    rows, dx = np.empty(len(X)), np.zeros_like(X)
    X, targets = X.astype(dtype), targets.astype(dtype)
    targets_t = targets.T
    for r0 in range(0, len(X), block_rows):
        blk = slice(r0, r0 + block_rows)
        a = logistic(X[blk] @ X.T)
        a_hat, a_vjp = unit_rows(a)
        rows[blk], ds = _infonce_block(np.asarray(targets @ a_hat.T).T, r0, temperature)
        dg = a_vjp(np.asarray(targets_t @ ds.T).T) * a * (1.0 - a)
        dx[blk] += dg @ X
        dx += dg.T @ X[blk]
    return feature, (rows.sum(), dx)


# ---------------------------------------------------------------------------
# classifier


def fit_downstream_two_forwards(x_view, z_view, a_norm, labels_trainval, num_classes,
                                train_idx, val_idx, cfg, seed):
    """The classifier fit with two whole forwards per epoch, each from the inputs.

    Same contract and return value as downstream._fit_downstream, which shares
    one lower layer between the validation forward after a step and the next
    epoch's training forward; this loop rebuilds fusion and both layers for each,
    and takes its fusion and its loss from the tape compositions, not the fused nodes.
    Without fusion the lower layer's input is the constant A·X, propagated once,
    and that layer has no operator, as in the package's baseline.
    """
    n, d = x_view.shape
    use_fusion = z_view is not None
    op = Operator(a_norm)
    init_rng = make_rng(seed, STREAM_DOWNSTREAM_INIT)
    drop_rng = make_rng(seed, STREAM_DOWNSTREAM_DROPOUT)
    store = ParamStore()
    store.add("gcn.W0", glorot(init_rng, d, cfg.gcn_hidden))
    store.add("gcn.W1", glorot(init_rng, cfg.gcn_hidden, num_classes))
    if use_fusion:
        init_fusion(store, d, cfg.attention_dim, init_rng)
    optim = Optimizer(store, cfg.down_lr, cfg.down_weight_decay)

    ax = None if use_fusion else pool.sparse_matmul(op.M, x_view)

    def forward(dropout=0.0, rng=None) -> Tensor:
        if use_fusion:
            return gcn_forward(op, tape_attention_fuse(x_view, z_view, store)[0], store,
                               dropout=dropout, rng=rng)
        hidden = ppnp_hidden(None, constant(ax), store, "gcn")
        return ppnp_output(op, hidden, store, "gcn", dropout, rng)

    def eval_logits() -> np.ndarray:
        return forward().value

    logits0 = eval_logits()
    best = {"val": evaluate(logits0, labels_trainval, val_idx), "epoch": -1,
            "logits": logits0, "params": store.snapshot()}
    curve = []
    since_best = 0
    for epoch in range(cfg.down_max_epochs):
        logits = forward(cfg.down_dropout, drop_rng)
        loss = tape_cross_entropy(logits, labels_trainval, train_idx, num_classes)
        curve.append(float(loss.value))
        backward(loss)
        optim.step()
        logits_eval = eval_logits()
        val_acc = evaluate(logits_eval, labels_trainval, val_idx)
        if val_acc > best["val"]:
            best = {"val": val_acc, "epoch": epoch,
                    "logits": logits_eval, "params": store.snapshot()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.down_patience:
                break
    store.restore(best["params"])
    weights = tape_attention_fuse(x_view, z_view, store)[1].value if use_fusion else None
    return store, best, tuple(curve), weights


# ---------------------------------------------------------------------------
# artifacts


def read_embeddings(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            rows.append([float(v) for v in parts[1:]])
    return np.asarray(rows, dtype=np.float64)
