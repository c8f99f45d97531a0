"""Dual contrastive objective aligning the two reconstruction paths.

Both terms are the standard negative-log softmax (InfoNCE) over cosine
similarities at a temperature: the feature term matches each node's
completed feature row against its propagated representation, and the
structure term matches each node's decoded adjacency row, sigmoid(X Xᵀ),
against its sparsified diffusion row.  Positives sit on the diagonal; every
other node is a negative.

Each term is one tape op that walks the similarity matrix in blocks of
BLOCK_ROWS rows, computing loss and exact gradient in one pass (as in
FlashAttention, Dao et al. 2022): no working array exceeds BLOCK_ROWS × n.
Given 4 or more blocks and spare cores, the calling thread shares them with
the idle threads of the package's one compute pool (pool._row_blocks), so
concurrent cells never wait on each other's blocks.  Each block writes only
its own rows and returns its partial sums, which the caller adds in block
order as the serial loop did, so the threads change no bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .autodiff import (
    NORM_EPS, ShapeError, Tensor, add, as_tensor, fused_scalar, logistic, unit_rows,
)
from .pool import _row_blocks

BLOCK_ROWS = 64


def structure_targets(diffusion) -> sp.csr_array:
    """The structure term's targets: the gradient-free diffusion, dense or
    sparse, row-normalized into CSR (zero rows floored at NORM_EPS).

    The diffusion is constant through training, so a training phase builds
    this once and passes it to every structure_contrastive_loss call."""
    m = sp.csr_array(diffusion, dtype=np.float64)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    return sp.csr_array(sp.diags_array(1.0 / np.maximum(norms, NORM_EPS)) @ m)


def _infonce_block(sim: np.ndarray, r0: int, temperature: float):
    """For similarity rows r0, r0+1, ... in sim: each row's log-sum-exp minus
    its diagonal entry at the temperature, and d(their sum)/d sim.  sim is
    scaled in place."""
    c = 1.0 / temperature
    sim *= c
    m = sim.max(axis=1, keepdims=True)
    ds = np.exp(sim - m)
    total = ds.sum(axis=1, keepdims=True)
    diag = (np.arange(sim.shape[0]), r0 + np.arange(sim.shape[0]))
    rows = (m + np.log(total))[:, 0] - sim[diag]
    ds /= total
    ds[diag] -= 1.0
    ds *= c
    return rows, ds


def feature_contrastive_loss(completed, propagated, temperature: float) -> Tensor:
    """InfoNCE between completed feature rows and propagated representations."""
    x, p = as_tensor(completed).value, as_tensor(propagated).value
    if x.shape != p.shape:
        raise ShapeError(f"feature_contrastive_loss: {x.shape} vs {p.shape}")
    u, u_vjp = unit_rows(x)
    v, v_vjp = unit_rows(p)
    rows = np.empty(len(u))
    du = np.empty_like(u)
    dv = np.zeros_like(v)

    def block(r0):
        blk = slice(r0, r0 + BLOCK_ROWS)
        rows[blk], ds = _infonce_block(u[blk] @ v.T, r0, temperature)
        du[blk] = ds @ v
        return ds, ds.T @ u[blk]

    # each ds stays alive through the next block, as in a plain loop: freed at
    # once, glibc trims and refaults it every block (14x the page faults at n=4000)
    for ds, part in _row_blocks(block, len(u), BLOCK_ROWS):
        dv += part
    return fused_scalar(rows.sum(), [(completed, u_vjp(du)), (propagated, v_vjp(dv))])


def structure_contrastive_loss(completed, targets, temperature: float) -> Tensor:
    """InfoNCE between decoded adjacency rows and sparsified diffusion rows.

    sigmoid(X Xᵀ) is decoded from the completed features X one row block at
    a time.  targets is structure_targets(diffusion), built once per phase;
    its transpose is built once per call and shared by every row block.
    """
    x = as_tensor(completed).value
    if targets.shape != (len(x), len(x)):
        raise ShapeError(f"structure_contrastive_loss: {x.shape} vs targets {targets.shape}")
    targets_t = targets.T
    rows = np.empty(len(x))
    dx = np.zeros_like(x)

    def block(r0):
        blk = slice(r0, r0 + BLOCK_ROWS)
        a = logistic(x[blk] @ x.T)
        a_hat, a_vjp = unit_rows(a)
        rows[blk], ds = _infonce_block(np.asarray(targets @ a_hat.T).T, r0, temperature)
        dg = a_vjp(np.asarray(targets_t @ ds.T).T) * a * (1.0 - a)
        return blk, dg @ x, dg.T @ x[blk]

    for blk, own, spread in _row_blocks(block, len(x), BLOCK_ROWS):
        dx[blk] += own
        dx += spread
    return fused_scalar(rows.sum(), [(completed, dx)])


def total_contrastive_loss(completed, propagated, targets,
                           temperature: float) -> tuple[Tensor, Tensor, Tensor]:
    """Sum of the two terms, targets = structure_targets(diffusion); returns
    (total, feature term, structure term)."""
    if not temperature > 0:
        raise ValueError(f"temperature {temperature} must be positive")
    l_f = feature_contrastive_loss(completed, propagated, temperature)
    l_s = structure_contrastive_loss(completed, targets, temperature)
    return add(l_f, l_s), l_f, l_s
