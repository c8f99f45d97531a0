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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .autodiff import Tensor, add, fused_scalar, logistic, unit_rows

NORM_EPS = 1e-12
BLOCK_ROWS = 64


@dataclass(frozen=True)
class ContrastiveConfig:
    """temperature scales the similarities; the diagonal is always the positive."""

    temperature: float = 0.5

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature {self.temperature} must be positive")


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unit_rows_const(m, eps: float = NORM_EPS) -> sp.csr_array:
    """Row-normalize a gradient-free matrix, dense or sparse, into CSR."""
    m = sp.csr_array(m, dtype=np.float64)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    return sp.csr_array(sp.diags_array(1.0 / np.maximum(norms, eps)) @ m)


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
    u, u_vjp = unit_rows(_value(completed), NORM_EPS)
    v, v_vjp = unit_rows(_value(propagated), NORM_EPS)
    rows = np.empty(len(u))
    du = np.empty_like(u)
    dv = np.zeros_like(v)
    for r0 in range(0, len(u), BLOCK_ROWS):
        blk = slice(r0, r0 + BLOCK_ROWS)
        rows[blk], ds = _infonce_block(u[blk] @ v.T, r0, temperature)
        du[blk] = ds @ v
        dv += ds.T @ u[blk]
    return fused_scalar(rows.sum(), [(completed, u_vjp(du)), (propagated, v_vjp(dv))])


def structure_contrastive_loss(completed, diffusion, temperature: float) -> Tensor:
    """InfoNCE between decoded adjacency rows and sparsified diffusion rows.

    sigmoid(X Xᵀ) is decoded from the completed features X one row block at
    a time.  The diffusion is a constant, row-normalized off the tape.
    """
    x = _value(completed)
    rows_const = _unit_rows_const(diffusion)
    rows = np.empty(len(x))
    dx = np.zeros_like(x)
    for r0 in range(0, len(x), BLOCK_ROWS):
        blk = slice(r0, r0 + BLOCK_ROWS)
        a = logistic(x[blk] @ x.T)
        a_hat, a_vjp = unit_rows(a, NORM_EPS)
        rows[blk], ds = _infonce_block(np.asarray(rows_const @ a_hat.T).T, r0, temperature)
        dg = a_vjp(np.asarray(ds @ rows_const)) * a * (1.0 - a)
        dx[blk] += dg @ x
        dx += dg.T @ x[blk]
    return fused_scalar(rows.sum(), [(completed, dx)])


def total_contrastive_loss(completed, propagated, diffusion,
                           config: ContrastiveConfig) -> tuple[Tensor, Tensor, Tensor]:
    """Sum of the two terms; returns (total, feature term, structure term)."""
    l_f = feature_contrastive_loss(completed, propagated, config.temperature)
    l_s = structure_contrastive_loss(completed, diffusion, config.temperature)
    return add(l_f, l_s), l_f, l_s
