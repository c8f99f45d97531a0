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
Given 4 or more blocks, _blocks hands them to the package's one compute
pool runner (pool._row_blocks): the caller and the idle pool threads each
take the next block nobody has taken, so concurrent cells never wait on
each other's blocks and no thread idles while the caller adds; fewer run
in a plain map.  Each block writes only its own rows and returns its
partial sums, which the runner yields in block order and the caller adds
as the serial loop did, so the threads change no bit.

From F32_ROWS nodes on, the row blocks compute in float32 (the mixed
precision of Micikevicius et al. 2018): the feature term's unit rows, and
the structure term's features and targets, are cast once per call.  Each
block makes about 30 elementwise passes over a BLOCK_ROWS × n array, so the
terms are bound by memory traffic and exp; in float32 each term takes about
half its float64 time at n=2000.  Loss rows and partial sums still land
in the float64 accumulators, in block order, so the precision depends on n
alone, never on the threads.  Everything around the blocks (the unit-row
vjps, the tape, the parameters) stays float64.  Against the float64 blocks
the loss differs by at most 1e-7 relative and the gradient by at most 1e-5
norm-wise (tests/test_objective.py pins both, at input scales 0.3-4.5 and
temperatures 0.1-0.5).  Below F32_ROWS the blocks stay float64: there a
float32 loss is too coarse for a central-difference gradient check, which
read a relative error of 1.36 at n=6, and there is little time to save.  Since
float32 overflows sooner, the structure term refuses features whose Gram
bound, max|x|² · d, exceeds float32's range, where float64 would still give
a finite loss.

F32_ROWS governs a second step: structure_path.ppr_closed_form solves the
diffusion in float32 from F32_ROWS nodes on (for alpha of at least
structure_path.F32_MIN_ALPHA), so one size rule sets the precision of both.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .autodiff import (
    NORM_EPS, ShapeError, Tensor, add, as_tensor, fused_scalar, logistic, unit_rows,
)
from .pool import _row_blocks

BLOCK_ROWS = 64
F32_ROWS = 256   # from this many nodes (4 row blocks, as for the pool) these blocks run in float32,
                 # and so does structure_path's diffusion solve


def _check_temperature(temperature: float) -> None:
    if not temperature > 0:
        raise ValueError(f"temperature {temperature} must be positive")


def _block_dtype(n: int):
    return np.float32 if n >= F32_ROWS else np.float64


def _blocks(block, n: int):
    """map(block, each row block's first row), on the pool given 4 or more."""
    starts = range(0, n, BLOCK_ROWS)
    return (_row_blocks if len(starts) >= 4 else map)(block, starts)


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
    _check_temperature(temperature)
    x, p = as_tensor(completed).value, as_tensor(propagated).value
    if x.shape != p.shape:
        raise ShapeError(f"feature_contrastive_loss: {x.shape} vs {p.shape}")
    u, u_vjp = unit_rows(x)
    v, v_vjp = unit_rows(p)
    rows = np.empty(len(u))
    du = np.empty_like(u)
    dv = np.zeros_like(v)
    u, v = (a.astype(_block_dtype(len(a)), copy=False) for a in (u, v))

    def block(r0):
        blk = slice(r0, r0 + BLOCK_ROWS)
        rows[blk], ds = _infonce_block(u[blk] @ v.T, r0, temperature)
        du[blk] = ds @ v
        return ds, ds.T @ u[blk]

    # each ds stays alive through the next block, as in a plain loop: freed at
    # once, glibc trims and refaults it every block (14x the page faults at n=4000)
    for ds, part in _blocks(block, len(u)):
        dv += part
    return fused_scalar(rows.sum(), [(completed, u_vjp(du)), (propagated, v_vjp(dv))])


def structure_contrastive_loss(completed, targets, temperature: float) -> Tensor:
    """InfoNCE between decoded adjacency rows and sparsified diffusion rows.

    sigmoid(X Xᵀ) is decoded from the completed features X one row block at
    a time.  targets is structure_targets(diffusion), built once per phase;
    its transpose is built once per call and shared by every row block.
    """
    _check_temperature(temperature)
    x = as_tensor(completed).value
    if targets.shape != (len(x), len(x)):
        raise ShapeError(f"structure_contrastive_loss: {x.shape} vs targets {targets.shape}")
    rows = np.empty(len(x))
    dx = np.zeros_like(x)
    dtype = _block_dtype(len(x))
    if dtype is np.float32:
        peak = float(np.abs(x).max(initial=0.0))
        bound, top = peak * peak * x.shape[1], float(np.finfo(np.float32).max)
        if bound > top:   # a Gram entry could overflow
            raise ValueError(
                f"structure_contrastive_loss: max|x|^2 * d = {bound:.4g} exceeds float32's "
                f"range {top:.4g}; from {F32_ROWS} nodes on its row blocks compute in float32")
    x, targets = x.astype(dtype, copy=False), targets.astype(dtype, copy=False)
    targets_t = targets.T

    def block(r0):
        blk = slice(r0, r0 + BLOCK_ROWS)
        a = logistic(x[blk] @ x.T)
        a_hat, a_vjp = unit_rows(a)
        rows[blk], ds = _infonce_block(np.asarray(targets @ a_hat.T).T, r0, temperature)
        dg = a_vjp(np.asarray(targets_t @ ds.T).T) * a * (1.0 - a)
        return blk, dg @ x, dg.T @ x[blk]

    for blk, own, spread in _blocks(block, len(x)):
        dx[blk] += own
        dx += spread
    return fused_scalar(rows.sum(), [(completed, dx)])


def total_contrastive_loss(completed, propagated, targets,
                           temperature: float) -> tuple[Tensor, Tensor, Tensor]:
    """Sum of the two terms, targets = structure_targets(diffusion); returns
    (total, feature term, structure term).  Each term checks the temperature."""
    l_f = feature_contrastive_loss(completed, propagated, temperature)
    l_s = structure_contrastive_loss(completed, targets, temperature)
    return add(l_f, l_s), l_f, l_s
