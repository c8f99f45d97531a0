"""Reconstruction driver and downstream node classification.

The pipeline has two phases.  The self-supervised phase trains the imputer,
the positional embeddings, and the propagation weights against the dual
contrastive objective; the sparsified diffusion stays a gradient-free
constant throughout.  The supervised phase freezes those reconstructions,
then jointly trains the attention fusion and a two-layer graph-convolution
classifier with masked cross-entropy, early-stopping on validation accuracy.

Both phases read their settings from one ExperimentConfig (the object the
command line builds too) and pass its values on as plain arguments.
run_reconstruction, train_downstream and train_gcn_baseline make their BLAS
calls on one thread (pool.one_blas_thread), so their results do not depend
on OPENBLAS_NUM_THREADS.

Test labels are structurally out of reach of training code: the fit routine
receives a label array with test entries redacted, and test accuracy is
computed only afterwards, from frozen logits.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse as sp

from . import pool
from .autodiff import Operator, Tensor, backward, fused_scalar
from .data import GraphDataset, Splits
# decode_structure is unused here but stays bound: perfbench/layers.py wraps it
from .feature_path import decode_structure, impute_features  # noqa: F401
from .fusion import attention_fuse, init_fusion
from .nn import Optimizer, ParamStore, glorot, init_mlp2, mask_at
from .objective import structure_targets, total_contrastive_loss
from .pool import one_blas_thread, sparse_matmul
from .rng import (
    STREAM_DOWNSTREAM_DROPOUT,
    STREAM_DOWNSTREAM_INIT,
    STREAM_DROPOUT,
    STREAM_INIT,
    make_rng,
)
from .structure_path import (
    build_diffusion,
    init_ppnp,
    normalize_adjacency,
    positional_features,
    ppnp_forward,
    ppnp_hidden,
    ppnp_output,
    symmetric_normalize,
)

if TYPE_CHECKING:   # experiment imports this module, so only type checkers import it back
    from .experiment import ExperimentConfig


@dataclass(frozen=True)
class ReconState:
    """Final products of the reconstruction phase.

    imputed: (n, d) completed features, observed entries bit-equal to input;
        decode_structure(imputed) gives the feature path's soft adjacency.
    diffusion_topk: sparse (n, n) top-k diffusion, the propagation matrix.
    propagated: (n, d) structure-path node representations.
    loss_history: (epochs, 3) feature term, structure term, total per epoch.
    """

    imputed: np.ndarray
    diffusion_topk: sp.csr_array
    propagated: np.ndarray
    loss_history: np.ndarray
    params: ParamStore = field(repr=False)


@dataclass(frozen=True)
class Metrics:
    """Per-run outcome: split accuracies, training curve, best epoch."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    loss_curve: tuple
    best_epoch: int


@dataclass(frozen=True)
class DownstreamResult:
    metrics: Metrics
    logits: np.ndarray
    fusion_weights: np.ndarray | None
    store: ParamStore = field(repr=False)


# ---------------------------------------------------------------------------
# reconstruction phase


@one_blas_thread()
def run_reconstruction(ds: GraphDataset, cfg: ExperimentConfig, seed: int) -> ReconState:
    """Train both reconstruction paths against the contrastive objective.

    Reads cfg's diffusion (alpha, k), temperature, width, epochs and recon_*
    keys.  Returns the final reconstructions computed without dropout under
    the trained parameters.  With epochs=0 this is the initial-parameter state.
    """
    n, d = ds.features.shape
    if not ds.feature_mask.any():
        warnings.warn("run_reconstruction: no feature entry is observed, so the imputer "
                      "sees all-zero input and maps every node to the same row; the "
                      "completed features carry no node information", RuntimeWarning,
                      stacklevel=2)
    topk = build_diffusion(ds.edges, n, cfg.alpha, cfg.k)
    # constant through training: built once, shared by every epoch
    op = Operator(topk)
    targets = structure_targets(topk)

    init_rng = make_rng(seed, STREAM_INIT)
    drop_rng = make_rng(seed, STREAM_DROPOUT)
    store = ParamStore()
    init_mlp2(store, "imputer", (d, cfg.imputer_hidden, d), init_rng)
    store.add("pos.W", glorot(init_rng, n, cfg.pe_hidden))
    store.add("pos.b", np.zeros((1, cfg.pe_hidden)))
    init_ppnp(store, "ppnp", (cfg.pe_hidden, cfg.ppnp_hidden, d), init_rng)
    optim = Optimizer(store, cfg.recon_lr, cfg.recon_weight_decay)

    history = np.zeros((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        completed = impute_features(ds.features, ds.feature_mask, store,
                                    dropout=cfg.recon_dropout, rng=drop_rng)
        # the embeddings go straight in: only the tape holds them, and backward frees them
        propagated = ppnp_forward(op, positional_features(n, store), store,
                                  dropout=cfg.recon_dropout, rng=drop_rng)
        total, l_f, l_s = total_contrastive_loss(completed, propagated, targets,
                                                 cfg.temperature)
        if not np.isfinite(total.value):
            raise FloatingPointError(f"non-finite reconstruction loss at epoch {epoch}")
        history[epoch] = (float(l_f.value), float(l_s.value), float(total.value))
        backward(total)
        optim.step()
        # backward released this epoch's tape; the outputs it left go here, after
        # the step: freed before it, a run took twice the minor page faults
        del completed, propagated, total, l_f, l_s

    completed = impute_features(ds.features, ds.feature_mask, store)
    propagated = ppnp_forward(op, positional_features(n, store), store)
    return ReconState(
        imputed=completed.value,
        diffusion_topk=topk,
        propagated=propagated.value,
        loss_history=history,
        params=store,
    )


# ---------------------------------------------------------------------------
# classifier


# the classifier is the structure path's net over its own operator and weights
gcn_forward = partial(ppnp_forward, prefix="gcn")


def _split_labels(labels: np.ndarray, idx, num_classes: int, split: str):
    """(idx, labels[idx]) for a non-empty split whose every label is one of the classes."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError(f"empty {split} split")
    y = labels[idx]
    bad = (y < 0) | (y >= num_classes)
    if bad.any():
        raise ValueError(f"unlabeled or out-of-range label {y[bad][0]} at node "
                         f"{idx[bad][0]} in {split} split ({num_classes} classes)")
    return idx, y


def cross_entropy_loss(logits: Tensor, labels: np.ndarray, idx: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the idx nodes as one tape node with its exact
    gradient, summed over an n×1 column weighted 1/|idx| per time a node is
    listed in idx (so the mean counts a repeated node as often as evaluate
    does) and 0 elsewhere."""
    z = logits.value
    n, c = z.shape
    idx, y = _split_labels(labels, idx, c, "train")
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    w = np.zeros((n, 1))
    np.add.at(w[:, 0], idx, 1.0 / idx.size)
    picked = np.zeros((n, 1))
    picked[idx, 0] = z[idx, y]
    grad = w * np.exp(z - lse)
    grad[idx, y] -= w[idx, 0]
    return fused_scalar(((lse - picked) * w).sum(), [(logits, grad)])


def evaluate(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    """Fraction of idx nodes whose argmax logit matches the label.

    argmax takes the first maximum, so ties resolve toward the smaller
    class index.  A label below 0 or at least the logits' class count raises,
    as in cross_entropy_loss.
    """
    idx, y = _split_labels(labels, idx, logits.shape[1], "evaluation")
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == y))


def downstream_propagation_matrix(diffusion_topk) -> sp.csr_array:
    """Symmetrize the sparsified diffusion and symmetric_normalize it.

    Top-k selection breaks symmetry, and the classifier assumes a symmetric
    operator, so entries are reconciled with an elementwise maximum first.
    The diffusion's own diagonal keeps every row sum positive.
    """
    m = sp.csr_array(diffusion_topk)
    return symmetric_normalize(m.maximum(m.T))


def _fit_downstream(x_view: np.ndarray, z_view: np.ndarray | None, a_norm,
                    labels_trainval: np.ndarray, num_classes: int,
                    train_idx: np.ndarray, val_idx: np.ndarray,
                    cfg: ExperimentConfig, seed: int):
    """Train fusion (when z_view is given) plus the classifier, reading cfg's
    gcn_hidden, attention_dim and down_* keys.

    labels_trainval must have test entries redacted to -1; this function
    never sees a test label.  Model selection is best validation accuracy
    with the configured patience.  Returns the checkpointed best state.
    a_norm's Operator (its transpose) is built once, for every epoch's
    training and evaluation forwards.  Everything below the dropout (fusion,
    ReLU(A·X·W0)) is built once per parameter state: the validation forward
    after a step and the next epoch's training forward share it on the tape.
    Without fusion X is a constant, so A·X is computed once per fit and the
    lower layer is ReLU((A·X)·W0), with no propagation forward or backward.
    A dropout mask of at least pool.DRAW_AHEAD entries is its epoch's item in
    the pool's runner (pool._row_blocks, at most two items at once), so an
    idle pool thread draws the masks of the epochs ahead, the same bits as the
    sequential generator smaller masks use (nn.mask_at); no mask is drawn past
    the last budgeted epoch, and after an early stop or a raise the draw in
    flight is awaited and the thread given back.
    """
    n, d = x_view.shape
    use_fusion = z_view is not None
    op = Operator(a_norm)
    if not use_fusion:   # a constant input: propagated here, once
        x_view = sparse_matmul(op.M, x_view)
    init_rng = make_rng(seed, STREAM_DOWNSTREAM_INIT)
    if n * cfg.gcn_hidden >= pool.DRAW_AHEAD:
        masks = contextlib.closing(pool._row_blocks(
            partial(mask_at, seed, STREAM_DOWNSTREAM_DROPOUT, shape=(n, cfg.gcn_hidden),
                    rate=cfg.down_dropout),
            range(cfg.down_max_epochs), at_once=2))
    else:
        masks = contextlib.nullcontext(make_rng(seed, STREAM_DOWNSTREAM_DROPOUT))

    store = ParamStore()
    # classifier params first: a fusion-free baseline draws identical values
    init_ppnp(store, "gcn", (d, cfg.gcn_hidden, num_classes), init_rng)
    if use_fusion:
        init_fusion(store, d, cfg.attention_dim, init_rng)
    optim = Optimizer(store, cfg.down_lr, cfg.down_weight_decay)

    def hidden_and_eval_logits() -> tuple[Tensor, np.ndarray]:
        x = attention_fuse(x_view, z_view, store).fused if use_fusion else x_view
        hidden = ppnp_hidden(op if use_fusion else None, x, store, "gcn")
        return hidden, ppnp_output(op, hidden, store, "gcn").value

    hidden, logits0 = hidden_and_eval_logits()
    best = {
        "val": evaluate(logits0, labels_trainval, val_idx),
        "epoch": -1,
        "logits": logits0,
        "params": store.snapshot(),
    }
    curve = []
    since_best = 0
    with masks as drop_rng:
        for epoch in range(cfg.down_max_epochs):
            logits = ppnp_output(op, hidden, store, "gcn", cfg.down_dropout, drop_rng)
            loss = cross_entropy_loss(logits, labels_trainval, train_idx)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite classifier loss at epoch {epoch}")
            curve.append(float(loss.value))
            backward(loss)
            optim.step()
            del hidden, logits, loss   # free this epoch's tape before the next one is built

            hidden, logits_eval = hidden_and_eval_logits()
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
    weights = attention_fuse(x_view, z_view, store).weights if use_fusion else None
    return store, best, tuple(curve), weights


def _check_splits(splits: Splits, n: int) -> None:
    """Every split id an integer in [0, n), and no node in two splits."""
    names = ("train", "val", "test")
    owner = np.full(n, -1)
    for j, name in enumerate(names):
        idx = np.asarray(getattr(splits, name))
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"{name} split id {idx.flat[0]} is not an integer "
                             f"(dtype {idx.dtype})")
        outside = (idx < 0) | (idx >= n)
        if outside.any():
            raise ValueError(f"node {idx[outside][0]} in {name} split is outside [0, {n})")
        taken = owner[idx] >= 0
        if taken.any():
            node = idx[taken][0]
            raise ValueError(f"node {node} is in both the {names[owner[node]]} and "
                             f"{name} splits")
        owner[idx] = j


def _fit_and_score(x_view: np.ndarray, z_view: np.ndarray | None, a_norm,
                   labels: np.ndarray | None, num_classes: int, splits: Splits,
                   cfg: ExperimentConfig, seed: int) -> DownstreamResult:
    """Fit on test-redacted labels, then score the frozen best checkpoint."""
    if labels is None:
        raise ValueError("no labels: the classifier needs node class labels")
    _check_splits(splits, len(x_view))
    redacted = labels.copy()
    redacted[splits.test] = -1
    store, best, curve, weights = _fit_downstream(
        x_view, z_view, a_norm, redacted, num_classes,
        splits.train, splits.val, cfg, seed)
    metrics = Metrics(
        train_accuracy=evaluate(best["logits"], redacted, splits.train),
        val_accuracy=best["val"],
        test_accuracy=evaluate(best["logits"], labels, splits.test),
        loss_curve=curve,
        best_epoch=best["epoch"],
    )
    return DownstreamResult(metrics=metrics, logits=best["logits"],
                            fusion_weights=weights, store=store)


@one_blas_thread()
def train_downstream(recon: ReconState, labels: np.ndarray, num_classes: int,
                     splits: Splits, cfg: ExperimentConfig, seed: int) -> DownstreamResult:
    """Supervised phase on the frozen reconstructions; reports test accuracy
    at the best-validation checkpoint."""
    return _fit_and_score(recon.imputed, recon.propagated,
                          downstream_propagation_matrix(recon.diffusion_topk),
                          labels, num_classes, splits, cfg, seed)


@one_blas_thread()
def train_gcn_baseline(ds: GraphDataset, splits: Splits, cfg: ExperimentConfig,
                       seed: int) -> DownstreamResult:
    """Plain classifier on the dataset as stored: zero-filled features and
    the surviving edges.  No reconstruction, no fusion."""
    return _fit_and_score(ds.features, None,
                          normalize_adjacency(ds.edges, ds.n),
                          ds.labels, ds.num_classes, splits, cfg, seed)
