"""Reconstruction driver and downstream node classification.

The pipeline has two phases.  The self-supervised phase trains the imputer,
the positional embeddings, and the propagation weights against the dual
contrastive objective; the sparsified diffusion stays a gradient-free
constant throughout.  The supervised phase freezes those reconstructions,
then jointly trains the attention fusion and a two-layer graph-convolution
classifier with masked cross-entropy, early-stopping on validation accuracy.

Test labels are structurally out of reach of training code: the fit routine
receives a label array with test entries redacted, and test accuracy is
computed only afterwards, from frozen logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp

from .autodiff import (
    Tensor,
    add,
    backward,
    constant,
    matmul,
    mul,
    propagate,
    relu,
    row_logsumexp,
    scale,
    sum_all,
)
from .data import GraphDataset, Splits
# decode_structure is unused here but stays bound: perfbench/layers.py wraps it
from .feature_path import decode_structure, impute_features  # noqa: F401
from .fusion import attention_fuse, init_fusion
from .nn import (
    OptimConfig,
    Optimizer,
    ParamStore,
    dropout_mask,
    glorot,
    init_mlp2,
    mlp2_forward,
)
from .objective import ContrastiveConfig, total_contrastive_loss
from .rng import (
    STREAM_DOWNSTREAM_DROPOUT,
    STREAM_DOWNSTREAM_INIT,
    STREAM_DROPOUT,
    STREAM_INIT,
    make_rng,
)
from .structure_path import (
    PPRConfig,
    build_diffusion,
    normalize_adjacency,
    positional_features,
    ppnp_forward,
)


@dataclass(frozen=True)
class ReconTrainConfig:
    """Settings for the self-supervised reconstruction phase."""

    ppr: PPRConfig = PPRConfig()
    contrastive: ContrastiveConfig = ContrastiveConfig()
    optim: OptimConfig = OptimConfig(learning_rate=0.01)
    imputer_hidden: int = 256
    pe_hidden: int = 512
    ppnp_hidden: int = 256
    dropout: float = 0.0
    epochs: int = 200


@dataclass(frozen=True)
class DownstreamConfig:
    """Settings for the supervised fusion + classifier phase."""

    optim: OptimConfig = OptimConfig(learning_rate=0.01, weight_decay=5e-4)
    gcn_hidden: int = 64
    attention_dim: int = 64
    dropout: float = 0.5
    max_epochs: int = 500
    patience: int = 100


@dataclass(frozen=True)
class ReconState:
    """Final products of the reconstruction phase.

    imputed: (n, d) completed features, observed entries bit-equal to input;
        decode_structure(imputed) gives the feature path's soft adjacency.
    diffusion_topk: sparse (n, n) top-k diffusion, the propagation operator.
    pos_encoding: (n, h) learned positional embeddings.
    propagated: (n, d) structure-path node representations.
    loss_history: (epochs, 3) feature term, structure term, total per epoch.
    """

    imputed: np.ndarray
    diffusion_topk: sp.csr_array
    pos_encoding: np.ndarray
    propagated: np.ndarray
    loss_history: np.ndarray
    params: ParamStore = field(repr=False)


@dataclass(frozen=True)
class Metrics:
    """Per-run outcome: split accuracies, training curve, provenance."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    loss_curve: tuple
    seed: int
    config_digest: str
    best_epoch: int


@dataclass(frozen=True)
class DownstreamResult:
    metrics: Metrics
    logits: np.ndarray
    fusion_weights: np.ndarray | None
    store: ParamStore = field(repr=False)


# ---------------------------------------------------------------------------
# reconstruction phase


def run_reconstruction(ds: GraphDataset, cfg: ReconTrainConfig, seed: int) -> ReconState:
    """Train both reconstruction paths against the contrastive objective.

    Returns the final reconstructions computed without dropout under the
    trained parameters.  With epochs=0 this is the initial-parameter state.
    """
    n, d = ds.features.shape
    # the dense diffusion and its dense top-k copy are released right here
    topk = sp.csr_array(build_diffusion(ds.edges, n, cfg.ppr)[1])

    init_rng = make_rng(seed, STREAM_INIT)
    drop_rng = make_rng(seed, STREAM_DROPOUT)
    store = ParamStore()
    init_mlp2(store, "imputer", (d, cfg.imputer_hidden, d), init_rng)
    store.add("pos.W", glorot(init_rng, n, cfg.pe_hidden))
    store.add("pos.b", np.zeros((1, cfg.pe_hidden)))
    store.add("ppnp.W0", glorot(init_rng, cfg.pe_hidden, cfg.ppnp_hidden))
    store.add("ppnp.W1", glorot(init_rng, cfg.ppnp_hidden, d))
    optim = Optimizer(store, cfg.optim)

    history = np.zeros((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        completed = impute_features(ds.features, ds.feature_mask, store,
                                    dropout=cfg.dropout, rng=drop_rng)
        pos_enc = positional_features(n, store)
        propagated = ppnp_forward(topk, pos_enc, store,
                                  dropout=cfg.dropout, rng=drop_rng)
        total, l_f, l_s = total_contrastive_loss(completed, propagated, topk,
                                                 cfg.contrastive)
        if not np.isfinite(total.value):
            raise FloatingPointError(f"non-finite reconstruction loss at epoch {epoch}")
        history[epoch] = (float(l_f.value), float(l_s.value), float(total.value))
        backward(total)
        optim.step()

    completed = impute_features(ds.features, ds.feature_mask, store)
    pos_enc = positional_features(n, store)
    propagated = ppnp_forward(topk, pos_enc, store)
    return ReconState(
        imputed=completed.value,
        diffusion_topk=topk,
        pos_encoding=pos_enc.value,
        propagated=propagated.value,
        loss_history=history,
        params=store,
    )


# ---------------------------------------------------------------------------
# classifier


def gcn_forward(a_norm, features, store: ParamStore, prefix: str = "gcn",
                dropout: float = 0.0, rng=None) -> Tensor:
    """Two-layer graph convolution: A · ReLU(A · X · Wa) · Wb."""
    x = features if isinstance(features, Tensor) else constant(np.asarray(features, dtype=np.float64))
    h = relu(propagate(a_norm, matmul(x, store[f"{prefix}.Wa"])))
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout requires a generator")
        h = mul(h, constant(dropout_mask(h.value.shape, dropout, rng)))
    return propagate(a_norm, matmul(h, store[f"{prefix}.Wb"]))


def cross_entropy_loss(logits: Tensor, labels: np.ndarray, idx: np.ndarray,
                       num_classes: int) -> Tensor:
    """Mean softmax cross-entropy over the given nodes, on the tape."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty train split")
    n = logits.value.shape[0]
    onehot = np.zeros((n, num_classes))
    onehot[idx, labels[idx]] = 1.0
    w = np.zeros((n, 1))
    w[idx, 0] = 1.0 / idx.size
    picked = matmul(mul(logits, constant(onehot)), constant(np.ones((num_classes, 1))))
    per_node = add(row_logsumexp(logits), scale(picked, -1.0))
    return sum_all(mul(per_node, constant(w)))


def evaluate(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    """Fraction of idx nodes whose argmax logit matches the label.

    argmax takes the first maximum, so ties resolve toward the smaller
    class index.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty evaluation split")
    if np.any(labels[idx] < 0):
        raise ValueError("unlabeled node in evaluation split")
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == labels[idx]))


def downstream_propagation_matrix(diffusion_topk) -> sp.csr_array:
    """Symmetrize the sparsified diffusion and symmetric-normalize it.

    Top-k selection breaks symmetry, and the classifier assumes a symmetric
    operator, so entries are reconciled with an elementwise maximum first.
    The diffusion's own diagonal keeps every row sum positive.
    """
    m = sp.csr_array(diffusion_topk)
    m = m.maximum(m.T)
    rowsum = np.asarray(m.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.maximum(rowsum, 1e-12))
    return sp.csr_array(sp.diags_array(inv_sqrt) @ m @ sp.diags_array(inv_sqrt))


def _fit_downstream(x_view: np.ndarray, z_view: np.ndarray | None, a_norm,
                    labels_trainval: np.ndarray, num_classes: int,
                    train_idx: np.ndarray, val_idx: np.ndarray,
                    cfg: DownstreamConfig, seed: int):
    """Train fusion (when z_view is given) plus the classifier.

    labels_trainval must have test entries redacted to -1; this function
    never sees a test label.  Model selection is best validation accuracy
    with the configured patience.  Returns the checkpointed best state.
    """
    n, d = x_view.shape
    use_fusion = z_view is not None
    init_rng = make_rng(seed, STREAM_DOWNSTREAM_INIT)
    drop_rng = make_rng(seed, STREAM_DOWNSTREAM_DROPOUT)

    store = ParamStore()
    # classifier params first: a fusion-free baseline draws identical values
    store.add("gcn.Wa", glorot(init_rng, d, cfg.gcn_hidden))
    store.add("gcn.Wb", glorot(init_rng, cfg.gcn_hidden, num_classes))
    if use_fusion:
        init_fusion(store, d, cfg.attention_dim, init_rng)
    optim = Optimizer(store, cfg.optim)

    def eval_logits() -> np.ndarray:
        if use_fusion:
            x = attention_fuse(x_view, z_view, store).fused
        else:
            x = constant(x_view)
        return gcn_forward(a_norm, x, store).value

    logits0 = eval_logits()
    best = {
        "val": evaluate(logits0, labels_trainval, val_idx),
        "epoch": -1,
        "logits": logits0,
        "params": store.snapshot(),
    }
    curve = []
    since_best = 0
    for epoch in range(cfg.max_epochs):
        if use_fusion:
            x = attention_fuse(x_view, z_view, store).fused
        else:
            x = constant(x_view)
        logits = gcn_forward(a_norm, x, store, dropout=cfg.dropout, rng=drop_rng)
        loss = cross_entropy_loss(logits, labels_trainval, train_idx, num_classes)
        if not np.isfinite(loss.value):
            raise FloatingPointError(f"non-finite classifier loss at epoch {epoch}")
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
            if since_best >= cfg.patience:
                break

    store.restore(best["params"])
    weights = attention_fuse(x_view, z_view, store).weights.value if use_fusion else None
    return store, best, tuple(curve), weights


def _redact(labels: np.ndarray, test_idx: np.ndarray) -> np.ndarray:
    out = labels.copy()
    out[test_idx] = -1
    return out


def train_downstream(recon: ReconState, labels: np.ndarray, num_classes: int,
                     splits: Splits, cfg: DownstreamConfig, seed: int,
                     config_digest: str = "") -> DownstreamResult:
    """Supervised phase on the frozen reconstructions; reports test accuracy
    at the best-validation checkpoint."""
    a_norm = downstream_propagation_matrix(recon.diffusion_topk)
    redacted = _redact(labels, splits.test)
    store, best, curve, weights = _fit_downstream(
        recon.imputed, recon.propagated, a_norm, redacted, num_classes,
        splits.train, splits.val, cfg, seed)
    metrics = Metrics(
        train_accuracy=evaluate(best["logits"], redacted, splits.train),
        val_accuracy=best["val"],
        test_accuracy=evaluate(best["logits"], labels, splits.test),
        loss_curve=curve,
        seed=seed,
        config_digest=config_digest,
        best_epoch=best["epoch"],
    )
    return DownstreamResult(metrics=metrics, logits=best["logits"],
                            fusion_weights=weights, store=store)


def train_gcn_baseline(ds: GraphDataset, splits: Splits, cfg: DownstreamConfig,
                       seed: int, config_digest: str = "") -> DownstreamResult:
    """Plain classifier on the dataset as stored: zero-filled features and
    the surviving edges.  No reconstruction, no fusion."""
    a_norm = normalize_adjacency(ds.edges, ds.n, sparse=True)
    redacted = _redact(ds.labels, splits.test)
    store, best, curve, _ = _fit_downstream(
        ds.features, None, a_norm, redacted, ds.num_classes,
        splits.train, splits.val, cfg, seed)
    metrics = Metrics(
        train_accuracy=evaluate(best["logits"], redacted, splits.train),
        val_accuracy=best["val"],
        test_accuracy=evaluate(best["logits"], ds.labels, splits.test),
        loss_curve=curve,
        seed=seed,
        config_digest=config_digest,
        best_epoch=best["epoch"],
    )
    return DownstreamResult(metrics=metrics, logits=best["logits"],
                            fusion_weights=None, store=store)
