"""Graph data model: on-disk format, masking protocol, splits, synthetic graphs.

A dataset is a node-feature matrix with an observation mask, an undirected
edge set, and optional per-node class labels.  Values behind ``mask == False``
are stored as 0.0 and carry no information; the mask alone says what is
observed.

On-disk layout (one directory per dataset, all ids 0-based).  In each ``.tsv``
file a whitespace-only line is skipped; any other line is split on tabs, and an
empty field (a leading, trailing or doubled tab) makes the line malformed:

* ``features.tsv`` -- one row per node: node id, then d tab-separated decimals
* ``edges.tsv``    -- one edge per line as ``u<TAB>v`` with ``u < v``
* ``labels.tsv``   -- optional, ``node<TAB>class`` lines
* ``mask.tsv``     -- optional, same layout as features with 0/1 entries;
  absent means fully observed
* ``meta.json``    -- ``{"nodes": n, "features": d, "classes": C}``, integers
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import (
    STREAM_EDGE_MASK,
    STREAM_FEATURE_MASK,
    STREAM_SBM,
    STREAM_SPLITS,
    make_rng,
)

TRAIN_FRACTION, VAL_FRACTION = 0.6, 0.2   # of each class; the rest is test


class DatasetFormatError(ValueError):
    """Raised when an on-disk dataset violates the format contract."""


def canonical_edges(pairs) -> np.ndarray:
    """Sort an (m, 2) array of undirected pairs into canonical order.

    Each pair is stored with the smaller endpoint first; rows are sorted
    lexicographically.  Canonical order is what makes seeded edge removal
    reproducible across runs.
    """
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if e.size:
        e = np.sort(e, axis=1)
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
    return e


@dataclass(frozen=True)
class GraphDataset:
    """Immutable graph with partially observed features and edges."""

    features: np.ndarray          # (n, d) float64, zeros where unobserved
    feature_mask: np.ndarray      # (n, d) bool, True = observed
    edges: np.ndarray             # (m, 2) int64, u < v, lexicographically sorted
    labels: np.ndarray | None = None   # (n,) int64, -1 = unlabeled
    num_classes: int = 0

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def validate(self) -> "GraphDataset":
        n, d = self.features.shape
        if self.feature_mask.shape != (n, d):
            raise DatasetFormatError("feature mask shape differs from features")
        if not np.all(np.isfinite(self.features)):
            raise DatasetFormatError("non-finite feature value")
        if np.any(self.features[~self.feature_mask] != 0.0):
            raise DatasetFormatError("unobserved entries must be stored as 0")
        e = self.edges
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise DatasetFormatError("edge endpoint out of range")
            if np.any(e[:, 0] >= e[:, 1]):
                raise DatasetFormatError("self-loop or non-canonical edge")
            if len(np.unique(e[:, 0] * n + e[:, 1])) != len(e):
                raise DatasetFormatError("duplicate edge")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise DatasetFormatError("labels shape differs from node count")
            lab = self.labels[self.labels >= 0]
            if lab.size and lab.max() >= self.num_classes:
                raise DatasetFormatError("label id out of range")
        return self


@dataclass(frozen=True)
class MaskSpec:
    """How much to hide, and how.

    ``feature_mode`` is ``"entry"`` (hide individual attribute cells) or
    ``"row"`` (hide whole nodes' feature vectors).  Entry mode is the
    default; row mode composes on top of it when both behaviours are wanted.
    """

    feature_missing_rate: float = 0.0
    edge_missing_rate: float = 0.0
    feature_mode: str = "entry"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.feature_missing_rate <= 1.0):
            raise ValueError(f"feature_missing_rate {self.feature_missing_rate} outside [0, 1]")
        if not (0.0 <= self.edge_missing_rate <= 1.0):
            raise ValueError(f"edge_missing_rate {self.edge_missing_rate} outside [0, 1]")
        if self.feature_mode not in ("entry", "row"):
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")


@dataclass(frozen=True)
class Splits:
    """Disjoint train/val/test node-id sets, stratified per class."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


# ---------------------------------------------------------------------------
# on-disk ingestion


def _tsv_lines(path: str, kind: str):
    """The one line rule of the dataset files: yields ("path:lineno", fields) per line,
    skipping a whitespace-only line and rejecting one with an empty field as malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            fields = line.rstrip("\n").split("\t")
            if not all(fields):
                raise DatasetFormatError(f"{path}:{lineno}: malformed {kind} line")
            yield f"{path}:{lineno}", fields


def _parse_numbered_matrix(path: str, kind: str) -> np.ndarray:
    rows = []
    expected_cols = None
    for where, parts in _tsv_lines(path, kind):
        try:
            node = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DatasetFormatError(f"{where}: malformed {kind} line") from exc
        if node != len(rows):
            raise DatasetFormatError(f"{where}: expected node id {len(rows)}, got {node}")
        if expected_cols is None:
            expected_cols = len(vals)
            if expected_cols == 0:
                raise DatasetFormatError(f"{where}: row has no values")
        elif len(vals) != expected_cols:
            raise DatasetFormatError(f"{where}: expected {expected_cols} values, got {len(vals)}")
        rows.append(vals)
    if not rows:
        raise DatasetFormatError(f"{path}: empty file")
    return np.asarray(rows, dtype=np.float64)


def _parse_pair(where: str, parts: list[str], kind: str) -> tuple[int, int]:
    """A line of exactly two integer fields, else a malformed-line error."""
    try:
        u, v = map(int, parts)
    except ValueError:
        raise DatasetFormatError(f"{where}: malformed {kind} line") from None
    return u, v


def _parse_edges(path: str, n: int) -> np.ndarray:
    pairs = []
    seen = set()
    for where, parts in _tsv_lines(path, "edge"):
        u, v = _parse_pair(where, parts, "edge")
        if u == v:
            raise DatasetFormatError(f"{where}: self-loop {u}")
        if u > v:
            raise DatasetFormatError(f"{where}: edge not in u < v order")
        if not (0 <= u < n and 0 <= v < n):
            raise DatasetFormatError(f"{where}: node id out of range")
        if (u, v) in seen:
            raise DatasetFormatError(f"{where}: duplicate edge {u} {v}")
        seen.add((u, v))
        pairs.append((u, v))
    return canonical_edges(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)


def load_dataset(path: str) -> GraphDataset:
    """Load a dataset directory, validating every invariant on the way in."""
    features_path, edges_path = (os.path.join(path, f) for f in ("features.tsv", "edges.tsv"))
    for required in (features_path, edges_path):
        if not os.path.exists(required):
            raise DatasetFormatError(f"{required}: missing")
    features = _parse_numbered_matrix(features_path, "feature")
    n, d = features.shape

    edges = _parse_edges(edges_path, n)

    mask_path = os.path.join(path, "mask.tsv")
    if os.path.exists(mask_path):
        raw = _parse_numbered_matrix(mask_path, "mask")
        if raw.shape != (n, d):
            raise DatasetFormatError(f"{mask_path}: shape differs from features")
        if not np.all((raw == 0.0) | (raw == 1.0)):
            raise DatasetFormatError(f"{mask_path}: entries must be 0 or 1")
        mask = raw.astype(bool)
    else:
        mask = np.ones((n, d), dtype=bool)

    labels = None
    num_classes = 0
    labels_path = os.path.join(path, "labels.tsv")
    if os.path.exists(labels_path):
        labels = np.full(n, -1, dtype=np.int64)
        for where, parts in _tsv_lines(labels_path, "label"):
            node, cls = _parse_pair(where, parts, "label")
            if not (0 <= node < n):
                raise DatasetFormatError(f"{where}: node id out of range")
            if cls < 0:
                raise DatasetFormatError(f"{where}: negative class id")
            if labels[node] >= 0:
                raise DatasetFormatError(f"{where}: duplicate label for node {node}")
            labels[node] = cls
        num_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0

    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:   # malformed JSON or text
                raise DatasetFormatError(f"{meta_path}: not valid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise DatasetFormatError(f"{meta_path}: not a JSON object")
        for key in ("nodes", "features", "classes"):
            if type(meta.get(key, 0)) is not int:   # 2, not "2", 2.0 or true
                raise DatasetFormatError(f"{meta_path}: {key} {meta[key]!r} is not an integer")
        if meta.get("nodes") != n or meta.get("features") != d:
            raise DatasetFormatError(f"{meta_path}: counts disagree with files")
        if labels is not None and meta.get("classes", num_classes) < num_classes:
            raise DatasetFormatError(f"{meta_path}: class count below observed labels")
        if labels is not None:
            num_classes = meta.get("classes", num_classes)

    features = np.where(mask, features, 0.0)
    return GraphDataset(features, mask, edges, labels, num_classes).validate()


def write_dataset(ds: GraphDataset, path: str) -> None:
    """Write a dataset directory; inverse of :func:`load_dataset`.

    Decimals are written with 17 significant digits so float64 round-trips
    exactly.
    """
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "features.tsv"), "w", encoding="utf-8") as fh:
        for i in range(ds.n):
            vals = "\t".join(format(v, ".17g") for v in ds.features[i])
            fh.write(f"{i}\t{vals}\n")
    with open(os.path.join(path, "edges.tsv"), "w", encoding="utf-8") as fh:
        for u, v in ds.edges:
            fh.write(f"{u}\t{v}\n")
    if not np.all(ds.feature_mask):
        with open(os.path.join(path, "mask.tsv"), "w", encoding="utf-8") as fh:
            for i in range(ds.n):
                vals = "\t".join("1" if b else "0" for b in ds.feature_mask[i])
                fh.write(f"{i}\t{vals}\n")
    if ds.labels is not None:
        with open(os.path.join(path, "labels.tsv"), "w", encoding="utf-8") as fh:
            for i, c in enumerate(ds.labels):
                if c >= 0:
                    fh.write(f"{i}\t{c}\n")
    meta = {"nodes": ds.n, "features": ds.d, "classes": ds.num_classes}
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# masking protocol


def apply_mask(ds: GraphDataset, spec: MaskSpec) -> GraphDataset:
    """Hide a seeded uniform subset of feature entries and edges.

    Entry mode hides ``ceil(rate * n * d)`` observed cells; row mode hides
    ``ceil(rate * n)`` whole rows.  ``ceil(rate * m)`` edges are removed.
    Masking only ever shrinks the observed set, so calls compose.
    """
    features = ds.features.copy()
    mask = ds.feature_mask.copy()
    n, d = features.shape

    if spec.feature_missing_rate > 0:
        rng = make_rng(spec.seed, STREAM_FEATURE_MASK)
        if spec.feature_mode == "entry":
            observed = np.flatnonzero(mask.ravel())
            count = min(math.ceil(spec.feature_missing_rate * n * d), observed.size)
            hit = rng.choice(observed, size=count, replace=False)
            flat = mask.ravel()
            flat[hit] = False
            mask = flat.reshape(n, d)
        else:
            count = min(math.ceil(spec.feature_missing_rate * n), n)
            rows = rng.choice(n, size=count, replace=False)
            mask[rows, :] = False
        features[~mask] = 0.0

    edges = ds.edges
    if spec.edge_missing_rate > 0 and edges.shape[0] > 0:
        rng = make_rng(spec.seed, STREAM_EDGE_MASK)
        m = edges.shape[0]
        count = min(math.ceil(spec.edge_missing_rate * m), m)
        drop = rng.choice(m, size=count, replace=False)
        keep = np.setdiff1d(np.arange(m), drop)
        edges = edges[keep]

    return GraphDataset(features, mask, edges, ds.labels, ds.num_classes).validate()


def make_splits(ds: GraphDataset, seed: int = 0) -> Splits:
    """Per-class stratified 60/20/20 train/val/test partition of the labeled nodes."""
    if ds.labels is None:
        raise ValueError("dataset has no labels to split")
    if not np.any(ds.labels >= 0):
        raise ValueError("dataset has no labeled node to split")
    rng = make_rng(seed, STREAM_SPLITS)
    train, val, test = [], [], []
    for c in range(ds.num_classes):
        ids = np.flatnonzero(ds.labels == c)
        if ids.size < 3:
            raise ValueError(f"class {c} has {ids.size} members; need at least 3 to stratify")
        ids = rng.permutation(ids)
        n_tr = max(1, int(TRAIN_FRACTION * ids.size + 1e-9))
        n_va = max(1, int(VAL_FRACTION * ids.size + 1e-9))
        if n_tr + n_va >= ids.size:
            n_tr = ids.size - 2
            n_va = 1
        train.append(ids[:n_tr])
        val.append(ids[n_tr:n_tr + n_va])
        test.append(ids[n_tr + n_va:])
    return Splits(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
    )


# ---------------------------------------------------------------------------
# synthetic graphs


def generate_sbm(
    n_per_block: int,
    blocks: int,
    p_in: float,
    p_out: float,
    feat_means: np.ndarray,
    noise_sd: float,
    seed: int = 0,
) -> GraphDataset:
    """Stochastic-block-model graph with block-conditioned Gaussian features.

    ``feat_means`` is a (blocks, d) array; node features are the block mean
    plus ``noise_sd`` times standard normal noise.  Labels are block ids.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    means = np.asarray(feat_means, dtype=np.float64)
    if means.shape[0] != blocks:
        raise ValueError(f"feat_means has {means.shape[0]} rows for {blocks} blocks")
    n = n_per_block * blocks
    labels = np.repeat(np.arange(blocks, dtype=np.int64), n_per_block)

    rng = make_rng(seed, STREAM_SBM)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    edges = canonical_edges(np.argwhere(upper))

    features = means[labels] + noise_sd * rng.standard_normal((n, means.shape[1]))
    mask = np.ones_like(features, dtype=bool)
    return GraphDataset(features, mask, edges, labels, blocks).validate()


def two_block_features(d: int) -> np.ndarray:
    """Convenience block means for two-class fixtures: disjoint half-supports."""
    means = np.zeros((2, d))
    means[0, : d // 2] = 1.0
    means[1, d // 2:] = 1.0
    return means
