"""Datasets, observation masks, and stratified splits.

Walks through the data layer: synthesize a two-block graph, round-trip it
through the on-disk format, hide parts of it the way the experiments do,
and carve out train/val/test splits.
"""

import tempfile

import numpy as np

import graphcomplete as gc
from graphcomplete.data import two_block_features

# --- synthesize a small attributed graph -----------------------------------
# Two blocks of 20 nodes.  Edges appear with probability 0.3 inside a block
# and 0.02 across blocks; features are Gaussian around per-block means.
means = two_block_features(8)   # block 0 occupies the first 4 dims, block 1 the rest
ds = gc.generate_sbm(20, 2, 0.3, 0.02, means, noise_sd=0.5, seed=7)

print("nodes:", ds.n)
print("feature matrix:", ds.features.shape)
print("edges:", ds.num_edges)
print("labels:", np.bincount(ds.labels))

# Edges are canonical: u < v, lexicographically sorted, no duplicates.
print("first edges:\n", ds.edges[:5])

# --- the on-disk format -----------------------------------------------------
# A dataset directory holds features.tsv / edges.tsv / labels.tsv, with an
# optional mask.tsv for partially observed features and a meta.json sanity
# header.  Writing and loading is lossless.
with tempfile.TemporaryDirectory(prefix="graphcomplete-demo-") as root:
    path = f"{root}/blocks"
    gc.write_dataset(ds, path)
    back = gc.load_dataset(path)
print("\nround trip exact:",
      np.array_equal(back.features, ds.features)
      and np.array_equal(back.edges, ds.edges))

# --- hiding data ------------------------------------------------------------
# Entry-mode masking hides a uniform sample of observed feature entries;
# edge masking drops a uniform sample of edges.  Hidden feature entries are
# stored as 0 with mask=False, so the array is always dense and finite.
spec = gc.MaskSpec(feature_missing_rate=0.3, edge_missing_rate=0.3,
                   feature_mode="entry", seed=0)
masked = gc.apply_mask(ds, spec)

n_entries = ds.features.size
print("\nfeature entries hidden:",
      int((~masked.feature_mask).sum()), "of", n_entries)
print("edges kept:", masked.num_edges, "of", ds.num_edges)
print("hidden entries are zeroed:",
      bool(np.all(masked.features[~masked.feature_mask] == 0.0)))

# Masking composes: hiding more on an already-masked dataset only shrinks
# the observed set.
harsher = gc.apply_mask(masked, gc.MaskSpec(feature_missing_rate=0.5, seed=1))
print("masking is monotone:",
      bool(not (harsher.feature_mask & ~masked.feature_mask).any()))

# Row mode hides whole feature rows instead, the "some nodes arrive with no
# attributes at all" regime.
rows_gone = gc.apply_mask(ds, gc.MaskSpec(feature_missing_rate=0.25,
                                          feature_mode="row", seed=2))
print("fully hidden rows:", int((~rows_gone.feature_mask).all(axis=1).sum()))

# --- splits -----------------------------------------------------------------
# Stratified 60/20/20 per class, deterministic per seed.
splits = gc.make_splits(masked, seed=0)
print("\nsplit sizes:", len(splits.train), len(splits.val), len(splits.test))
for c in range(masked.num_classes):
    ids = np.flatnonzero(masked.labels == c)
    print(f"  class {c}: train={np.isin(splits.train, ids).sum()} "
          f"val={np.isin(splits.val, ids).sum()} "
          f"test={np.isin(splits.test, ids).sum()}")
