"""End-to-end node classification on a damaged graph.

One seed, two classifiers on identical splits:

  reconstruction : impute + diffuse, fuse both views, then a two-layer GCN
  zero-fill      : the same GCN reading the damaged graph as stored

The fixture keeps feature means small relative to noise so neither view
is sufficient alone; that is the regime this pipeline is built for.
"""

import numpy as np

import graphcomplete as gc
from graphcomplete.data import two_block_features

clean = gc.generate_sbm(50, 2, 0.3, 0.02, two_block_features(16) * 0.05,
                        noise_sd=0.5, seed=0)
ds = gc.apply_mask(clean, gc.MaskSpec(0.3, 0.3, "entry", seed=1))
splits = gc.make_splits(ds, seed=1)
print(f"{ds.n} nodes, {len(ds.edges)} surviving edges, "
      f"{int(ds.feature_mask.sum())}/{ds.features.size} entries observed")
print(f"splits: {len(splits.train)} train / {len(splits.val)} val / "
      f"{len(splits.test)} test")

# One settings object serves both phases: each reads its own keys.
cfg = gc.ExperimentConfig(alpha=0.1, k=20, epochs=100,
                          down_max_epochs=300, down_patience=50)

# --- phase 1: unsupervised reconstruction --------------------------------------
state = gc.run_reconstruction(ds, cfg, seed=1)
hist = state.loss_history
print(f"\nreconstruction loss: {hist[0, 2]:.1f} -> {hist[-1, 2]:.1f} "
      f"over {len(hist)} epochs")

# --- phase 2: supervised fusion + classifier ------------------------------------
result = gc.train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=1)
baseline = gc.train_gcn_baseline(ds, splits, cfg, seed=1)

m, b = result.metrics, baseline.metrics
print("\n                    train    val   test   best epoch")
print(f"reconstruction      {m.train_accuracy:.3f}  {m.val_accuracy:.3f}  "
      f"{m.test_accuracy:.3f}   {m.best_epoch}")
print(f"zero-fill baseline  {b.train_accuracy:.3f}  {b.val_accuracy:.3f}  "
      f"{b.test_accuracy:.3f}   {b.best_epoch}")

# --- how the fusion gate splits its attention -----------------------------------
# Each row is a convex pair (feature weight, structure weight).  The gate is
# bounded away from 0 and 1 by construction, so neither view can be shut off.
w = result.fusion_weights
print(f"\nfusion weight on the feature view: mean {w[:, 0].mean():.3f}, "
      f"range [{w[:, 0].min():.3f}, {w[:, 0].max():.3f}]")
print("rows sum to one:", bool(np.allclose(w.sum(axis=1), 1.0)))

# Accuracy on the test nodes never drives training: the classifier sees
# test labels only at final evaluation time.
print(f"\ntest nodes: {len(splits.test)}, "
      f"correct under reconstruction: {round(m.test_accuracy * len(splits.test))}, "
      f"under baseline: {round(b.test_accuracy * len(splits.test))}")
