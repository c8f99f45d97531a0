"""Training the two reconstruction paths against each other.

No labels here: the feature path (an imputing MLP plus an inner-product
decoder) and the structure path (diffusion plus propagated positional
embeddings) are aligned with a dual InfoNCE objective.  Each path serves
as the other's training signal.

Worth stating up front: the loss compares cosine geometry between views.
Nothing regresses individual entry values, so the payoff is measured in
structure recovered and downstream accuracy (demo 04), not entrywise RMSE.
"""

import numpy as np

import graphcomplete as gc
from graphcomplete.data import two_block_features

# A graph with both kinds of damage: 40% of feature entries and 30% of
# edges are gone.
clean = gc.generate_sbm(25, 2, 0.3, 0.02, two_block_features(12) * 0.5,
                        noise_sd=0.4, seed=3)
ds = gc.apply_mask(clean, gc.MaskSpec(0.4, 0.3, "entry", 0))
print("observed entries:", int(ds.feature_mask.sum()), "of", ds.features.size)

# The phase reads its settings from the same object the command line builds.
cfg = gc.ExperimentConfig(
    alpha=0.1, k=10, temperature=0.5,
    imputer_hidden=64, pe_hidden=64, ppnp_hidden=64,
    epochs=150,
)
state = gc.run_reconstruction(ds, cfg, seed=0)

# --- the loss curve -----------------------------------------------------------
hist = state.loss_history
print("\nepoch   feature-term  structure-term    total")
for e in (0, 10, 50, 100, 149):
    print(f"{e:>5}   {hist[e, 0]:>12.3f}  {hist[e, 1]:>14.3f}  {hist[e, 2]:>7.3f}")

# --- the hard contract --------------------------------------------------------
# Observed entries pass through bit-exactly; only hidden entries are filled.
print("\nobserved entries untouched:",
      bool(np.array_equal(state.imputed[ds.feature_mask],
                          ds.features[ds.feature_mask])))

# --- structure recovered without labels ---------------------------------------
# The decoded soft adjacency should rate same-block pairs above cross-block
# pairs even though the blocks were never revealed.
decoded_adj = gc.decode_structure(state.imputed)
same = clean.labels[:, None] == clean.labels[None, :]
off_diag = ~np.eye(clean.n, dtype=bool)
print(f"\ndecoded affinity within blocks:  "
      f"{decoded_adj[same & off_diag].mean():.3f}")
print(f"decoded affinity across blocks:  "
      f"{decoded_adj[~same].mean():.3f}")

# Sharper question: do the edges we deleted score above pairs that were
# never edges?  That is unsupervised edge recovery.
kept = {tuple(e) for e in ds.edges.tolist()}
dropped = [tuple(e) for e in clean.edges.tolist() if tuple(e) not in kept]
all_clean = {tuple(e) for e in clean.edges.tolist()}
rng = np.random.default_rng(0)
non_edges = []
while len(non_edges) < len(dropped):
    i, j = rng.integers(0, clean.n, 2)
    if i < j and (i, j) not in all_clean:
        non_edges.append((i, j))

dropped_scores = np.array([decoded_adj[i, j] for i, j in dropped])
absent_scores = np.array([decoded_adj[i, j] for i, j in non_edges])
ranked = np.mean(dropped_scores[:, None] > absent_scores[None, :])
print(f"\n{len(dropped)} deleted edges score {dropped_scores.mean():.3f}, "
      f"true non-edges {absent_scores.mean():.3f}")
print(f"deleted edge ranked above non-edge: {ranked:.0%} of pairs")

# The structure-path representation is the second view the classifier
# fuses with the imputed features in demo 04.
print("\npropagated representation:", state.propagated.shape)
print("sparsified diffusion nnz:", state.diffusion_topk.nnz)
