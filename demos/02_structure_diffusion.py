"""Repairing structure with personalized-PageRank diffusion.

The structure path never trusts the surviving edge list alone: it spreads
each node's connectivity over multi-hop neighborhoods with a restarted
random walk, then keeps only the strongest k entries per row.  This demo
shows the operator on a graph whose edges have been thinned, and how the
diffusion recovers affinity for dropped neighbors.
"""

import numpy as np

import graphcomplete as gc
from graphcomplete.data import two_block_features
from graphcomplete.structure_path import normalize_adjacency

ds = gc.generate_sbm(15, 2, 0.4, 0.03, two_block_features(6), 0.3, seed=1)
thinned = gc.apply_mask(ds, gc.MaskSpec(edge_missing_rate=0.4, seed=0))
print("edges before/after thinning:", ds.num_edges, "/", thinned.num_edges)

# --- the normalized operator ------------------------------------------------
# Self-loops are added before degree normalization, so every node keeps
# probability mass on itself and rows of isolated nodes stay well defined.
a_norm = normalize_adjacency(thinned.edges, thinned.n).toarray()
print("operator symmetric:", bool(np.allclose(a_norm, a_norm.T)))

# --- the closed form, checked by power iteration ------------------------------
# The pipeline solves alpha (I - (1-alpha) A)^-1 directly.  Power iteration,
# A_{t+1} = (1-alpha) A A_t + alpha I from I until the largest entry change
# drops below 1e-10, reaches the same matrix; it serves only as the check,
# since every step multiplies dense n x n matrices.
alpha = 0.15
exact = gc.ppr_closed_form(a_norm, alpha)
eye = np.eye(thinned.n)
iterated, steps, change = eye, 0, np.inf
while change >= 1e-10:
    nxt = (1.0 - alpha) * (a_norm @ iterated) + alpha * eye
    change = np.abs(nxt - iterated).max()
    iterated, steps = nxt, steps + 1
print(f"power iteration converged in {steps} steps; "
      f"max gap vs closed form {np.abs(iterated - exact).max():.2e}")

# Small alpha walks far (more smoothing); large alpha stays home.
for a in (0.1, 0.5, 0.9):
    diff = gc.ppr_closed_form(a_norm, a)
    print(f"  alpha={a}: mean self-weight {np.diag(diff).mean():.3f}")

# --- did diffusion recover the dropped edges? --------------------------------
# Compare diffusion affinity on dropped pairs against random non-edges.
kept = {tuple(e) for e in thinned.edges}
dropped = [tuple(e) for e in ds.edges if tuple(e) not in kept]
rng = np.random.default_rng(0)
non_edges = []
all_edges = {tuple(e) for e in ds.edges}
while len(non_edges) < len(dropped):
    u, v = sorted(rng.integers(0, ds.n, 2))
    if u != v and (u, v) not in all_edges:
        non_edges.append((u, v))

aff = lambda pairs: float(np.mean([exact[u, v] for u, v in pairs]))
print(f"\nmean affinity on dropped edges:  {aff(dropped):.4f}")
print(f"mean affinity on true non-edges: {aff(non_edges):.4f}")

# --- top-k sparsification -----------------------------------------------------
# build_diffusion(edges, n, alpha, k) trims the diffusion to the k strongest
# entries per row and returns them as a sparse CSR matrix.  Ties break toward
# the smaller column index and nothing is renormalized.
topk = gc.build_diffusion(thinned.edges, thinned.n, alpha, 5)
print("\nnonzeros per row after top-k:", np.unique(np.diff(topk.indptr)).tolist())
kept_mass = topk.sum() / exact.sum()
print(f"affinity mass kept by k=5: {kept_mass:.1%}")
