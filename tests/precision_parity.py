"""Test accuracy with float32 arithmetic against float64.

    PYTHONPATH=src python tests/precision_parity.py

A script, not a test (pytest does not collect it).  From objective.F32_ROWS
nodes on, two steps run in float32: the contrastive terms' row blocks, and
(for alpha >= structure_path.F32_MIN_ALPHA) the diffusion solve.  Each cell
is fitted once as shipped and once per comparison with float64 forced:

- ``all``: F32_ROWS out of reach, so both steps run in float64;
- ``solve``: F32_MIN_ALPHA out of reach, so only the solve runs in float64
  and the row blocks stay as shipped: the solve's precision alone.

Both comparisons run against one shipped fit per cell.  The downstream
test accuracies are compared pair by pair.

Everything is fixed before the first run: recon-large's graph generator
(perfbench/workloads.py) at 4 blocks of 250 nodes, n=1000, graph seed 0;
rate pairs (0.3, 0.3) and (0.6, 0.6), feature entries hidden; cell seeds
11-20; the default config (200 reconstruction epochs, alpha 0.1, the default
classifier).  Per rate pair it prints each cell's accuracies and best
epochs, then per comparison the paired differences (shipped minus
float64): their mean, the win/loss/tie counts, a 95% bootstrap interval of
the mean (10,000 resamples, seed 0), and the gate: the interval holds 0 and
|mean| <= 0.01.  The exit status is 0 when every gate passes.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import sys
from unittest import mock

import numpy as np

import graphcomplete as gc
from graphcomplete import objective, structure_path

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import MEAN_SCALE, NOISE_SD, WORKLOADS, block_means  # noqa: E402

GRAPH_SEED = 0
RATE_PAIRS = [(0.3, 0.3), (0.6, 0.6)]
SEEDS = range(11, 21)
RESAMPLES = 10_000
GATE_MEAN = 0.01


def graph() -> gc.GraphDataset:
    """recon-large's generator with 250 nodes per block."""
    w = WORKLOADS["recon-large"]
    return gc.generate_sbm(250, w.blocks, w.p_in, w.p_out,
                           block_means(w.blocks, w.d, MEAN_SCALE), NOISE_SD, seed=GRAPH_SEED)


# comparison: the (module, name) set out of reach for its float64 fits
FORCED = {"all": (objective, "F32_ROWS"), "solve": (structure_path, "F32_MIN_ALPHA")}


def fit(ds, fr, er, seed, forced=None) -> gc.Metrics:
    """One cell's reconstruction and classifier, as shipped or with the
    (module, name) forced out of reach, so that it selects float64."""
    masked = gc.apply_mask(ds, gc.MaskSpec(fr, er, "entry", seed))
    splits = gc.make_splits(masked, seed=seed)
    cfg = gc.ExperimentConfig()
    with mock.patch.object(*forced, math.inf) if forced else contextlib.nullcontext():
        recon = gc.run_reconstruction(masked, cfg, seed)
    return gc.train_downstream(recon, masked.labels, masked.num_classes, splits, cfg,
                               seed).metrics


def gate(comparison: str, d: np.ndarray) -> bool:
    """Print the paired differences' summary and gate; True when it passes."""
    means = np.random.default_rng(0).choice(d, size=(RESAMPLES, len(d))).mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    ok = lo <= 0.0 <= hi and abs(d.mean()) <= GATE_MEAN
    print(f" {comparison}: paired difference shipped - f64: mean {d.mean():+.4f}, "
          f"wins/losses/ties {(d > 0).sum()}/{(d < 0).sum()}/{(d == 0).sum()}, "
          f"95% bootstrap interval [{lo:+.4f}, {hi:+.4f}]; "
          f"gate (interval holds 0, |mean| <= {GATE_MEAN}): {'PASS' if ok else 'FAIL'}")
    return ok


def main() -> int:
    ds = graph()
    print(f"n={ds.n}, {ds.num_edges} edges; F32_ROWS={objective.F32_ROWS}, "
          f"F32_MIN_ALPHA={structure_path.F32_MIN_ALPHA}; "
          f"cells {list(SEEDS)[0]}-{list(SEEDS)[-1]} per rate pair")
    passed = True
    for fr, er in RATE_PAIRS:
        print(f"\nrates ({fr}, {er}): test accuracy (best epoch), shipped then "
              f"float64 by {', '.join(FORCED)}")
        diffs = {c: [] for c in FORCED}
        for seed in SEEDS:
            ship = fit(ds, fr, er, seed)
            row = [f"{seed:5d}  {ship.test_accuracy:.4f} ({ship.best_epoch:3d})"]
            for c in FORCED:
                f64 = fit(ds, fr, er, seed, FORCED[c])
                diffs[c].append(ship.test_accuracy - f64.test_accuracy)
                row.append(f"{f64.test_accuracy:.4f} ({f64.best_epoch:3d})")
            print("  ".join(row), flush=True)
        for c in FORCED:
            passed &= gate(c, np.asarray(diffs[c]))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
