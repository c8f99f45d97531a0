"""Test accuracy with the contrastive row blocks in float32 against float64.

    PYTHONPATH=src python tests/precision_parity.py

A script, not a test (pytest does not collect it).  From objective.F32_ROWS
nodes on, the contrastive terms run their row blocks in float32.  This runs
each cell twice, once as shipped and once with F32_ROWS out of reach (float64
throughout), and compares the downstream test accuracies pair by pair.

Everything is fixed before the first run: recon-large's graph generator
(perfbench/workloads.py) at 4 blocks of 250 nodes, n=1000, graph seed 0;
rate pairs (0.3, 0.3) and (0.6, 0.6), feature entries hidden; cell seeds
11-20; the default config (200 reconstruction epochs, the default
classifier).  Per rate pair it prints each cell's two accuracies and best
epochs, then the paired differences (float32 minus float64): their mean,
the win/loss/tie counts, a 95% bootstrap interval of the mean (10,000
resamples, seed 0), and the gate: the interval holds 0 and |mean| <= 0.01.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

import graphcomplete as gc
from graphcomplete import objective

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


def fit(ds, fr, er, seed, f32_rows) -> gc.Metrics:
    """One cell's reconstruction and classifier with the row blocks in float32
    from f32_rows nodes on."""
    masked = gc.apply_mask(ds, gc.MaskSpec(fr, er, "entry", seed))
    splits = gc.make_splits(masked, seed=seed)
    cfg = gc.ExperimentConfig()
    saved, objective.F32_ROWS = objective.F32_ROWS, f32_rows
    try:
        recon = gc.run_reconstruction(masked, cfg, seed)
    finally:
        objective.F32_ROWS = saved
    return gc.train_downstream(recon, masked.labels, masked.num_classes, splits, cfg,
                               seed).metrics


def main() -> int:
    ds = graph()
    print(f"n={ds.n}, {ds.num_edges} edges; F32_ROWS={objective.F32_ROWS}; "
          f"cells {list(SEEDS)[0]}-{list(SEEDS)[-1]} per rate pair")
    passed = True
    for fr, er in RATE_PAIRS:
        print(f"\nrates ({fr}, {er})\n seed  test f32  test f64  best epoch f32/f64")
        diffs = []
        for seed in SEEDS:
            m32 = fit(ds, fr, er, seed, objective.F32_ROWS)
            m64 = fit(ds, fr, er, seed, sys.maxsize)
            diffs.append(m32.test_accuracy - m64.test_accuracy)
            print(f"{seed:5d}  {m32.test_accuracy:8.4f}  {m64.test_accuracy:8.4f}  "
                  f"{m32.best_epoch:5d} / {m64.best_epoch}", flush=True)
        d = np.asarray(diffs)
        means = np.random.default_rng(0).choice(d, size=(RESAMPLES, len(d))).mean(axis=1)
        lo, hi = np.percentile(means, [2.5, 97.5])
        ok = lo <= 0.0 <= hi and abs(d.mean()) <= GATE_MEAN
        passed &= ok
        print(f" paired difference f32 - f64: mean {d.mean():+.4f}, "
              f"wins/losses/ties {(d > 0).sum()}/{(d < 0).sum()}/{(d == 0).sum()}, "
              f"95% bootstrap interval [{lo:+.4f}, {hi:+.4f}]; "
              f"gate (interval holds 0, |mean| <= {GATE_MEAN}): {'PASS' if ok else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
