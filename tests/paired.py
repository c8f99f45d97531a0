"""What the paired measurement scripts share: the fixed graphs, the one-cell
fit and the summary of paired differences.

A module, not a test (pytest does not collect it).  The scripts beside it
(precision_parity.py, workers_gate.py, rss_probe.py) import it:

- ``graph(workload, per_block, seed)``: a benchmark workload's graph, from
  its generator in perfbench/workloads.py, the one place under tests/ that
  calls it;
- ``fit(ds, rates, seed, patches)``: one cell's reconstruction and
  classifier with the default config, with settings patched around the
  reconstruction;
- ``paired(d)``: the mean of paired differences, their win/loss/tie counts,
  a seeded bootstrap interval of the mean and an exact sign test.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import sys
from dataclasses import dataclass
from unittest import mock

import numpy as np

import graphcomplete as gc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import MEAN_SCALE, NOISE_SD, WORKLOADS, block_means  # noqa: E402

RESAMPLES = 10_000


def graph(workload: str, per_block: int | None = None, seed: int = 0) -> gc.GraphDataset:
    """The workload's graph ("recon-large" or "sweep-small"), with per_block
    nodes per block in place of the workload's own where given."""
    w = WORKLOADS[workload]
    per_block = w.per_block if per_block is None else per_block
    return gc.generate_sbm(per_block, w.blocks, w.p_in, w.p_out,
                           block_means(w.blocks, w.d, MEAN_SCALE), NOISE_SD, seed=seed)


def fit(ds, rates, seed, patches=()) -> gc.Metrics:
    """One cell's reconstruction and classifier with the default config:
    rates is (feature, edge) missingness with feature entries hidden, and
    each (owner, name, value) of patches is set around the reconstruction."""
    fr, er = rates
    masked = gc.apply_mask(ds, gc.MaskSpec(fr, er, "entry", seed))
    splits = gc.make_splits(masked, seed=seed)
    cfg = gc.ExperimentConfig()
    with contextlib.ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value))
        recon = gc.run_reconstruction(masked, cfg, seed)
    return gc.train_downstream(recon, masked.labels, masked.num_classes, splits, cfg,
                               seed).metrics


@dataclass(frozen=True)
class Paired:
    mean: float
    wins: int
    losses: int
    ties: int
    lo: float       # the 95% bootstrap interval of the mean
    hi: float
    sign_p: float   # two-sided exact sign test over the untied pairs

    def __str__(self) -> str:
        return (f"mean {self.mean:+.4f}, wins/losses/ties {self.wins}/{self.losses}/{self.ties}, "
                f"95% bootstrap interval [{self.lo:+.4f}, {self.hi:+.4f}]")


def paired(d) -> Paired:
    """Summary of the paired differences d: the bootstrap draws RESAMPLES
    resamples of d with seed 0; the sign test counts wins against losses,
    each 1/2 under the null, ties dropped (p = 1 with no untied pair)."""
    d = np.asarray(d, dtype=np.float64)
    means = np.random.default_rng(0).choice(d, size=(RESAMPLES, len(d))).mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    wins, losses = int((d > 0).sum()), int((d < 0).sum())
    untied = wins + losses
    tail = sum(math.comb(untied, i) for i in range(min(wins, losses) + 1))
    return Paired(float(d.mean()), wins, losses, len(d) - untied, float(lo), float(hi),
                  min(1.0, 2 * tail / 2 ** untied))
