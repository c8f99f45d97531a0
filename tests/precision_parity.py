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
(perfbench/workloads.py, through tests/paired.py) at 4 blocks of 250 nodes,
n=1000, graph seed 0; rate pairs (0.3, 0.3) and (0.6, 0.6), feature entries
hidden; cell seeds 11-20; the default config (200 reconstruction epochs,
alpha 0.1, the default classifier).  Per rate pair it prints each cell's
accuracies and best epochs, then per comparison the paired differences
(shipped minus float64): their mean, the win/loss/tie counts, a 95%
bootstrap interval of the mean (10,000 resamples, seed 0), and the gate:
the interval holds 0 and |mean| <= 0.01; and on the next line the two-sided
sign test over the untied pairs.

Then, per rate pair, the noise floor: the ``all`` fits against float64 fits
of the same cells on the clean graph with every feature moved up by one ulp
(np.nextafter) before masking.  Roundoff of that size alone moves each
fit's best-epoch pick, so this split is what float32's would look like if
it cost nothing.  It has no gate.  The exit status is 0 when every gate
passes.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from graphcomplete import objective, structure_path
from paired import fit, graph, paired

GRAPH_SEED = 0
RATE_PAIRS = [(0.3, 0.3), (0.6, 0.6)]
SEEDS = range(11, 21)
GATE_MEAN = 0.01

# comparison: the patches that put float32 out of reach for its float64 fits
FORCED = {"all": ((objective, "F32_ROWS", math.inf),),
          "solve": ((structure_path, "F32_MIN_ALPHA", math.inf),)}


def report(comparison: str, sides: str, d: list, gated: bool = True) -> bool:
    """Print the paired differences' summary, the gate where gated, and the
    sign test; True when the gate's rule holds."""
    p = paired(d)
    ok = p.lo <= 0.0 <= p.hi and abs(p.mean) <= GATE_MEAN
    gate = (f"gate (interval holds 0, |mean| <= {GATE_MEAN}): {'PASS' if ok else 'FAIL'}"
            if gated else "no gate")
    print(f" {comparison}: paired difference {sides}: {p}; {gate}")
    print(f"   sign test over the {p.wins + p.losses} untied pairs: two-sided p {p.sign_p:.4f}")
    return ok


def cell(seed: int, *fits) -> str:
    return "  ".join([f"{seed:5d}", *(f"{m.test_accuracy:.4f} ({m.best_epoch:3d})"
                                      for m in fits)])


def main() -> int:
    ds = graph("recon-large", per_block=250, seed=GRAPH_SEED)
    moved = dataclasses.replace(ds, features=np.nextafter(ds.features, np.inf))
    print(f"n={ds.n}, {ds.num_edges} edges; F32_ROWS={objective.F32_ROWS}, "
          f"F32_MIN_ALPHA={structure_path.F32_MIN_ALPHA}; "
          f"cells {SEEDS[0]}-{SEEDS[-1]} per rate pair")
    passed = True
    for rates in RATE_PAIRS:
        print(f"\nrates {rates}: test accuracy (best epoch), shipped then "
              f"float64 by {', '.join(FORCED)}")
        f64 = {c: [] for c in FORCED}
        ship = []
        for seed in SEEDS:
            ship.append(fit(ds, rates, seed))
            for c in FORCED:
                f64[c].append(fit(ds, rates, seed, FORCED[c]))
            print(cell(seed, ship[-1], *(f64[c][-1] for c in FORCED)), flush=True)
        for c in FORCED:
            passed &= report(c, "shipped - f64", [s.test_accuracy - f.test_accuracy
                                                  for s, f in zip(ship, f64[c])])
        print(f" noise floor at rates {rates}: float64 (the all fits above), then "
              f"float64 with features moved by one ulp")
        ulp = []
        for seed, base in zip(SEEDS, f64["all"]):
            ulp.append(fit(moved, rates, seed, FORCED["all"]))
            print(cell(seed, base, ulp[-1]), flush=True)
        report("ulp", "moved - f64", [u.test_accuracy - f.test_accuracy
                                      for u, f in zip(ulp, f64["all"])], gated=False)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
