"""Wall time of two --workers 2 sweeps, from two checkouts, alternated.

    PYTHONPATH=src python tests/workers_gate.py BEFORE AFTER

A script, not a test (pytest does not collect it).  BEFORE and AFTER are the
roots of two checkouts of this repository.  Each sweep runs as
``python -m graphcomplete --workers 2`` with the checkout's ``src`` on
PYTHONPATH, on a dataset this checkout writes once:

- ``2-cell n=2000``: recon-large's generator (perfbench/workloads.py), graph
  seed 0, cell seeds 0,1, ``--epochs 3 --down-max-epochs 40
  --down-patience 40``;
- ``8-cell n=100``: sweep-small's generator, graph seed 0, ``--feature-missing
  0.3,0.6 --edge-missing 0.3,0.6 --seeds 0,1,2,3 --down-max-epochs 150
  --down-patience 150``.

Each sweep runs PAIRS pairs; which checkout runs first alternates from pair
to pair.  A run's time is its process's wall time, interpreter start
included.  Per pair it prints both times and whether the two runs.csv files
are identical; per sweep, each checkout's median and range and the pairs
AFTER ran faster.  The exit status is 0 when every pair's runs.csv matched.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

import graphcomplete as gc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import MEAN_SCALE, NOISE_SD, WORKLOADS, block_means  # noqa: E402

PAIRS = 10
GRAPH_SEED = 0
SWEEPS = {   # name: (workload whose generator writes the graph, flags)
    "2-cell n=2000": ("recon-large", ["--seeds", "0,1", "--epochs", "3",
                                      "--down-max-epochs", "40", "--down-patience", "40"]),
    "8-cell n=100": ("sweep-small", ["--feature-missing", "0.3,0.6", "--edge-missing", "0.3,0.6",
                                     "--seeds", "0,1,2,3",
                                     "--down-max-epochs", "150", "--down-patience", "150"]),
}


def write_graph(workload: str, path: str) -> None:
    w = WORKLOADS[workload]
    gc.write_dataset(gc.generate_sbm(w.per_block, w.blocks, w.p_in, w.p_out,
                                     block_means(w.blocks, w.d, MEAN_SCALE), NOISE_SD,
                                     seed=GRAPH_SEED), path)


def sweep(checkout: str, data: str, out: str, flags: list) -> tuple[float, bytes]:
    """(seconds, runs.csv) of one sweep run from the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "graphcomplete", "--dataset", data,
                           "--out", out, "--workers", "2", *flags],
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode:
        sys.exit(f"{checkout}: exit status {done.returncode}\n{done.stderr[-2000:]}")
    return seconds, pathlib.Path(out, "runs.csv").read_bytes()


def main(before: str, after: str) -> int:
    same = True
    with tempfile.TemporaryDirectory() as work:
        for name, (workload, flags) in SWEEPS.items():
            data = os.path.join(work, workload)
            write_graph(workload, data)
            times = {before: [], after: []}
            print(f"{name} ({workload}'s generator), seconds: before, after")
            for pair in range(PAIRS):
                runs = {}
                for side in (before, after) if pair % 2 == 0 else (after, before):
                    seconds, runs[side] = sweep(side, data, os.path.join(work, "out"), flags)
                    times[side].append(seconds)
                same &= runs[before] == runs[after]
                print(f"  pair {pair + 1} ({'before' if pair % 2 == 0 else 'after'} first): "
                      f"{times[before][-1]:.2f}, {times[after][-1]:.2f}; runs.csv "
                      f"{'identical' if runs[before] == runs[after] else 'DIFFERS'}", flush=True)
            for label, side in (("before", before), ("after", after)):
                t = times[side]
                print(f"  {label}: median {statistics.median(t):.2f} "
                      f"[{min(t):.2f}, {max(t):.2f}]")
            faster = sum(a < b for a, b in zip(times[after], times[before]))
            print(f"  after faster in {faster}/{PAIRS} pairs")
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
