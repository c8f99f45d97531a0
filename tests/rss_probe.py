#!/usr/bin/env python3
"""Resident memory of one recon-large-shaped cell, phase by phase.

Run from the repository root (Linux only: it reads /proc/self/status):

    PYTHONPATH=src python tests/rss_probe.py --seed 3

One cell runs in this process on the benchmark's recon-large graph and
config, both read from perfbench/workloads.py through tests/paired.py (four
500-node blocks, d=64, 30% of feature entries and edges missing, 3
reconstruction epochs, then a 40-epoch classifier and baseline), with BLAS
on one thread as perfbench runs it.  After each phase it prints
VmRSS, the resident set then, and VmHWM, the peak so far, both in MB: the
diffusion, each reconstruction epoch's forward, backward and Adam step, the
classifier and the baseline.  It finds the phases by wrapping the functions
the cell calls, as perfbench/layers.py does, so it follows the code it
measures.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from graphcomplete import downstream, experiment, nn  # noqa: E402
from paired import WORKLOADS, graph  # noqa: E402


def status_mb() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MB."""
    fields = {}
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(rest.split()[0]) / 1024   # kB
    return fields["VmRSS"], fields["VmHWM"]


def report(phase: str) -> None:
    rss, hwm = status_mb()
    print(f"{phase:24s} VmRSS {rss:7.1f} MB   VmHWM {hwm:7.1f} MB", flush=True)


def after(owner, attr, label):
    """Wrap owner.attr to report once it returns, under the phase name label()
    gives; no report where it gives None."""
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        phase = label()
        if phase is not None:
            report(phase)
        return out

    setattr(owner, attr, wrapper)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=3, help="picks the graph and the cell seed")
    args = p.parse_args(argv)

    ds = graph("recon-large", seed=args.seed)
    cfg = experiment.make_config(overrides=dict(WORKLOADS["recon-large"].config,
                                                seeds=(args.seed,)))

    state = {"phase": "setup", "epoch": 0}

    def in_recon(name):
        def label():
            if state["phase"] != "recon":
                return None
            epoch = state["epoch"] + 1
            if name == "step":
                state["epoch"] = epoch
            return f"epoch {epoch} {name}"
        return label

    def enter(phase):
        def label():
            state["phase"] = phase
            return None
        return label

    report("start")
    after(downstream, "build_diffusion", lambda: "diffusion")
    after(downstream, "structure_targets", enter("recon"))
    after(downstream, "total_contrastive_loss", in_recon("forward"))
    after(downstream, "backward", in_recon("backward"))
    after(nn.Optimizer, "step", in_recon("step"))
    after(experiment, "run_reconstruction", enter("classifier"))
    after(experiment, "train_downstream", lambda: "classifier")
    after(experiment, "train_gcn_baseline", lambda: "baseline")
    (fr, er), = cfg.rate_pairs()
    experiment._run_cell(ds, cfg, fr, er, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
