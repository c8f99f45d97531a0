"""Sweeping missing rates with the experiment driver.

The driver owns the full grid: (feature rate, edge rate) x seed x method,
with every artifact written under one output directory keyed by a config
digest.  Reruns of the same config are byte-identical, so results can be
diffed rather than trusted.
"""

import atexit
import csv
import json
import pathlib
import shutil
import tempfile

import graphcomplete as gc
from graphcomplete.data import two_block_features
from graphcomplete.experiment import (BASELINE_METHOD, RECON_METHOD,
                                      ExperimentConfig, run_experiment)

work = pathlib.Path(tempfile.mkdtemp(prefix="sweep-"))
atexit.register(shutil.rmtree, work)   # the sweep's files go when the demo ends

# The clean benchmark graph lives on disk like any real dataset would.
clean = gc.generate_sbm(50, 2, 0.3, 0.02, two_block_features(16) * 0.05,
                        noise_sd=0.5, seed=0)
dataset_dir = work / "benchmark"
gc.write_dataset(clean, dataset_dir)

# Equal feature and edge damage, ramped together.  Three seeds per cell
# keeps this demo quick; the acceptance suite uses ten.
rates = (0.2, 0.4, 0.6, 0.8)
config = ExperimentConfig(
    dataset=str(dataset_dir),
    out=str(work / "runs"),
    feature_missing=rates,
    edge_missing=rates,
    seeds=(0, 1, 2),
    baseline="with",
    k=20,
    epochs=60,
    down_max_epochs=200,
    down_patience=40,
)
print("config digest:", config.digest())
print("cells:", len(config.rate_pairs()), "rate pairs x",
      len(config.seeds), "seeds x", len(config.methods()), "methods")

result = run_experiment(config)
results = result["summary"]["results"]

# --- the accuracy curve ---------------------------------------------------------
print("\nfeature/edge missing   reconstruction   zero-fill   lift")
for fr, er in config.rate_pairs():
    key = f"feature_missing={fr:g},edge_missing={er:g}"
    rec = results[RECON_METHOD][key]
    base = results[BASELINE_METHOD][key]
    print(f"        {fr:.1f} / {er:.1f}        "
          f"{rec['mean']:.3f} +- {rec['sd']:.3f}    "
          f"{base['mean']:.3f}     {rec['mean'] - base['mean']:+.3f}")

# --- what landed on disk --------------------------------------------------------
out = pathlib.Path(config.out)
print("\nartifacts under", out.name + "/")
for p in sorted(out.rglob("*"))[:8]:
    print("  ", p.relative_to(out))
print("   ...")

with open(out / "runs.csv") as fh:
    digest_line = fh.readline().strip()
    rows = list(csv.DictReader(fh))
print(f"\nruns.csv: {len(rows)} rows, tagged '{digest_line}'")

# summary.json holds the same numbers the driver just returned.
stored = json.loads((out / "summary.json").read_text())
print("summary.json agrees with returned summary:",
      stored["results"] == results)
