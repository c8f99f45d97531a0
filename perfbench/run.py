#!/usr/bin/env python3
"""Benchmark of the graphcomplete completion pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process: set-up, then whole ``run_experiment``
reruns for BENCHMARK.json's ``run_seconds``, then per-cell correctness
checks.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it holds the
environment fingerprint.  ``--workload all`` runs every workload in a fresh
child process and prints each metric with its unit and direction.

The package is imported from ``src/`` of the same checkout; outputs go to
``.perfbench_out/`` there.  See perfbench/README.md for the workloads and the
layer map.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# one BLAS thread: steadier on a shared machine, and never above nproc
BLAS_THREADS = 1
SETUP_REPEATS = 7
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def fingerprint(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def import_package() -> None:
    """Start a fresh interpreter that imports the package."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import graphcomplete", SRC], check=True, timeout=120)


def run_one(args, spec: dict) -> int:
    for var in _BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if not os.path.isdir(os.path.join(SRC, "graphcomplete")):
        print(f"error: no graphcomplete package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads      # imports numpy and graphcomplete
    from tracer import write_jsonl

    env = fingerprint(args)
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    bench = workloads.Bench(args.workload, args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = bench.clock.read()
        import_package()
        bench.setup()
        setups.append(bench.clock.read() - start)
    setup_s = statistics.median(setups)
    bench.measure(spec["run_seconds"], bool(args.trace))
    values = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    if args.trace:
        write_jsonl(bench.traced_spans(), os.path.join(workdir, "spans.jsonl"))
    for c in bench.cells:
        if c["problems"]:
            print(f"cell {c['key']} rerun {c['rerun']}: {'; '.join(c['problems'])}",
                  file=sys.stderr)

    failed = bench.failed()
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.cells),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own child process, then one table."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"# {w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  ({w['why']})")
        for m in listed:
            value = result["metrics"][m["name"]]["value"]
            print(f"{w['name']:12s} {m['name']:52s} {value:14.6g} {m['unit']:6s} "
                  f"{m['better']} is better")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0, help="picks the graph and the cell seed")
    # accepted so the run length can be stated on the command line, but
    # fixed: runs compared with each other must measure the same window
    p.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                   default=spec["run_seconds"],
                   help="measuring time, always BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1 reports per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
