"""Pin the bytes of a few small runs in tests/golden.json.

    python tests/update_golden.py

rewrites the entry for this machine's numpy, scipy and OpenBLAS builds (the
fingerprint below) and keeps every other build's entry.  An entry maps each
pinned output to its sha256:

- ``sbm100/<file>``: every output file of a 2x2 sweep (rate pairs (0.3, 0.3)
  and (0.6, 0.6), seeds 0 and 1) of tests/conftest.py's ``sbm_fixture``, n=100;
- ``sbm256/<file>``: every output file of conftest.py's 2-seed sweep
  ``SBM256_FLAGS`` of ``sbm256_fixture``, n=256, which test_experiment.py's
  row-block threads test also runs: the smallest graph whose contrastive
  terms run their row blocks in float32 and whose diffusion is solved in
  float32 (objective.F32_ROWS; the default alpha 0.1 is above
  structure_path.F32_MIN_ALPHA);
- ``demo/<script>``: the stdout of demos 01-04.

Each sweep runs with an empty working directory and the relative paths
``data`` and ``out``: the config digest at the head of every output file
covers the dataset path as given, so an absolute path would tie the bytes to
one checkout.  tests/test_golden.py makes the same runs and compares.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))

if __name__ == "__main__":   # pytest puts these on the path itself
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np
import scipy

import graphcomplete as gc
from graphcomplete.experiment import main

from conftest import SBM256_FLAGS, sbm256_fixture, sbm_fixture

SWEEPS = {   # name: (the graph, the sweep's flags but --dataset, --out and --workers)
    "sbm100": (sbm_fixture,
               ["--feature-missing", "0.3,0.6", "--edge-missing", "0.3,0.6", "--seeds", "0,1",
                "--epochs", "50", "--down-max-epochs", "100",
                "--dump-embeddings", "--dump-structure"]),
    "sbm256": (sbm256_fixture, SBM256_FLAGS),
}


def fingerprint() -> str:
    """The numpy and scipy versions and each loaded OpenBLAS's build string,
    which names its version and the CPU kernels it chose."""
    from scipy.linalg import lapack  # noqa: F401  (loads scipy's OpenBLAS)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    except OSError:   # no /proc: the versions alone, which no entry is keyed by
        paths = []
    builds = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                builds.append(get().decode().strip())
                break
    return "; ".join([f"numpy {np.__version__}", f"scipy {scipy.__version__}",
                      *(sorted(builds) or ["no OpenBLAS"])])


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sweep_digests(name: str, workers: int) -> dict:
    """Run sweep `name` in the working directory, which must be empty, and
    return {name/relative path: sha256} of every file it wrote."""
    graph, flags = SWEEPS[name]
    gc.write_dataset(graph(), "data")
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([*flags, "--dataset", "data", "--out", "out", "--workers", str(workers)])
    if status != 0:
        raise RuntimeError(f"sweep {name} failed")
    out = pathlib.Path("out")
    return {f"{name}/{p.relative_to(out).as_posix()}": sha256(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def demo_digests(workdir) -> dict:
    """{demo/<script stem>: sha256 of its stdout} for demos 01-04, each run in workdir."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = {}
    for script in DEMOS:
        done = subprocess.run([sys.executable, str(script)], cwd=workdir, env=env,
                              capture_output=True, check=True, timeout=300)
        out[f"demo/{script.stem}"] = sha256(done.stdout)
    return out


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def update() -> None:
    digests = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name in SWEEPS:
            os.mkdir(os.path.join(tmp, name))
            os.chdir(os.path.join(tmp, name))
            try:
                digests.update(sweep_digests(name, workers=1))
            finally:
                os.chdir(home)
        digests.update(demo_digests(tmp))
    golden, key = load(), fingerprint()
    old = golden.get(key, {})
    for name in sorted(set(old) | set(digests)):
        if old.get(name) != digests.get(name):
            print(("new " if name not in old else "gone " if name not in digests
                   else "changed ") + name)
    golden[key] = dict(sorted(digests.items()))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests for {key}")


if __name__ == "__main__":
    update()
