"""The benchmark's workloads, their inputs, the measured loop and its checks.

Every workload is a ``run_experiment`` sweep over a synthetic SBM graph written
to disk, so each one passes through every pipeline layer; the workloads differ
in graph size and sweep shape.  The workload seed picks the graph and the cell
seed; the program only ever sees the files.

Downstream training runs a fixed number of epochs (patience equals the epoch
cap), so per-cell times measure per-epoch cost, not how early a given seed's
validation accuracy happened to peak.  Untraced cells are timed on the speed
clock of ``speed.py`` as well as by their spans.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import graphcomplete as gc
from graphcomplete import experiment, nn

import layers
from speed import SpeedClock
from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    blocks: int
    per_block: int
    d: int
    p_in: float
    p_out: float
    config: dict          # ExperimentConfig overrides


WORKLOADS = {
    # tests/conftest.py::sbm_fixture swept from light to near-total damage:
    # interpreter, tape and per-parameter optimizer overhead dominate
    "sweep-small": Workload(
        blocks=2, per_block=50, d=16, p_in=0.3, p_out=0.02,
        config=dict(feature_missing=(0.1, 0.4, 0.7, 0.9),
                    edge_missing=(0.1, 0.4, 0.7, 0.9),
                    baseline="with", down_max_epochs=150, down_patience=150)),
    # dense n x n regime: PPR solve, top-k, Gram/sigmoid and InfoNCE dominate
    "recon-large": Workload(
        blocks=4, per_block=500, d=64, p_in=0.016, p_out=0.0013,
        config=dict(feature_missing=(0.3,), edge_missing=(0.3,), epochs=3,
                    baseline="with", down_max_epochs=40, down_patience=40)),
}

MIN_RERUNS = 2
# block means close together relative to the noise, as in sbm_fixture, so
# accuracy is not saturated
MEAN_SCALE = 0.05
NOISE_SD = 0.5


def block_means(blocks: int, d: int, scale: float) -> np.ndarray:
    """Disjoint feature supports per block; two blocks give two_block_features."""
    means = np.zeros((blocks, d))
    width = d // blocks
    for b in range(blocks):
        means[b, b * width: d if b == blocks - 1 else (b + 1) * width] = scale
    return means


def _same_dataset(a: gc.GraphDataset, b: gc.GraphDataset) -> bool:
    return (np.array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
            and np.array_equal(a.feature_mask, b.feature_mask)
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.labels, b.labels)
            and a.num_classes == b.num_classes)


def build_inputs(w: Workload, seed: int, workdir: str, tracer: Tracer):
    """Generate, write and reload the graph; mask it once per cell as the
    reference the checks compare against.  Returns (config, references)."""
    path = os.path.join(workdir, "dataset")
    shutil.rmtree(path, ignore_errors=True)
    with tracer.span("data.generate_sbm"):
        clean = gc.generate_sbm(w.per_block, w.blocks, w.p_in, w.p_out,
                                block_means(w.blocks, w.d, MEAN_SCALE),
                                NOISE_SD, seed=seed)
    with tracer.span("data.write_dataset"):
        gc.write_dataset(clean, path)
    with tracer.span("data.load_dataset"):
        loaded = gc.load_dataset(path)
    if not _same_dataset(clean, loaded):
        raise RuntimeError("dataset changed in a write/load round trip")
    cfg = experiment.make_config(overrides=dict(
        w.config, dataset=path, out=os.path.join(workdir, "out"),
        seeds=(seed,), workers=1))
    refs = {}
    for fr, er in cfg.rate_pairs():
        with tracer.span("data.apply_mask"):
            masked = gc.apply_mask(loaded, gc.MaskSpec(fr, er, cfg.feature_mode, seed))
        with tracer.span("data.make_splits"):
            gc.make_splits(masked, seed=seed)
        refs[(fr, er, seed)] = masked
    return cfg, refs


def cell_digest(recon, results) -> str:
    """Hash of everything a cell reports, bit for bit."""
    h = hashlib.sha256()
    h.update(recon.loss_history.tobytes())
    h.update(recon.imputed.tobytes())
    for method in sorted(results):
        m = results[method].metrics
        h.update(method.encode())
        h.update(np.asarray(m.loss_curve, dtype=np.float64).tobytes())
        h.update(np.array([m.train_accuracy, m.val_accuracy, m.test_accuracy,
                           m.best_epoch], dtype=np.float64).tobytes())
    return h.hexdigest()


def check_cell(recon, results, ref: gc.GraphDataset, k: int) -> list[str]:
    """Invariants every cell must satisfy; returns the violations found."""
    problems = []
    if not np.all(np.isfinite(recon.loss_history)):
        problems.append("non-finite reconstruction loss")
    obs = ref.feature_mask
    if not np.array_equal(recon.imputed[obs].view(np.uint64), ref.features[obs].view(np.uint64)):
        problems.append("observed feature entries changed")
    if np.diff(recon.diffusion_topk.indptr).max() > min(k, ref.n):
        problems.append(f"a top-k row holds more than k={k} nonzeros")
    for method, res in results.items():
        m = res.metrics
        if not np.all(np.isfinite(m.loss_curve)):
            problems.append(f"{method}: non-finite classifier loss")
        if not all(0.0 <= a <= 1.0 for a in (m.train_accuracy, m.val_accuracy, m.test_accuracy)):
            problems.append(f"{method}: accuracy outside [0, 1]")
    return problems


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


class Bench:
    """One workload in one process: set-up, measured reruns, results."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        self.cells: list[dict] = []     # one record per attempted cell
        self.reruns: list[dict] = []
        self.tape_sizes: dict = {}
        self._captured: list = []
        self.clock = SpeedClock(self.tracer, layers.REFERENCE)
        self._scaled: dict[int, float] = {}     # span index -> rescaled seconds

    def setup(self) -> None:
        self.cfg, self.refs = build_inputs(self.workload, self.seed, self.workdir, self.tracer)

    def _new_record(self, key, traced: bool) -> dict:
        """Record of one attempted cell of the rerun in progress."""
        rec = {"key": key, "rerun": len(self.reruns), "traced": traced, "problems": []}
        self.cells.append(rec)
        return rec

    def _capture_cells(self, traced: bool) -> None:
        """Number each cell for the tracer and keep its outputs for checking.

        Each cell also records its own time outside the reference kernel
        and, untraced, its rescaled duration.
        """
        def make(run_cell):
            def capture(ds, cfg, fr, er, seed):
                clock_start = None if traced else self.clock.read()
                first_span = len(self.tracer.spans)
                self.tracer.cell = len(self.cells)
                rec = self._new_record((fr, er, seed), traced)
                try:
                    out = run_cell(ds, cfg, fr, er, seed)
                except Exception as exc:
                    rec["problems"].append(f"raised {exc!r}")
                    raise
                finally:
                    self.tracer.cell = None
                spans = self.tracer.spans[first_span:]
                rec["work_s"] = spans[-1].total_s - sum(    # the cell span closed last
                    s.total_s for s in spans if s.name == layers.REFERENCE)
                if not traced:
                    self._scaled[len(self.tracer.spans) - 1] = self.clock.read() - clock_start
                self._captured.append((rec, out))
                return out
            return capture
        self.tracer.patch(experiment, "_run_cell", make)

    def _clock_parts(self) -> None:
        """Read the speed clock around each timed part of a cell, and let it
        tick during long parts at optimizer steps."""
        def make(run_part):
            def clocked(*args, **kwargs):
                start = self.clock.read()
                out = run_part(*args, **kwargs)
                span = len(self.tracer.spans) - 1       # the part's span closed last
                self._scaled[span] = self.clock.read() - start
                return out
            return clocked
        for attr in ("run_reconstruction", "train_downstream", "train_gcn_baseline"):
            self.tracer.patch(experiment, attr, make)

        def make_step(step):
            def ticking(*args, **kwargs):
                out = step(*args, **kwargs)
                self.clock.maybe_tick()
                return out
            return ticking
        self.tracer.patch(nn.Optimizer, "step", make_step)

    def install(self, traced: bool) -> None:
        self.tracer.unwrap_all()
        layers.install_coarse(self.tracer)
        if traced:
            layers.install_fine(self.tracer, self.tape_sizes)
        else:
            self._clock_parts()
        self._capture_cells(traced)

    def rerun(self, traced: bool) -> None:
        """One full run_experiment; checks run after it, outside every span."""
        self.install(traced)
        out = self.cfg.out
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            experiment.run_experiment(self.cfg)
            error = None
        except Exception:     # a failed cell must not end the benchmark
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        info = {"seconds": time.perf_counter() - t0, "error": error, "traced": traced}
        runs_path = os.path.join(out, "runs.csv")
        info["runs_csv"] = b""
        if os.path.exists(runs_path):
            with open(runs_path, "rb") as fh:
                info["runs_csv"] = fh.read()
        info["bytes_written"] = _dir_bytes(out)
        info["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if error is not None:
            # a crash outside every cell (loading, writing runs.csv or loss
            # files) fails each cell of the rerun; one before the first cell
            # still counts as an attempted, failed cell
            this = [c for c in self.cells if c["rerun"] == len(self.reruns)]
            for rec in this or [self._new_record(None, traced)]:
                rec["problems"].append(
                    "run_experiment raised " + error.strip().splitlines()[-1])
        self.reruns.append(info)
        self._check_captured(info)

    def _check_captured(self, info: dict) -> None:
        for rec, (recon, results) in self._captured:
            rec["problems"] += check_cell(recon, results, self.refs[rec["key"]], self.cfg.k)
            rec["digest"] = cell_digest(recon, results)
            rec["topk_nnz"] = recon.diffusion_topk.nnz
            rec["param_count"] = sum(t.value.size for _, t in recon.params.items())
            rec["param_bytes"] = sum(t.value.nbytes for _, t in recon.params.items())
            main = results[experiment.RECON_METHOD].metrics
            rec["epochs_run"] = len(main.loss_curve)
            rec["best_epoch"] = main.best_epoch
            rec["acc"] = {m: r.metrics.test_accuracy for m, r in results.items()}
        self._captured.clear()
        # the reference is the first rerun that finished; a failed one has
        # already failed its cells
        first = next(r for r in self.reruns if r["error"] is None or r is info)
        this = [c for c in self.cells if c["rerun"] == len(self.reruns) - 1]
        if info["error"] is None and info["runs_csv"] != first["runs_csv"]:
            for rec in this:
                rec["problems"].append("runs.csv differs from the first rerun's")
        # every repeat of a cell, traced or not, must match its first run
        for rec in this:
            if "digest" not in rec:
                continue
            ref = next(c for c in self.cells if c["key"] == rec["key"] and "digest" in c)
            if rec["digest"] != ref["digest"]:
                rec["problems"].append("outputs differ from an earlier run of this cell")

    def measure(self, seconds: float, trace: bool) -> None:
        """Rerun until the next rerun would pass the time budget.

        A traced run alternates untraced and traced reruns, so the untraced
        ones, met under the same machine conditions, are the reference for
        the tracing overhead and for bit-identical outputs.
        """
        t0 = time.perf_counter()
        while True:
            self.rerun(traced=trace and len(self.reruns) % 2 == 1)
            elapsed = time.perf_counter() - t0
            if len(self.reruns) >= MIN_RERUNS and elapsed + self.reruns[-1]["seconds"] > seconds:
                break
        self.tracer.unwrap_all()

    # -- results ------------------------------------------------------------

    def failed(self) -> int:
        return sum(1 for c in self.cells if c["problems"])

    def _scaled_median(self, name: str) -> float:
        """Median rescaled duration of the named span over the untraced cells."""
        return statistics.median(v for i, v in self._scaled.items()
                                 if self.tracer.spans[i].name == name)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        acc = {}     # per distinct cell: repeats are checked to be identical
        for c in self.cells:
            if "acc" in c:
                acc.setdefault(c["key"], c["acc"])
        attempted = len(self.cells)
        return {
            "setup_s": setup_s,
            "cell_s": self._scaled_median(layers.CELL),
            "recon_s": self._scaled_median(layers.RECON),
            "downstream_s": self._scaled_median(layers.DOWN),
            "baseline_s": self._scaled_median(layers.BASE),
            # later reruns repeat the same work, but glibc sometimes keeps
            # freed blocks of an earlier rerun's worker thread, so the
            # process maximum after them grows by chance (up to 27% seen)
            "peak_rss_mb": self.reruns[0]["max_rss_mb"],
            "recon_test_acc": statistics.fmean(a[experiment.RECON_METHOD] for a in acc.values()),
            "baseline_test_acc": statistics.fmean(
                a[experiment.BASELINE_METHOD] for a in acc.values()),
            "ok_frac": (attempted - self.failed()) / attempted,
        }

    def traced_spans(self) -> list:
        """Set-up spans plus those of the traced reruns.

        Untraced reruns record spans only inside cells and around the
        reference kernel.
        """
        return [s for s in self.tracer.spans if s.cell is None or self.cells[s.cell]["traced"]]

    def per_layer(self) -> dict[str, float]:
        cells = [c for c in self.cells if c["traced"] and "digest" in c]
        reruns = [r for r in self.reruns if r["traced"]]
        return layers.layer_metrics(
            self.traced_spans(), cells, reruns, self.tape_sizes,
            statistics.median(c["work_s"] for c in self.cells
                              if not c["traced"] and "work_s" in c))
