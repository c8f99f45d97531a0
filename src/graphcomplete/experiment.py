"""Experiment driver: configuration, masking sweeps, seeds, artifacts.

A run is a grid of (missing-rate pair, seed) cells.  Each cell masks the
dataset, trains the reconstruction pipeline and/or the zero-fill baseline,
and reports split accuracies.  Cells are independent jobs; a bounded worker
pool may execute them concurrently, but the collector hands each finished
cell in sweep order to one writer, which builds all of the cell's files, and
then lets the cell go, so outputs are byte-identical across reruns.  The
whole sweep runs its BLAS calls on one thread (pool.one_blas_thread), so they
are also byte-identical across OPENBLAS_NUM_THREADS settings.

ExperimentConfig is the one settings object: it declares every setting once,
with its default, help text and range, and both training phases read its keys
directly.  On disk it is a flat key=value text file; each key is also a
command-line flag (``--`` plus the key with dashes for underscores), and flags
override the file.  Every output file embeds the config digest, which covers
every setting but out and workers, and the seed it came from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy import sparse as sp

from .data import GraphDataset, MaskSpec, load_dataset, make_splits, apply_mask
from .downstream import run_reconstruction, train_downstream, train_gcn_baseline
from .fusion import attention_fuse
from .pool import one_blas_thread

RECON_METHOD = "recon-gcn"
BASELINE_METHOD = "zerofill-gcn"


# every ranged setting and the interval it must lie in, checked once when a
# config is built; the interval is also the error's wording
_RANGES = {
    "alpha": "(0, 1)", "temperature": "(0, inf)",
    "recon_dropout": "[0, 1)", "down_dropout": "[0, 1)",
    **dict.fromkeys(("k", "epochs", "recon_lr", "recon_weight_decay", "down_lr",
                     "down_weight_decay", "down_max_epochs"), "[0, inf)"),
    **dict.fromkeys(("imputer_hidden", "pe_hidden", "ppnp_hidden", "gcn_hidden",
                     "attention_dim", "down_patience", "workers"), "[1, inf)"),
}


def _inside(value, interval: str) -> bool:
    """Whether value lies in an interval written "[lo, hi)", "(lo, hi]" and so on."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above_lo = lo <= value if interval[0] == "[" else lo < value
    below_hi = value <= hi if interval[-1] == "]" else value < hi
    return above_lo and below_hi


def _help(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a run, for the library and the command line alike:
    the two training phases read their keys directly.  Field names double as
    config-file keys and, with dashes, as command-line flags.  A field's
    default fixes its type."""

    dataset: str = _help("", "dataset directory")
    out: str = _help("runs", "output directory")
    feature_missing: tuple = _help((0.3,), "comma list of feature missing rates")
    edge_missing: tuple = _help((0.3,), "comma list of edge missing rates")
    feature_mode: str = _help("entry", "hide single entries or whole rows (entry, row)")
    seeds: tuple = _help((0,), "comma list of seeds")
    baseline: str = _help("with", "run the zero-fill baseline alongside, alone, or not "
                                  "at all (with, only, off)")
    alpha: float = _help(0.1, "diffusion reset probability")
    k: int = _help(20, "neighbors kept per diffusion row (0 keeps all)")
    temperature: float = _help(0.5, "contrastive temperature")
    imputer_hidden: int = _help(256, "hidden width of the feature imputer")
    pe_hidden: int = _help(512, "width of the learned positional embeddings")
    ppnp_hidden: int = _help(256, "hidden width of the structure-path propagation net")
    gcn_hidden: int = _help(64, "hidden width of the downstream classifier")
    attention_dim: int = _help(64, "width of the fusion attention")
    epochs: int = _help(200, "reconstruction epochs")
    recon_lr: float = _help(0.01, "reconstruction learning rate")
    recon_weight_decay: float = _help(0.0, "reconstruction weight decay")
    recon_dropout: float = _help(0.0, "reconstruction dropout rate")
    down_lr: float = _help(0.01, "classifier learning rate")
    down_weight_decay: float = _help(5e-4, "classifier weight decay")
    down_dropout: float = _help(0.5, "classifier dropout rate")
    down_max_epochs: int = _help(500, "most classifier epochs")
    down_patience: int = _help(100, "classifier epochs without a better validation "
                                    "accuracy before stopping")
    dump_embeddings: bool = _help(False, "write per-cell embedding tsv files")
    dump_structure: bool = _help(False, "write per-cell sparsified diffusion edge lists")
    workers: int = _help(1, "sweep cells run at once")

    def __post_init__(self):
        for f in fields(self):
            # any sequence is accepted; tuples keep the digest and hash independent of it
            values, kind = (getattr(self, f.name),), type(f.default)
            if kind is tuple:
                values, kind = tuple(values[0]), type(f.default[0])
            interval = _RANGES.get(f.name)
            for v in values:   # a number's range first, so a NaN int setting is out of range
                if interval and isinstance(v, (int, float)) and not _inside(v, interval):
                    raise ValueError(f"{f.name} {v} outside {interval}")
                if (not isinstance(v, (int, float) if kind is float else kind)   # an int is a float
                        or isinstance(v, bool) != (kind is bool)):   # a bool is only a bool
                    raise TypeError(f"{f.name}: expected {kind.__name__}, got {v!r}")
            try:   # stored as float, so equal values (1, 1.0, np.float64) share a digest
                values = tuple(map(float, values)) if kind is float else values
            except OverflowError:
                raise ValueError(f"{f.name} outside the float range") from None
            object.__setattr__(self, f.name, values if isinstance(f.default, tuple) else values[0])
        nf, ne = len(self.feature_missing), len(self.edge_missing)
        if not (nf and ne) or (nf != ne and 1 not in (nf, ne)):
            raise ValueError(f"cannot pair {nf} feature rates with {ne} edge rates")
        for fr, er in self.rate_pairs():
            MaskSpec(fr, er, self.feature_mode)
        if self.baseline not in ("with", "only", "off"):
            raise ValueError(f"baseline must be with/only/off, got {self.baseline!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        seen = set()
        for name, *_ in self.cells():
            if name in seen:
                raise ValueError(f"sweep cell {name} is listed twice")
            seen.add(name)

    def rate_pairs(self) -> list[tuple[float, float]]:
        fr, er = self.feature_missing, self.edge_missing
        if len(fr) == 1 and len(er) > 1:
            fr = fr * len(er)
        if len(er) == 1 and len(fr) > 1:
            er = er * len(fr)
        return list(zip(fr, er))

    def cells(self) -> list[tuple[str, float, float, int]]:
        """The sweep's cells in run order, as (name, feature rate, edge rate,
        seed); the name tags the cell's loss, embedding and structure files."""
        return [(f"fr{fr:g}_er{er:g}_seed{seed}", fr, er, seed)
                for fr, er in self.rate_pairs() for seed in self.seeds]

    def methods(self) -> list[str]:
        if self.baseline == "only":
            return [BASELINE_METHOD]
        if self.baseline == "off":
            return [RECON_METHOD]
        return [RECON_METHOD, BASELINE_METHOD]

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in ("out", "workers"):   # where and how fast, never what
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# config file and overrides

def _coerce(name: str, raw):
    """Read a string value as the type of the field's default; other values pass."""
    if name not in ExperimentConfig.__dataclass_fields__:
        raise ValueError(f"unknown config key {name!r}")
    default = ExperimentConfig.__dataclass_fields__[name].default
    if not isinstance(raw, str):
        return raw
    if isinstance(default, bool):
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return raw.lower() in ("true", "1", "yes")
    kind = type(default[0]) if isinstance(default, tuple) else type(default)
    try:
        if isinstance(default, tuple):
            return tuple(kind(x) for x in raw.split(","))   # an empty entry fails
        return kind(raw)
    except ValueError:
        raise ValueError(f"{name}: expected {kind.__name__} values, got {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; # starts a comment; keys must be config fields, each set once."""
    known = {f.name for f in fields(ExperimentConfig)}
    out, set_on = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
            out[key], set_on[key] = _coerce(key, value), lineno
    return out


def make_config(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for k, v in source.items():
            if v is not None:
                merged[k] = _coerce(k, v)
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# artifact writers


def _write_tsv(path: str, header: str, matrix, columns: str | None = None,
               sep: str = "\t", digits: int = 12) -> None:
    """The one table format of the per-cell artifacts: a '# header' line, the
    column names if given, then one line per row of a dense matrix (row index,
    the row's values) or per stored entry of a sparse one (u, v, weight), in
    row-major order, fields joined by sep, values to that many significant
    digits.  The file's directory is made when the file is written."""
    if sp.issparse(matrix):
        coo = sp.coo_array(matrix)
        order = np.lexsort((coo.col, coo.row))
        keys, values = np.column_stack((coo.row, coo.col))[order], coo.data[order, None]
    else:
        keys, values = np.arange(len(matrix))[:, None], np.asarray(matrix)
    spec = f".{digits}g"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        if columns:
            fh.write(f"{columns}\n")
        for key, row in zip(keys, values):
            fh.write(sep.join([*map(str, key), *(format(v, spec) for v in row)]) + "\n")


def _write_cell(runs, accs: dict, cfg: ExperimentConfig, cell, recon, results) -> None:
    """Write one finished cell: its rows of the open runs.csv, its loss curves
    and, when asked for, its embeddings and structure, and add its test
    accuracies to accs for the summary.  Every per-cell path is built here."""
    tag, fr, er, seed = cell
    head = f"config={cfg.digest()} seed={seed} feature_missing={fr:g} edge_missing={er:g}"
    if recon is not None:
        _write_tsv(os.path.join(cfg.out, "losses", f"recon_{tag}.csv"), head,
                   recon.loss_history, "epoch,feature_term,structure_term,total", ",", 10)
    for method, res in results.items():
        m = res.metrics
        runs.write(f"{fr:g},{er:g},{seed},{method},"
                   f"{m.test_accuracy:.10g},{m.val_accuracy:.10g},"
                   f"{m.train_accuracy:.10g},{m.best_epoch}\n")
        runs.flush()
        accs.setdefault((fr, er, method), []).append(m.test_accuracy)
        _write_tsv(os.path.join(cfg.out, "losses", f"downstream_{tag}_{method}.csv"),
                   f"{head} method={method}", np.asarray(m.loss_curve)[:, None],
                   "epoch,loss", ",", 10)
    if recon is not None and cfg.dump_embeddings:
        cell_dir = os.path.join(cfg.out, "embeddings", tag)
        fusion_out = attention_fuse(recon.imputed, recon.propagated, results[RECON_METHOD].store)
        for view, matrix in (("fused", fusion_out.fused.value),
                             ("imputed", recon.imputed),
                             ("propagated", recon.propagated)):
            _write_tsv(os.path.join(cell_dir, f"{view}.tsv"), f"{head} view={view}", matrix)
        _write_tsv(os.path.join(cell_dir, "fusion_weights.tsv"),
                   f"{head} view=weights", fusion_out.weights,
                   "node\tw_feature\tw_structure")
    if recon is not None and cfg.dump_structure:
        _write_tsv(os.path.join(cfg.out, "structure", f"{tag}.tsv"), head,
                   recon.diffusion_topk)


# ---------------------------------------------------------------------------
# the sweep


def _run_cell(ds: GraphDataset, cfg: ExperimentConfig, fr: float, er: float, seed: int):
    masked = apply_mask(ds, MaskSpec(feature_missing_rate=fr, edge_missing_rate=er,
                                     feature_mode=cfg.feature_mode, seed=seed))
    splits = make_splits(masked, seed=seed)
    results = {}
    recon = None
    if RECON_METHOD in cfg.methods():
        recon = run_reconstruction(masked, cfg, seed)
        results[RECON_METHOD] = train_downstream(
            recon, masked.labels, masked.num_classes, splits, cfg, seed)
    if BASELINE_METHOD in cfg.methods():
        results[BASELINE_METHOD] = train_gcn_baseline(masked, splits, cfg, seed)
    return recon, results


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the sweep and write runs.csv, loss curves, summary.json.

    Returns {"paths": ..., "summary": nested mean/sd dict} for callers that
    want the numbers without re-reading the files.
    """
    if not cfg.dataset:
        raise ValueError("dataset path is required")
    ds = load_dataset(cfg.dataset)
    os.makedirs(cfg.out, exist_ok=True)

    accs: dict[tuple, list] = {}
    runs_path = os.path.join(cfg.out, "runs.csv")

    with open(runs_path, "w", encoding="utf-8") as runs, \
            ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        runs.write(f"# config={cfg.digest()}\n")
        runs.write("feature_missing,edge_missing,seed,method,"
                   "test_accuracy,val_accuracy,train_accuracy,best_epoch\n")
        cells = cfg.cells()
        # closed on the way out, so an error, in a cell or in its writer, cancels the queued cells
        with closing(pool.map(lambda cell: _run_cell(ds, cfg, *cell[1:]), cells)) as finished:
            for tag, fr, er, seed in cells:
                try:
                    recon, results = next(finished)
                except Exception as exc:
                    raise RuntimeError(
                        f"cell feature_missing={fr} edge_missing={er} seed={seed} failed: {exc}"
                    ) from exc
                _write_cell(runs, accs, cfg, (tag, fr, er, seed), recon, results)
                del recon, results   # a written cell is let go before the next one is awaited

    summary = {"digest": cfg.digest(), "config": asdict(cfg), "results": {}}
    for (fr, er, method), values in accs.items():
        key = f"feature_missing={fr:g},edge_missing={er:g}"
        arr = np.asarray(values)
        summary["results"].setdefault(method, {})[key] = {
            "mean": float(arr.mean()),
            "sd": float(arr.std()),
            "n": int(arr.size),
            "test_accuracies": [float(v) for v in values],
        }
    summary_path = os.path.join(cfg.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"paths": {"runs": runs_path, "summary": summary_path, "out": cfg.out},
            "summary": summary}


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphcomplete",
        description="Reconstruct missing node features and edges, then "
                    "classify nodes; sweeps missing rates over seeds.")
    p.add_argument("--config", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        # every flag defaults to None, which make_config reads as "not given"
        switch = {"action": "store_true"} if isinstance(f.default, bool) else {}
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                       help=f.metadata.get("help"), **switch)
    return p


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    config_path = overrides.pop("config")
    try:
        file_values = parse_config_file(config_path) if config_path else {}
        cfg = make_config(file_values, overrides)
        result = run_experiment(cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for method, per_rate in sorted(result["summary"]["results"].items()):
        for key, stats in sorted(per_rate.items()):
            print(f"{key} {method}: mean={stats['mean']:.4f} "
                  f"sd={stats['sd']:.4f} n={stats['n']}")
    print(f"outputs in {result['paths']['out']} (config {result['summary']['digest']})")
    return 0
