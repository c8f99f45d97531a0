"""Which pipeline calls become spans, and how spans become per-layer metrics.

Span names are ``<module>.<public function>``.  Each entry of ``_FINE`` is the
binding a caller resolves: ``downstream`` imports ``build_diffusion``,
``backward`` and friends by name, so those are wrapped on ``downstream``, while
calls that stay inside one module (``build_diffusion`` calling
``ppr_closed_form``) are wrapped on the defining module.
"""

from __future__ import annotations

import statistics

import numpy as np

from graphcomplete import (
    autodiff,
    downstream,
    experiment,
    nn,
    objective,
    structure_path,
)

RECON = "downstream.run_reconstruction"
DOWN = "downstream.train_downstream"
BASE = "downstream.train_gcn_baseline"
CELL = "experiment.cell"
REFERENCE = "bench.reference"     # the machine-speed kernel between cells

# the end-to-end timers: present in traced and untraced runs alike
_COARSE = (
    (experiment, "_run_cell", CELL),
    (experiment, "run_reconstruction", RECON),
    (experiment, "train_downstream", DOWN),
    (experiment, "train_gcn_baseline", BASE),
)

# (owner, attribute, span name, measure peak memory)
_FINE = (
    (experiment, "run_experiment", "experiment.run_experiment", False),
    (experiment, "load_dataset", "data.load_dataset", False),
    (experiment, "apply_mask", "data.apply_mask", False),
    (experiment, "make_splits", "data.make_splits", False),
    (downstream, "build_diffusion", "structure_path.build_diffusion", False),
    (structure_path, "normalize_adjacency", "structure_path.normalize_adjacency", False),
    (downstream, "normalize_adjacency", "structure_path.normalize_adjacency", False),
    (structure_path, "ppr_closed_form", "structure_path.ppr_closed_form", False),
    (structure_path, "knn_sparsify", "structure_path.knn_sparsify", False),
    (downstream, "ppnp_forward", "structure_path.ppnp_forward", False),
    (downstream, "impute_features", "feature_path.impute_features", False),
    (downstream, "decode_structure", "feature_path.decode_structure", True),
    (downstream, "total_contrastive_loss", "objective.total_contrastive_loss", True),
    (objective, "feature_contrastive_loss", "objective.feature_contrastive_loss", True),
    (objective, "structure_contrastive_loss", "objective.structure_contrastive_loss", True),
    (nn.Optimizer, "step", "nn.Optimizer.step", False),
    (nn.ParamStore, "snapshot", "nn.ParamStore.snapshot", False),
    (downstream, "attention_fuse", "fusion.attention_fuse", False),
    (downstream, "gcn_forward", "downstream.gcn_forward", False),
    (downstream, "cross_entropy_loss", "downstream.cross_entropy_loss", False),
    (downstream, "evaluate", "downstream.evaluate", False),
    (downstream, "downstream_propagation_matrix",
     "downstream.downstream_propagation_matrix", False),
)

# layers timed once or a few times per cell: reported as per-cell totals
_PER_CELL = (
    "data.generate_sbm", "data.apply_mask", "data.make_splits",
    "data.load_dataset", "data.write_dataset",
    "structure_path.normalize_adjacency", "structure_path.ppr_closed_form",
    "structure_path.knn_sparsify", "structure_path.build_diffusion",
    "nn.ParamStore.snapshot", "downstream.downstream_propagation_matrix",
)

# layers called every epoch: reported per call with median, p95 and count
_PER_CALL = (
    "structure_path.ppnp_forward",
    "feature_path.impute_features",
    "feature_path.decode_structure",
    "objective.feature_contrastive_loss",
    "objective.structure_contrastive_loss",
    "objective.total_contrastive_loss",
    "autodiff.backward.recon",
    "autodiff.backward.downstream",
    "nn.Optimizer.step",
    "fusion.attention_fuse",
    "downstream.gcn_forward",
    "downstream.cross_entropy_loss",
    "downstream.evaluate",
)

_PEAK = (
    "feature_path.decode_structure",
    "objective.feature_contrastive_loss",
    "objective.structure_contrastive_loss",
    "objective.total_contrastive_loss",
)

# spans whose self time no layer metric claims
_CONTAINERS = (CELL, RECON, DOWN, BASE)


def install_coarse(tracer) -> None:
    for owner, attr, name in _COARSE:
        tracer.wrap(owner, attr, name)


def install_fine(tracer, tape_sizes: dict) -> None:
    """Wrap every layer binding; tape_sizes[cell] gets the first recon tape."""
    for owner, attr, name, peak in _FINE:
        tracer.wrap(owner, attr, name, peak=peak)

    def backward_name():
        phase = "recon" if tracer.in_phase(RECON) else "downstream"
        return f"autodiff.backward.{phase}"

    def walk_tape(root):
        if tracer.in_phase(RECON) and tracer.cell not in tape_sizes:
            tape_sizes[tracer.cell] = tape_size(root)

    tracer.wrap(downstream, "backward", backward_name, before=walk_tape)


def tape_size(root: autodiff.Tensor) -> tuple[int, int]:
    """(node count, value bytes) of the tape reachable from root.

    Arrays held only by vjp closures (operands of products, masks) are not
    counted; the walk reads Tensor._parents, the tape's own edge list.
    """
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.value.nbytes
        for parent, _ in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _step_intervals(spans, phase: str) -> list[float]:
    """Seconds between consecutive optimizer-step ends of one phase in a cell.

    Each interval is one whole epoch: forward, loss, backward and step, plus
    evaluation and checkpointing in the downstream phase.
    """
    ends: dict = {}
    for s in spans:
        if s.name == "nn.Optimizer.step" and s.phase == phase:
            ends.setdefault(s.cell, []).append(s.end_s)
    return [b - a for e in ends.values() for a, b in zip(e, e[1:])]


def layer_metrics(spans, cells: list[dict], reruns: list[dict], tape_sizes: dict,
                  untraced_cell_s: float) -> dict[str, float]:
    """Aggregate traced spans into the per-layer metrics, all in plain numbers.

    spans must hold only traced work (set-up and traced reruns); cells and
    reruns are the records of the traced, completed cells and reruns.
    """
    out: dict[str, float] = {}
    per_cell: dict[str, dict] = {}
    per_call: dict[str, list] = {}
    peaks: dict[str, list] = {}
    for i, s in enumerate(spans):
        # calls outside any cell (set-up, dataset loads) form groups of one
        group = s.cell if s.cell is not None else ("call", i)
        bucket = per_cell.setdefault(s.name, {})
        bucket[group] = bucket.get(group, 0.0) + s.self_s
        per_call.setdefault(s.name, []).append(s.self_s)
        if s.peak_bytes is not None:
            peaks.setdefault(s.name, []).append(s.peak_bytes)

    for name in _PER_CELL:
        out[f"{name}.ms"] = 1e3 * _median(list(per_cell.get(name, {}).values()))
    for name in _PER_CALL:
        calls = per_call.get(name, [])
        out[f"{name}.ms_per_call"] = 1e3 * _median(calls)
        out[f"{name}.ms_per_call.p95"] = 1e3 * float(np.percentile(calls, 95)) if calls else 0.0
        out[f"{name}.n"] = len(calls)
    for name in _PEAK:
        out[f"{name}.peak_mb"] = _median(peaks.get(name, [])) / 2**20

    out["structure_path.topk_nnz"] = _median([c["topk_nnz"] for c in cells])
    out["autodiff.recon_tape_nodes"] = _median([n for n, _ in tape_sizes.values()])
    out["autodiff.recon_tape_mb"] = _median([b for _, b in tape_sizes.values()]) / 2**20
    out["nn.param_count"] = _median([c["param_count"] for c in cells])
    out["nn.param_mb"] = _median([c["param_bytes"] for c in cells]) / 2**20
    out["downstream.epochs_run"] = _median([c["epochs_run"] for c in cells])
    out["downstream.best_epoch"] = _median([c["best_epoch"] for c in cells])
    out["experiment.self_ms"] = 1e3 * _median(per_call.get("experiment.run_experiment", []))
    out["experiment.bytes_written"] = _median([r["bytes_written"] for r in reruns])

    # the ROADMAP baseline-table columns, rebuilt from the same spans
    out["roadmap.ppr_solve_ms"] = out["structure_path.ppr_closed_form.ms"]
    out["roadmap.topk_ms"] = out["structure_path.knn_sparsify.ms"]
    out["roadmap.recon_epoch_ms"] = 1e3 * _median(_step_intervals(spans, RECON))
    out["roadmap.downstream_epoch_ms"] = 1e3 * _median(_step_intervals(spans, DOWN))

    cell_totals = [s.total_s for s in spans if s.name == CELL]
    traced_cell_s = _median(cell_totals)
    uncovered = sum(s.self_s for s in spans if s.name in _CONTAINERS)
    out["trace.cell_s"] = traced_cell_s
    out["trace.uncovered_frac"] = uncovered / sum(cell_totals) if cell_totals else 0.0
    out["trace.overhead_frac"] = traced_cell_s / untraced_cell_s - 1.0
    out["trace.reference_ms"] = 1e3 * _median(per_call.get(REFERENCE, []))
    return out
