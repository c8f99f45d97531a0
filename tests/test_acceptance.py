"""End-to-end acceptance checks.

Each test prints exactly one verdict line, even under pytest's capture:

    ACCEPTANCE <n> (<name>): PASS|FAIL|SKIP <details>

Criteria 1-5 are self-contained.  Criterion 6 needs a citation-network
dataset in the canonical directory format; point GRAPHCOMPLETE_CORA_DIR at
it (or place it in data/cora) and the check runs, otherwise it skips.
"""

import math
import os

import numpy as np
import pytest

import graphcomplete as gc
import graphcomplete.autodiff as ad
from graphcomplete.data import two_block_features
from graphcomplete.experiment import (
    BASELINE_METHOD,
    RECON_METHOD,
    ExperimentConfig,
    run_experiment,
)
from graphcomplete.nn import ParamStore, glorot
from graphcomplete.objective import feature_contrastive_loss
from graphcomplete.structure_path import knn_sparsify, normalize_adjacency, ppnp_forward

from conftest import sbm_fixture
from oracles import cosine_matrix, finite_diff_grad, ppr_power_iteration

# pinned acceptance tolerances
GRAD_REL_TOL = 1e-4          # criterion 1: analytic vs central differences
PPR_AGREE_TOL = 1e-8         # criterion 2: power iteration vs closed form
PPR_POWER_TOL = 1e-10        # criterion 2: power-iteration stopping tol
ADJACENT_SLACK = 0.01        # criterion 5: one adjacent dip of <= 1 point
DATASET_RANGE = (0.82, 0.88)  # criterion 6: mean test accuracy window
BASELINE_MARGIN = 0.01       # criterion 6: required lead over the baseline


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def write_benchmark(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("acceptance") / "blocks"
    gc.write_dataset(sbm_fixture(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    return write_benchmark(tmp_path_factory)


def test_acceptance_1_gradient_soundness(capsys):
    """Full-objective gradients on a 6-node, d=4 fixture."""
    means = two_block_features(4)
    ds = gc.apply_mask(gc.generate_sbm(3, 2, 0.9, 0.2, means, 0.3, seed=2),
                       gc.MaskSpec(0.3, 0.2, "entry", 5))
    n, d = ds.features.shape
    topk = gc.build_diffusion(ds.edges, n, 0.1, 3)

    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("imputer.W1", glorot(rng, d, 8))
    store.add("imputer.b1", 0.1 + 0.1 * rng.random((1, 8)))
    store.add("imputer.W2", glorot(rng, 8, d))
    store.add("imputer.b2", 0.1 * rng.random((1, d)))
    store.add("pos.W", glorot(rng, n, 8))
    store.add("pos.b", 0.1 * rng.random((1, 8)))
    store.add("ppnp.W0", glorot(rng, 8, 8))
    store.add("ppnp.W1", glorot(rng, 8, d))

    def loss(s):
        completed = gc.impute_features(ds.features, ds.feature_mask, s)
        pos = gc.positional_features(n, s)
        propagated = ppnp_forward(gc.Operator(topk), pos, s)
        total, _, _ = gc.total_contrastive_loss(completed, propagated,
                                                gc.structure_targets(topk), 0.5)
        return total

    ad.backward(loss(store))
    analytic = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grad()
    numeric = finite_diff_grad(lambda: loss(store).value, store)

    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-10)
        worst = max(worst, float((np.abs(ana - num) / denom).max()))
    ok = worst < GRAD_REL_TOL
    announce(capsys, f"ACCEPTANCE 1 (gradient soundness): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"max relative error {worst:.3g} (tolerance {GRAD_REL_TOL:g})")
    assert ok


def test_acceptance_2_diffusion_oracle_equivalence(capsys):
    """Power iteration against the closed-form solve on 50 random graphs."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 101))
        p = rng.uniform(0.05, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        a_norm = normalize_adjacency(edges, n).toarray()
        for alpha in (0.1, 0.5, 0.9):
            exact = gc.ppr_closed_form(a_norm, alpha)
            res = ppr_power_iteration(a_norm, alpha, tol=PPR_POWER_TOL)
            assert res.converged
            worst = max(worst, float(np.abs(res.matrix - exact).max()))

    two_node = gc.ppr_closed_form(normalize_adjacency(np.array([[0, 1]]), 2).toarray(), 0.5)
    pinned = np.array([[0.75, 0.25], [0.25, 0.75]])
    pinned_ok = bool(np.allclose(two_node, pinned, atol=1e-12))

    ok = worst < PPR_AGREE_TOL and pinned_ok
    announce(capsys, f"ACCEPTANCE 2 (diffusion oracle equivalence): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"worst deviation {worst:.3g} (tolerance {PPR_AGREE_TOL:g}), "
                     f"2-node case {'exact' if pinned_ok else 'WRONG'}")
    assert ok


def test_acceptance_3_invariants(capsys):
    """The cross-module invariants, checked in one sweep."""
    rng = np.random.default_rng(2)
    checks = {}

    ds = gc.apply_mask(gc.generate_sbm(5, 2, 0.6, 0.1, two_block_features(6), 0.4,
                                       seed=3),
                       gc.MaskSpec(0.3, 0.2, "entry", 4))
    cfg = ExperimentConfig(k=3, imputer_hidden=8, pe_hidden=16, ppnp_hidden=8, epochs=10,
                           gcn_hidden=8, attention_dim=4, down_max_epochs=20,
                           down_patience=10)
    state = gc.run_reconstruction(ds, cfg, seed=0)
    checks["observed-entry preservation"] = bool(
        np.array_equal(state.imputed[ds.feature_mask],
                       ds.features[ds.feature_mask]))

    dense = rng.random((8, 8))
    topk = knn_sparsify(dense, 3)
    checks["knn row sparsity and idempotence"] = bool(
        np.all((topk != 0).sum(axis=1) == 3)
        and np.array_equal(knn_sparsify(topk, 3), topk))

    store = ParamStore()
    gc.init_fusion(store, 6, 4, np.random.default_rng(5))
    x, z = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
    out = gc.attention_fuse(x, z, store)
    w = out.weights
    hull_lo = np.minimum(x, z) - 1e-12
    hull_hi = np.maximum(x, z) + 1e-12
    checks["fusion convexity and normalization"] = bool(
        np.all(w > 0)
        and np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        and np.all(out.fused.value >= hull_lo)
        and np.all(out.fused.value <= hull_hi))

    u, v = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
    scales = rng.uniform(0.2, 5.0, size=(6, 1))
    checks["cosine-rescaling invariance"] = bool(
        abs(feature_contrastive_loss(u * scales, v, 0.5).value
            - feature_contrastive_loss(u, v, 0.5).value) < 1e-10)

    n = 7
    a = normalize_adjacency(np.array([[0, 1], [1, 2], [2, 3], [4, 5], [5, 6]]), n).toarray()
    X = rng.normal(size=(n, 4))
    pstore = ParamStore()
    pstore.add("ppnp.W0", glorot(rng, 4, 5))
    pstore.add("ppnp.W1", glorot(rng, 5, 3))
    P = np.eye(n)[rng.permutation(n)]
    base = ppnp_forward(gc.Operator(a), X, pstore).value
    permuted = ppnp_forward(gc.Operator(P @ a @ P.T), P @ X, pstore).value
    checks["propagation permutation equivariance"] = bool(
        np.allclose(permuted, P @ base, atol=1e-10))

    splits = gc.make_splits(ds, seed=1)
    all_ids = np.concatenate([splits.train, splits.val, splits.test])
    checks["split disjointness"] = bool(
        len(all_ids) == len(set(all_ids.tolist())) == ds.n)

    first = gc.train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=0)
    again = gc.train_downstream(gc.run_reconstruction(ds, cfg, seed=0),
                                ds.labels, ds.num_classes, splits, cfg, seed=0)
    checks["bit-determinism per seed"] = bool(
        np.array_equal(first.logits, again.logits)
        and first.metrics == again.metrics)

    passed = sum(checks.values())
    ok = passed == len(checks)
    failed = [name for name, good in checks.items() if not good]
    announce(capsys, f"ACCEPTANCE 3 (invariant suite): "
                     f"{'PASS' if ok else 'FAIL'} {passed}/{len(checks)} invariants"
                     + (f"; failed: {', '.join(failed)}" if failed else ""))
    assert ok, failed


def test_acceptance_4_synthetic_recovery(capsys, benchmark_dir, tmp_path):
    """Reconstruction beats the zero-fill baseline on the masked benchmark."""
    cfg = ExperimentConfig(dataset=benchmark_dir, out=str(tmp_path / "runs"),
                           feature_missing=(0.3,), edge_missing=(0.3,),
                           seeds=tuple(range(10)), baseline="with")
    summary = run_experiment(cfg)["summary"]["results"]
    key = "feature_missing=0.3,edge_missing=0.3"
    recon_mean = summary[RECON_METHOD][key]["mean"]
    base_mean = summary[BASELINE_METHOD][key]["mean"]
    ok = recon_mean > base_mean
    announce(capsys, f"ACCEPTANCE 4 (synthetic recovery): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"reconstruction mean {recon_mean:.4f} vs "
                     f"zero-fill baseline mean {base_mean:.4f} over 10 seeds")
    assert ok


def test_acceptance_5_missing_rate_monotonicity(capsys, benchmark_dir, tmp_path):
    """Accuracy must not rise as more of the data goes missing."""
    rates = (0.15, 0.35, 0.55, 0.75, 0.95)
    cfg = ExperimentConfig(dataset=benchmark_dir, out=str(tmp_path / "runs"),
                           feature_missing=rates, edge_missing=rates,
                           seeds=tuple(range(10)), baseline="off")
    summary = run_experiment(cfg)["summary"]["results"][RECON_METHOD]
    means = [summary[f"feature_missing={r:g},edge_missing={r:g}"]["mean"]
             for r in rates]

    violations = [(means[i + 1] - means[i]) for i in range(len(means) - 1)
                  if means[i + 1] > means[i]]
    ok = (len(violations) == 0
          or (len(violations) == 1 and violations[0] <= ADJACENT_SLACK))
    shape = " -> ".join(f"{m:.3f}" for m in means)
    announce(capsys, f"ACCEPTANCE 5 (missing-rate monotonicity): "
                     f"{'PASS' if ok else 'FAIL'} means {shape}; "
                     f"{len(violations)} adjacent increase(s)")
    assert ok


def locate_citation_dataset() -> str | None:
    candidates = []
    env = os.environ.get("GRAPHCOMPLETE_CORA_DIR")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.append(os.path.join(here, "data", "cora"))
    for path in candidates:
        if os.path.exists(os.path.join(path, "features.tsv")):
            return path
    return None


def test_acceptance_6_citation_dataset(capsys, tmp_path):
    """Quantitative window on a real citation network, when available."""
    dataset = locate_citation_dataset()
    if dataset is None:
        announce(capsys, "ACCEPTANCE 6 (dataset check): SKIP no dataset at "
                         "$GRAPHCOMPLETE_CORA_DIR or data/cora")
        pytest.skip("citation dataset not present")

    cfg = ExperimentConfig(dataset=dataset, out=str(tmp_path / "runs"),
                           feature_missing=(0.3,), edge_missing=(0.3,),
                           seeds=tuple(range(10)), baseline="with",
                           epochs=20, recon_dropout=0.1,
                           down_max_epochs=300, down_patience=50)
    summary = run_experiment(cfg)["summary"]["results"]
    key = "feature_missing=0.3,edge_missing=0.3"
    recon_mean = summary[RECON_METHOD][key]["mean"]
    base_mean = summary[BASELINE_METHOD][key]["mean"]
    lo, hi = DATASET_RANGE
    ok = lo <= recon_mean <= hi and recon_mean >= base_mean + BASELINE_MARGIN
    announce(capsys, f"ACCEPTANCE 6 (dataset check): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"mean {recon_mean:.4f} (window [{lo}, {hi}]), "
                     f"baseline {base_mean:.4f} (margin {BASELINE_MARGIN})")
    assert ok
