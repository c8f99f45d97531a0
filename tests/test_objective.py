import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete as gc
import graphcomplete.autodiff as ad
from graphcomplete import objective, pool
from graphcomplete.nn import ParamStore
from graphcomplete.objective import (
    feature_contrastive_loss,
    structure_contrastive_loss,
    structure_targets,
    total_contrastive_loss,
)

from conftest import bits, f32_from, gradcheck, row_block_threads, sbm_fixture
from oracles import (
    cosine_matrix, row_logsumexp, row_normalize, scale, serial_contrastive_terms, sum_all,
)


def infonce_oracle(U, V, t):
    """Scalar-loop reference: softmax cross-entropy on cosine rows, summed."""
    S = cosine_matrix(U, V) / t
    total = 0.0
    for i in range(S.shape[0]):
        total += math.log(sum(math.exp(s) for s in S[i])) - S[i, i]
    return total


class TestConfig:
    def test_temperature_positive(self):
        rows = np.eye(3)
        for temperature in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match=f"temperature {temperature} must be positive"):
                total_contrastive_loss(rows, rows, structure_targets(rows), temperature)


class TestFeatureTerm:
    def test_single_node_is_zero(self):
        # with one row, log-sum-exp over the row equals the diagonal term
        loss = feature_contrastive_loss(np.array([[1.0, 2.0]]),
                                        np.array([[3.0, 1.0]]), 0.5)
        assert loss.value == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_rows_known_value(self):
        # views both equal to [e1; e2] at t=1: similarity is the identity,
        # each row contributes log(e^1 + e^0) - 1 = log(1 + e^-1)
        I2 = np.eye(2)
        loss = feature_contrastive_loss(I2, I2, 1.0)
        expected = 2.0 * math.log(1.0 + math.exp(-1.0))
        assert loss.value == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        U = rng.normal(size=(6, 4))
        V = rng.normal(size=(6, 4))
        loss = feature_contrastive_loss(U, V, 0.7)
        assert loss.value == pytest.approx(infonce_oracle(U, V, 0.7), rel=1e-10)

    def test_aligned_views_at_low_temperature_vanish(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(5, 8))
        loss = feature_contrastive_loss(U, 2.5 * U, 0.01)
        assert 0.0 <= loss.value < 1e-6

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(5, 4))
        V = rng.normal(size=(5, 4))
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        a = feature_contrastive_loss(U, V, 0.5).value
        b = feature_contrastive_loss(U * scales, V, 0.5).value
        assert b == pytest.approx(a, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        U = rng.normal(size=(6, 4))
        V = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = feature_contrastive_loss(U, V, 0.5).value
        b = feature_contrastive_loss(U[perm], V[perm], 0.5).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        n, t = 7, 0.5
        U = rng.normal(size=(n, 5))
        V = rng.normal(size=(n, 5))
        loss = feature_contrastive_loss(U, V, t).value
        assert loss >= 0.0
        # each row's log-sum-exp is at most log(n) + max similarity gap 2/t
        assert loss <= n * (math.log(n) + 2.0 / t)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        store.add("u", rng.normal(size=(4, 3)))
        store.add("v", rng.normal(size=(4, 3)))
        gradcheck(lambda s: feature_contrastive_loss(s["u"], s["v"], 0.5), store)


def sigmoid_gram(X):
    return 1.0 / (1.0 + np.exp(-(X @ X.T)))


class TestStructureTerm:
    """The term takes completed features X and decodes sigmoid(X Xᵀ) itself."""

    def test_sparse_and_dense_rows_agree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 3))
        rows = np.where(rng.random((5, 5)) > 0.5, rng.random((5, 5)), 0.0)
        dense = structure_contrastive_loss(X, structure_targets(rows), 0.5).value
        sparse = structure_contrastive_loss(X, structure_targets(sp.csr_array(rows)),
                                            0.5).value
        assert sparse == pytest.approx(dense, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 4))
        rows = rng.random((6, 6))
        loss = structure_contrastive_loss(X, structure_targets(sp.csr_array(rows)), 0.3)
        assert loss.value == pytest.approx(
            infonce_oracle(sigmoid_gram(X), rows, 0.3), rel=1e-10)

    def test_zero_diffusion_row_is_floored_not_nan(self):
        X = np.random.default_rng(8).normal(size=(3, 2))
        rows = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 2.0]])
        loss = structure_contrastive_loss(X, structure_targets(sp.csr_array(rows)), 0.5)
        assert np.isfinite(loss.value)

    def test_gradcheck_with_sparse_constant(self):
        rng = np.random.default_rng(9)
        rows = sp.csr_array(np.where(rng.random((4, 4)) > 0.4,
                                     rng.random((4, 4)), 0.0))
        store = ParamStore()
        store.add("x", rng.normal(size=(4, 3)))
        gradcheck(lambda s: structure_contrastive_loss(s["x"], structure_targets(rows), 0.5),
                  store)


@pytest.mark.parametrize("term, first, second, shapes", [
    (feature_contrastive_loss, (100, 8), (150, 8), r"\(100, 8\) vs \(150, 8\)"),
    (feature_contrastive_loss, (150, 8), (100, 8), r"\(150, 8\) vs \(100, 8\)"),
    (structure_contrastive_loss, (100, 8), (120, 100), r"\(100, 8\) vs targets \(120, 100\)"),
], ids=["feature-fewer-completed", "feature-more-completed", "structure-targets"])
def test_mismatched_shapes_raise_before_any_block(monkeypatch, term, first, second, shapes):
    def no_blocks(*args):
        raise AssertionError("a row block ran")
    monkeypatch.setattr(objective, "_blocks", no_blocks)
    rng = np.random.default_rng(12)
    other = (rng.normal(size=second) if term is feature_contrastive_loss
             else structure_targets(rng.random(second)))
    with pytest.raises(ad.ShapeError, match=shapes):
        term(rng.normal(size=first), other, 0.5)


class TestTotal:
    def test_sum_of_parts(self):
        rng = np.random.default_rng(10)
        U, V = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        rows = rng.random((5, 5))
        total, l_f, l_s = total_contrastive_loss(U, V, structure_targets(rows), 0.5)
        assert total.value == pytest.approx(l_f.value + l_s.value, rel=1e-14)
        assert l_f.value == pytest.approx(
            feature_contrastive_loss(U, V, 0.5).value, rel=1e-14)

    def test_training_decreases_loss_across_seeds(self):
        # the full reconstruction objective should fall for essentially
        # every random initialization
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        cfg = gc.ExperimentConfig(epochs=30)
        wins = 0
        for seed in range(10):
            state = gc.run_reconstruction(ds, cfg, seed=seed)
            if state.loss_history[-1, 2] < state.loss_history[0, 2]:
                wins += 1
        assert wins >= 9


# ---------------------------------------------------------------------------
# the fused blockwise terms against the composed tape ops they replace


def tape_infonce(sim, t):
    """Row log-sum-exp minus the diagonal, summed; the diagonal is read
    through a mask product so only generic tape ops are involved."""
    s = scale(sim, 1.0 / t)
    n = s.shape[0]
    diag = ad.matmul(ad.mul(s, ad.constant(np.eye(n))), ad.constant(np.ones((n, 1))))
    return sum_all(ad.add(row_logsumexp(s), scale(diag, -1.0)))


def tape_feature_term(U, V, t):
    u = row_normalize(U)
    v = row_normalize(V)
    return tape_infonce(ad.matmul(u, ad.transpose(v)), t)


def tape_structure_term(X, diffusion, t):
    """Dense decode sigmoid(X Xᵀ), row-normalize, product with the
    row-normalized diffusion: every n×n intermediate on the tape."""
    D = np.asarray(diffusion, dtype=np.float64)
    rows = D / np.maximum(np.linalg.norm(D, axis=1, keepdims=True), objective.NORM_EPS)
    a = row_normalize(ad.sigmoid(ad.matmul(X, ad.transpose(X))))
    return tape_infonce(ad.matmul(a, ad.transpose(ad.constant(rows))), t)


def loss_and_grads(build, arrays):
    store = ParamStore()
    for name, value in arrays.items():
        store.add(name, value.copy())
    loss = build(store)
    ad.backward(loss)
    return float(loss.value), {name: t.grad.copy() for name, t in store.items()}


def assert_matches_oracle(fused, oracle, arrays):
    loss_f, grads_f = loss_and_grads(fused, arrays)
    loss_o, grads_o = loss_and_grads(oracle, arrays)
    assert np.isfinite(loss_f) and np.isfinite(loss_o)
    assert abs(loss_f - loss_o) <= 1e-12 * abs(loss_o)
    for name, g_o in grads_o.items():
        g_f = grads_f[name]
        assert np.all(np.isfinite(g_f)), name
        # max-abs relative error; an all-zero oracle gradient must be matched exactly
        scale = np.abs(g_o).max()
        assert np.abs(g_f - g_o).max() <= 1e-10 * scale, name


def oracle_cases():
    """(name, X, P, D, block rows); block rows None keeps the module constant."""
    rng = np.random.default_rng(40)
    b = objective.BLOCK_ROWS
    cases = {
        "partial_last_block_at_module_block": (2 * b + 37, 6, None),
        "several_small_blocks": (45, 5, 8),
        "exact_multiple_of_block": (32, 4, 8),
        "single_node": (1, 3, 8),
        "block_larger_than_n": (7, 3, None),
    }
    for name, (n, d, rows) in cases.items():
        X = rng.normal(size=(n, d))
        P = rng.normal(size=(n, d))
        D = np.where(rng.random((n, n)) < 0.2, rng.random((n, n)), 0.0)
        yield name, X, P, D, rows
    # a zero feature row and an all-zero diffusion row, several blocks
    X, P = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
    X[3] = 0.0
    D = rng.random((30, 30))
    D[11] = 0.0
    yield "zero_feature_and_diffusion_rows", X, P, D, 8
    # saturated Gram: every |x_i · x_j| is at least 800
    base = np.where(rng.random((20, 1)) < 0.5, -1.0, 1.0)
    X = 30.0 * np.hstack([base, 0.1 * rng.normal(size=(20, 2))])
    assert np.abs(X @ X.T).min() >= 800
    yield "saturated_gram", X, rng.normal(size=(20, 3)), rng.random((20, 20)), 8


ORACLE_CASES = list(oracle_cases())


@pytest.mark.parametrize("name,X,P,D,rows", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
class TestFusedMatchesTapeOracle:
    """Loss to 1e-12 relative, gradient to 1e-10 relative (max-abs)."""

    def test_feature_term(self, monkeypatch, name, X, P, D, rows):
        if rows is not None:
            monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
        assert_matches_oracle(
            lambda s: feature_contrastive_loss(s["x"], s["p"], 0.4),
            lambda s: tape_feature_term(s["x"], s["p"], 0.4),
            {"x": X, "p": P})

    def test_structure_term(self, monkeypatch, name, X, P, D, rows):
        if rows is not None:
            monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
        assert_matches_oracle(
            lambda s: structure_contrastive_loss(s["x"], structure_targets(sp.csr_array(D)),
                                                 0.4),
            lambda s: tape_structure_term(s["x"], D, 0.4),
            {"x": X})


def test_working_set_stays_within_row_blocks(monkeypatch):
    # at n=2048 with 64-row blocks, one n×n float64 array is 32 MiB and one
    # block 1 MiB; about ten block-sized temporaries are live at a time, so
    # each term's peak must stay well below a single n×n array
    n, b = 2048, 64
    monkeypatch.setattr(objective, "BLOCK_ROWS", b)
    rng = np.random.default_rng(41)
    X, P = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    D = sp.random_array((n, n), density=5.0 / n, random_state=rng, format="csr")
    for call in (lambda: feature_contrastive_loss(X, P, 0.5),
                 lambda: structure_contrastive_loss(X, structure_targets(D), 0.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * b * n * 8


# ---------------------------------------------------------------------------
# the row blocks in float32, from objective.F32_ROWS nodes on.  f32_from(0)
# forces float32 at any size and f32_from(sys.maxsize) float64, so each case
# compares one block code at the two precisions.  f32_from sets the diffusion
# solve's precision too (alpha >= structure_path.F32_MIN_ALPHA); no case here
# builds a diffusion.

F32_LOSS_REL = 1e-7   # the loss's relative error
F32_GRAD_REL = 1e-5   # each gradient's norm-wise relative error


def assert_float32_close(term, X, P, targets, temperature):
    build = ((lambda s: feature_contrastive_loss(s["x"], s["p"], temperature))
             if term == "feature" else
             (lambda s: structure_contrastive_loss(s["x"], targets, temperature)))
    arrays = {"x": X, "p": P} if term == "feature" else {"x": X}
    with f32_from(0):
        loss32, grads32 = loss_and_grads(build, arrays)
    with f32_from(sys.maxsize):
        loss64, grads64 = loss_and_grads(build, arrays)
    assert np.isfinite(loss32)
    assert abs(loss32 - loss64) <= F32_LOSS_REL * abs(loss64)
    for name, g64 in grads64.items():
        g32 = grads32[name]
        assert g32.dtype == np.float64 and np.all(np.isfinite(g32)), name
        # an all-zero float64 gradient must be matched exactly
        assert np.linalg.norm(g32 - g64) <= F32_GRAD_REL * np.linalg.norm(g64), name


def random_targets(rng, n, per_row=10):
    return structure_targets(sp.random_array((n, n), density=per_row / n, random_state=rng,
                                             format="csr"))


@pytest.mark.parametrize("temperature", [0.1, 0.5])
@pytest.mark.parametrize("input_scale", [0.3, 1.0, 4.5])
@pytest.mark.parametrize("term", ["feature", "structure"])
def test_float32_blocks_track_float64(term, input_scale, temperature):
    # 4.5 is about the scale of the trained imputer's output
    n, d = 300, 16
    rng = np.random.default_rng(50)
    X, P = input_scale * rng.normal(size=(n, d)), input_scale * rng.normal(size=(n, d))
    assert_float32_close(term, X, P, random_targets(rng, n), temperature)


def degenerate_case(name):
    """(X, P, targets) over n=200 nodes, 4 row blocks."""
    n, d = 200, 6
    rng = np.random.default_rng(51)
    X, P = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    D = sp.random_array((n, n), density=8.0 / n, random_state=rng, format="lil")
    if name == "zero_feature_and_diffusion_rows":
        X[3], P[70], D[11] = 0.0, 0.0, 0.0
    elif name == "negative_zero_entries":
        X[5], P[9] = -0.0, -0.0
        X[rng.random((n, d)) < 0.2] = -0.0
    elif name == "saturated_gram":
        # every |x_i · x_j| is at least 800: each sigmoid is 0 or 1 in both precisions
        base = np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
        X = 30.0 * np.hstack([base, 0.05 * rng.normal(size=(n, d - 1))])
        assert np.abs(X @ X.T).min() >= 800
    elif name == "k_above_n":
        with pytest.warns(UserWarning, match="keeping all"):
            D = gc.knn_sparsify(rng.random((n, n)), n + 5)
    return X, P, structure_targets(D)


DEGENERATE = ["zero_feature_and_diffusion_rows", "negative_zero_entries", "saturated_gram",
              "k_above_n"]


@pytest.mark.parametrize("temperature", [0.1, 0.5])
@pytest.mark.parametrize("name", DEGENERATE)
@pytest.mark.parametrize("term", ["feature", "structure"])
def test_float32_blocks_track_float64_on_degenerate_inputs(term, name, temperature):
    assert_float32_close(term, *degenerate_case(name), temperature)


@pytest.mark.parametrize("n", [objective.F32_ROWS - 1, objective.F32_ROWS])
def test_block_precision_follows_n(monkeypatch, n):
    # float64 below F32_ROWS nodes, float32 from it on, and float64 around the blocks
    dtypes = []
    real = objective._infonce_block
    monkeypatch.setattr(objective, "_infonce_block",
                        lambda sim, *a: (dtypes.append(sim.dtype), real(sim, *a))[1])
    rng = np.random.default_rng(52)
    X, P = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
    targets = random_targets(rng, n)
    for build, arrays in ((lambda s: feature_contrastive_loss(s["x"], s["p"], 0.5),
                           {"x": X, "p": P}),
                          (lambda s: structure_contrastive_loss(s["x"], targets, 0.5),
                           {"x": X})):
        _, grads = loss_and_grads(build, arrays)
        assert all(g.dtype == np.float64 for g in grads.values())
    want = np.float32 if n >= objective.F32_ROWS else np.float64
    assert len(dtypes) == 2 * len(range(0, n, objective.BLOCK_ROWS))
    assert set(dtypes) == {np.dtype(want)}


def test_float32_blocks_never_call_pool_matmul(monkeypatch, pooled):
    # the pool's dense split (DENSE_ALIGN) was tuned on float64 kernels
    def no_matmul(a, b):
        raise AssertionError("a row block called pool.matmul")
    monkeypatch.setattr(pool, "matmul", no_matmul)
    n = objective.F32_ROWS
    rng = np.random.default_rng(53)
    X, P = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    targets = random_targets(rng, n)
    loss_and_grads(lambda s: feature_contrastive_loss(s["x"], s["p"], 0.5), {"x": X, "p": P})
    loss_and_grads(lambda s: structure_contrastive_loss(s["x"], targets, 0.5), {"x": X})


@pytest.mark.parametrize("rows,bound", [
    # x_7 · x_8 is 4e38 - 4e38 = 0; in float32 the 4e38 overflows, and the
    # sigmoid reads 1, not 0.5: a finite, silently wrong loss
    ({7: [2e19, 2e19], 8: [2e19, -2e19]}, "1.6e+39"),
    # 1e39 is inf in float32, and its product with row 3's zeros NaN
    ({3: [0.0, 0.0, 0.0, 0.0], 9: [1e39, 0.0]}, "4e+78"),
], ids=["product", "entry"])
def test_float32_overflow_raises_naming_term_and_bound(rows, bound):
    n = objective.F32_ROWS
    rng = np.random.default_rng(54)
    X = rng.normal(size=(n, 4))
    for i, values in rows.items():
        X[i, :len(values)] = values
    targets = random_targets(rng, n)
    with pytest.raises(ValueError, match=r"structure_contrastive_loss: max\|x\|\^2 \* d = "
                                         rf"{re.escape(bound)} exceeds float32's range "
                                         r"3\.403e\+38"):
        structure_contrastive_loss(X, targets, 0.5)
    with f32_from(sys.maxsize):
        assert np.isfinite(structure_contrastive_loss(X, targets, 0.5).value)


def test_float32_inside_the_bound_runs():
    # max|x|^2 * d = 3.24e38, just inside float32's range
    n = objective.F32_ROWS
    rng = np.random.default_rng(54)
    X = rng.normal(size=(n, 4))
    X[7, :2], X[8, :2] = [9e18, 9e18], [9e18, -9e18]
    assert np.isfinite(structure_contrastive_loss(X, random_targets(rng, n), 0.5).value)


# ---------------------------------------------------------------------------
# the row blocks on threads.  A machine's budget may leave no core to spare,
# so these tests force the pool on (conftest.row_block_threads).

def term_bits(term, X, P, targets):
    """The loss's and every input gradient's bytes."""
    store = ParamStore()
    x, p = store.add("x", X.copy()), store.add("p", P.copy())
    loss = (feature_contrastive_loss(x, p, 0.4) if term == "feature"
            else structure_contrastive_loss(x, targets, 0.4))
    ad.backward(loss)
    return [bits(loss.value).tobytes()] + [bits(t.grad).tobytes() for t in (x, p)
                                           if t.grad is not None]


THREADED_CASES = [   # (n, block rows); None keeps the module constant
    (2 * objective.BLOCK_ROWS + 37, None),   # 3 blocks: under the floor, inline
    (2 * objective.BLOCK_ROWS + 37, 16),     # 11 blocks, the last one partial
    (256, None),                             # 4 blocks: the smallest pooled term
    (1000, None),
]


@pytest.mark.parametrize("term", ["feature", "structure"])
@pytest.mark.parametrize("n,rows", THREADED_CASES,
                         ids=[f"n{n}_rows{rows or 'default'}" for n, rows in THREADED_CASES])
def test_threaded_blocks_keep_every_bit(monkeypatch, term, n, rows):
    if rows is not None:
        monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
    rng = np.random.default_rng(n)
    X, P = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    X[n // 3] = 0.0
    D = np.where(rng.random((n, n)) < 8.0 / n, rng.random((n, n)), 0.0)
    D[n // 2] = 0.0
    targets = structure_targets(D)
    runs = []   # (first row, thread) of each block run
    real = objective._infonce_block
    monkeypatch.setattr(objective, "_infonce_block", lambda *a: (
        runs.append((a[1], threading.current_thread())), real(*a))[1])
    with row_block_threads(1):
        inline = term_bits(term, X, P, targets)
    assert {thread for _, thread in runs} == {threading.main_thread()}
    runs.clear()
    with row_block_threads(2):
        pooled = term_bits(term, X, P, targets)
    # every block ran exactly once, on whichever thread took it; below 4
    # blocks all of them on the caller
    assert sorted(r0 for r0, _ in runs) == list(range(0, n, objective.BLOCK_ROWS))
    if len(runs) < 4:
        assert {thread for _, thread in runs} == {threading.main_thread()}
    feature, structure = serial_contrastive_terms(X, P, targets, 0.4, objective.BLOCK_ROWS)
    reference = [bits(a).tobytes() for a in (feature if term == "feature" else structure)]
    assert pooled == inline == reference


def test_threaded_blocks_under_contention():
    # more block threads than cores, two callers sharing the pool as two
    # --workers cells do, and a thread switch every microsecond: every
    # caller still gets the inline bits
    n = 640
    rng = np.random.default_rng(44)
    X, P = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    targets = structure_targets(sp.random_array((n, n), density=8.0 / n, random_state=rng))
    with row_block_threads(1):
        inline = [term_bits(term, X, P, targets) for term in ("feature", "structure")]
    results = {}

    def caller(i):
        results[i] = [term_bits(term, X, P, targets)
                      for _ in range(5) for term in ("feature", "structure")]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with row_block_threads(4):
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: inline * 5 for i in range(2)}


@pytest.mark.parametrize("on_caller", [True, False], ids=["callers_block", "pools_block"])
@pytest.mark.parametrize("term", ["feature", "structure"])
def test_failed_block_leaves_no_block_running(monkeypatch, pooled, term, on_caller):
    # one block raises: the first from the third on that the named thread
    # runs.  The error must surface only after every block already running
    # has finished, and no block may start after it
    b = objective.BLOCK_ROWS
    n = 20 * b
    rng = np.random.default_rng(43)
    X, P = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    targets = structure_targets(sp.random_array((n, n), density=5.0 / n, random_state=rng))
    started, ended, failed = [], [], []
    real = objective._infonce_block

    def flaky(sim, r0, temperature):
        started.append(time.perf_counter())
        named = (threading.current_thread() is threading.main_thread()) == on_caller
        if r0 >= 2 * b and named and not failed:
            failed.append(r0)
            raise FloatingPointError("failing block")
        time.sleep(0.02)   # the other blocks are still running when the error arrives
        out = real(sim, r0, temperature)
        ended.append(time.perf_counter())
        return out

    monkeypatch.setattr(objective, "_infonce_block", flaky)
    with pytest.raises(FloatingPointError, match="failing block"):
        if term == "feature":
            feature_contrastive_loss(X, P, 0.5)
        else:
            structure_contrastive_loss(X, targets, 0.5)
    surfaced = time.perf_counter()
    time.sleep(0.1)   # a block left running would start or end in here
    assert 2 < len(started) < n // b   # blocks stopped starting after the error
    assert max(started) < surfaced
    assert len(ended) == len(started) - 1 and max(ended) < surfaced
    assert pool._IDLE.acquire(blocking=False)   # the call gave its pool thread back
    pool._IDLE.release()


def test_working_set_stays_within_row_blocks_per_thread(monkeypatch, pooled):
    # the serial test's bound times the thread count: each thread holds one
    # block's temporaries, and a finished block only its n×d partial sums
    n, b, threads = 2048, 64, 2
    monkeypatch.setattr(objective, "BLOCK_ROWS", b)
    rng = np.random.default_rng(41)
    X, P = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    D = sp.random_array((n, n), density=5.0 / n, random_state=rng, format="csr")
    for call in (lambda: feature_contrastive_loss(X, P, 0.5),
                 lambda: structure_contrastive_loss(X, structure_targets(D), 0.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < threads * 12 * b * n * 8


PERFBENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SRC = pathlib.Path(objective.__file__).resolve().parents[1]

BUDGET_PROBE = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
from graphcomplete import pool
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[2])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
print(json.dumps([pool._BLOCK_THREADS, bool(pool._openblas_threads()), run._blas_threads()]))
"""


@pytest.mark.parametrize("blas_env", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {},
    {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
], ids=["one_blas_thread", "blas_default", "goto_before_omp"])
def test_thread_budget_is_cpus_over_blas_threads(blas_env):
    # where the BLAS thread count can be set, the package runs BLAS on one
    # thread and the budget is the usable CPUs; elsewhere it is the usable
    # CPUs over the thread count each loaded OpenBLAS reports
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(blas_env)
    out = subprocess.run([sys.executable, "-c", BUDGET_PROBE, str(SRC), str(PERFBENCH_RUN)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    threads, settable, counts = json.loads(out.stdout)
    cpus = len(os.sched_getaffinity(0))
    if settable:
        assert threads == cpus
        return
    assert counts and len(set(counts.values())) == 1, counts
    assert threads == max(1, cpus // counts.popitem()[1])
