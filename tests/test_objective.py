import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete as gc
import graphcomplete.autodiff as ad
from graphcomplete import objective
from graphcomplete.nn import ParamStore, cosine_matrix
from graphcomplete.objective import (
    ContrastiveConfig,
    feature_contrastive_loss,
    structure_contrastive_loss,
    total_contrastive_loss,
)

from conftest import gradcheck, sbm_fixture


def infonce_oracle(U, V, t):
    """Scalar-loop reference: softmax cross-entropy on cosine rows, summed."""
    S = cosine_matrix(U, V) / t
    total = 0.0
    for i in range(S.shape[0]):
        total += math.log(sum(math.exp(s) for s in S[i])) - S[i, i]
    return total


class TestConfig:
    def test_temperature_positive(self):
        with pytest.raises(ValueError, match="temperature"):
            ContrastiveConfig(temperature=0.0)


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
        dense = structure_contrastive_loss(X, rows, 0.5).value
        sparse = structure_contrastive_loss(X, sp.csr_array(rows), 0.5).value
        assert sparse == pytest.approx(dense, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 4))
        rows = rng.random((6, 6))
        loss = structure_contrastive_loss(X, sp.csr_array(rows), 0.3)
        assert loss.value == pytest.approx(
            infonce_oracle(sigmoid_gram(X), rows, 0.3), rel=1e-10)

    def test_zero_diffusion_row_is_floored_not_nan(self):
        X = np.random.default_rng(8).normal(size=(3, 2))
        rows = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 2.0]])
        loss = structure_contrastive_loss(X, sp.csr_array(rows), 0.5)
        assert np.isfinite(loss.value)

    def test_gradcheck_with_sparse_constant(self):
        rng = np.random.default_rng(9)
        rows = sp.csr_array(np.where(rng.random((4, 4)) > 0.4,
                                     rng.random((4, 4)), 0.0))
        store = ParamStore()
        store.add("x", rng.normal(size=(4, 3)))
        gradcheck(lambda s: structure_contrastive_loss(s["x"], rows, 0.5), store)


class TestTotal:
    def test_sum_of_parts(self):
        rng = np.random.default_rng(10)
        U, V = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        rows = rng.random((5, 5))
        total, l_f, l_s = total_contrastive_loss(U, V, rows,
                                                 ContrastiveConfig(0.5))
        assert total.value == pytest.approx(l_f.value + l_s.value, rel=1e-14)
        assert l_f.value == pytest.approx(
            feature_contrastive_loss(U, V, 0.5).value, rel=1e-14)

    def test_training_decreases_loss_across_seeds(self):
        # the full reconstruction objective should fall for essentially
        # every random initialization
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        cfg = gc.ReconTrainConfig(epochs=30)
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
    s = ad.scale(sim, 1.0 / t)
    n = s.shape[0]
    diag = ad.matmul(ad.mul(s, ad.constant(np.eye(n))), ad.constant(np.ones((n, 1))))
    return ad.sum_all(ad.add(ad.row_logsumexp(s), ad.scale(diag, -1.0)))


def tape_feature_term(U, V, t):
    u = ad.row_normalize(U, objective.NORM_EPS)
    v = ad.row_normalize(V, objective.NORM_EPS)
    return tape_infonce(ad.matmul(u, ad.transpose(v)), t)


def tape_structure_term(X, diffusion, t):
    """Dense decode sigmoid(X Xᵀ), row-normalize, product with the
    row-normalized diffusion: every n×n intermediate on the tape."""
    D = np.asarray(diffusion, dtype=np.float64)
    rows = D / np.maximum(np.linalg.norm(D, axis=1, keepdims=True), objective.NORM_EPS)
    a = ad.row_normalize(ad.sigmoid(ad.matmul(X, ad.transpose(X))), objective.NORM_EPS)
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
            lambda s: structure_contrastive_loss(s["x"], sp.csr_array(D), 0.4),
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
                 lambda: structure_contrastive_loss(X, D, 0.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * b * n * 8
