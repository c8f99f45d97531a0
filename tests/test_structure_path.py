import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete.autodiff as ad
from graphcomplete import experiment, objective, pool, structure_path
from graphcomplete.autodiff import ShapeError
from graphcomplete.nn import ParamStore, glorot
from graphcomplete.structure_path import (
    build_diffusion,
    knn_sparsify,
    normalize_adjacency,
    positional_features,
    ppnp_forward,
    ppr_closed_form,
)

from conftest import bits, gradcheck
from oracles import ppr_power_iteration, sigmoid, stable_argsort_topk, sum_all

PATH_EDGE = np.array([[0, 1]])  # 2-node path graph


def random_graph(rng, n, p=0.3):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def sparse_graph(rng, n, degree=4.0):
    """About degree * n / 2 random edges, self-pairs and repeats dropped."""
    pairs = np.sort(rng.integers(0, n, size=(int(degree * n / 2), 2)), axis=1)
    return np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)


@pool.one_blas_thread()
def dense_ppr_reference(a_norm, alpha):
    """The closed form as first written, on a dense a_norm: np.eye minus the
    scaled adjacency, potrf/potri on LAPACK's own copy, the inverse's upper
    triangle mirrored through np.triu.  From objective.F32_ROWS nodes on and
    for alpha >= structure_path.F32_MIN_ALPHA the system is rounded to float32
    and solved by spotrf/spotri, else dpotrf/dpotri in float64.
    ppr_closed_form must match it bit for bit; both solve on one BLAS thread."""
    from scipy.linalg import lapack
    a_norm = np.asarray(a_norm, dtype=np.float64)
    n = a_norm.shape[0]
    f32 = n >= objective.F32_ROWS and alpha >= structure_path.F32_MIN_ALPHA
    dtype = np.float32 if f32 else np.float64
    potrf, potri = (lapack.spotrf, lapack.spotri) if f32 else (lapack.dpotrf, lapack.dpotri)
    system = np.eye(n, dtype=dtype) - ((1.0 - alpha) * a_norm).astype(dtype)
    factor, info = potrf(system, overwrite_a=True)
    assert info == 0
    out = alpha * np.triu(potri(factor, overwrite_c=True)[0])
    assert out.dtype == dtype
    out += np.triu(out, 1).T
    return np.maximum(out, 0.0, out=out)


class TestNormalizeAdjacency:
    def test_two_node_path(self):
        # A+I = all-ones 2x2, degrees 2 -> every entry 1/2
        out = normalize_adjacency(PATH_EDGE, 2).toarray()
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), rtol=1e-15)

    def test_isolated_node_keeps_self_loop(self):
        out = normalize_adjacency(np.zeros((0, 2), dtype=np.int64), 3).toarray()
        np.testing.assert_array_equal(out, np.eye(3))

    def test_symmetric_and_matches_explicit_formula(self):
        rng = np.random.default_rng(0)
        edges = random_graph(rng, 8)
        out = normalize_adjacency(edges, 8).toarray()
        A = np.eye(8)
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        d = A.sum(axis=1)
        expected = A / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(out, expected, rtol=1e-14)
        np.testing.assert_allclose(out, out.T, rtol=1e-15)

    def test_sparse_matches_dense(self):
        # the result is always CSR; its entries are the dense formula's
        rng = np.random.default_rng(1)
        edges = random_graph(rng, 10)
        A = np.eye(10)
        A[edges[:, 0], edges[:, 1]] = A[edges[:, 1], edges[:, 0]] = 1.0
        d = A.sum(axis=1)
        sparse = normalize_adjacency(edges, 10)
        assert isinstance(sparse, sp.csr_array)
        np.testing.assert_allclose(sparse.toarray(), A / np.sqrt(np.outer(d, d)), rtol=1e-15)


class TestPPR:
    def test_two_node_closed_form(self):
        # alpha=0.5 on the 2-node path: eigen-decomposition gives
        # [[0.75, 0.25], [0.25, 0.75]]
        a_norm = normalize_adjacency(PATH_EDGE, 2).toarray()
        out = ppr_closed_form(a_norm, 0.5)
        np.testing.assert_allclose(out, [[0.75, 0.25], [0.25, 0.75]], rtol=1e-12)

    def test_single_node_is_identity(self):
        out = ppr_closed_form(np.eye(1), 0.3)
        np.testing.assert_allclose(out, [[1.0]], rtol=1e-15)

    def test_alpha_near_one_approaches_identity(self):
        rng = np.random.default_rng(2)
        a_norm = normalize_adjacency(random_graph(rng, 6), 6).toarray()
        out = ppr_closed_form(a_norm, 0.999)
        assert np.abs(out - np.eye(6)).max() < 5e-3

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(3)
        a_norm = normalize_adjacency(random_graph(rng, 12), 12).toarray()
        assert ppr_closed_form(a_norm, 0.1).min() >= 0.0

    def test_power_iteration_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for n in (5, 9, 17):
            a_norm = normalize_adjacency(random_graph(rng, n), n).toarray()
            for alpha in (0.1, 0.5, 0.9):
                exact = ppr_closed_form(a_norm, alpha)
                res = ppr_power_iteration(a_norm, alpha, tol=1e-12)
                assert res.converged
                assert np.abs(res.matrix - exact).max() < 1e-8

    def test_power_iteration_exhaustion_warns_and_flags(self):
        rng = np.random.default_rng(5)
        a_norm = normalize_adjacency(random_graph(rng, 8), 8).toarray()
        with pytest.warns(UserWarning, match="did not reach"):
            res = ppr_power_iteration(a_norm, 0.05, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.matrix.shape == (8, 8)

    def test_matches_truncated_series(self):
        # alpha * sum_t (1-alpha)^t a_norm^t; at alpha=0.5 the 50-term tail
        # is below 1e-15 so the comparison is meaningful at 1e-6
        rng = np.random.default_rng(6)
        a_norm = normalize_adjacency(random_graph(rng, 7), 7).toarray()
        alpha = 0.5
        acc = np.zeros((7, 7))
        term = np.eye(7)
        for _ in range(50):
            acc += term
            term = (1 - alpha) * (a_norm @ term)
        series = alpha * acc
        exact = ppr_closed_form(a_norm, alpha)
        assert np.abs(series - exact).max() < 1e-6

    def test_cholesky_matches_lu_and_is_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for n, alpha in ((1, 0.3), (6, 0.05), (40, 0.1), (120, 0.9)):
            a_norm = normalize_adjacency(random_graph(rng, n, p=0.1), n).toarray()
            lu = np.maximum(np.linalg.solve(np.eye(n) - (1.0 - alpha) * a_norm,
                                            alpha * np.eye(n)), 0.0)
            out = ppr_closed_form(a_norm, alpha)
            assert np.abs(out - lu).max() <= 1e-12
            np.testing.assert_array_equal(out, out.T)

    @pytest.mark.parametrize("n, rows", [(2 * structure_path.BLOCK_ROWS + 37, None),
                                         (45, 8), (32, 8), (7, None), (1, None)])
    def test_bit_identical_to_dense_reference(self, monkeypatch, n, rows):
        # dense and sparse input; isolated nodes and several components give
        # exact zeros in the inverse, and the row blocks end in a partial one
        if rows is not None:
            monkeypatch.setattr(structure_path, "BLOCK_ROWS", rows)
        rng = np.random.default_rng(n)
        for degree in (0.5, 3.0):
            edges = sparse_graph(rng, n, degree)
            dense = normalize_adjacency(edges, n).toarray()
            for alpha in (0.1, 0.85):
                expected = dense_ppr_reference(dense, alpha)
                for a_norm in (dense, normalize_adjacency(edges, n)):
                    np.testing.assert_array_equal(bits(ppr_closed_form(a_norm, alpha)),
                                                  bits(expected))

    @pytest.mark.parametrize("n, alpha", [(255, 0.1), (256, np.nextafter(0.01, 0.0)),
                                          (549, np.nextafter(0.01, 0.0))])
    def test_float64_below_either_bound(self, n, alpha):
        # under objective.F32_ROWS nodes, or alpha just under F32_MIN_ALPHA,
        # the float64 solve runs as before, bit for bit
        rng = np.random.default_rng(n)
        a_norm = normalize_adjacency(sparse_graph(rng, n, 3.0), n)
        out = ppr_closed_form(a_norm, alpha)
        expected = dense_ppr_reference(a_norm.toarray(), alpha)
        assert out.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(bits(out), bits(expected))

    @pytest.mark.parametrize("alpha", [0.01, np.float64(0.1)])
    def test_float32_from_both_bounds(self, alpha):
        n = objective.F32_ROWS
        a_norm = normalize_adjacency(sparse_graph(np.random.default_rng(n), n, 3.0), n)
        out = ppr_closed_form(a_norm, alpha)
        expected = dense_ppr_reference(a_norm.toarray(), float(alpha))
        assert out.dtype == expected.dtype == np.float32
        np.testing.assert_array_equal(bits(out), bits(expected))

    # float32 against the float64 solve, relative to the largest entry: every
    # entry (worst seen 1.2e-6), and each entry the top-k keeps, relative to
    # itself (worst seen 5.4e-6); the float32 top-k's choice differs only
    # between values tied to within twice the entry bound (float64 ties)
    ENTRY_BOUND = 2e-6
    KEPT_BOUND = 1e-5

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.85])
    def test_float32_within_bounds_of_float64(self, monkeypatch, alpha):
        # two components of a sparse graph, 10 isolated nodes among them
        n, k = 549, 20
        rng = np.random.default_rng(24)
        h = n // 2
        edges = np.vstack([sparse_graph(rng, h, 3.0), h + sparse_graph(rng, n - h, 3.0)])
        isolated = rng.choice(n, 10, replace=False)
        edges = edges[~np.isin(edges, isolated).any(axis=1)]
        a_norm = normalize_adjacency(edges, n)
        got = ppr_closed_form(a_norm, alpha)
        topk = build_diffusion(edges, n, alpha, k).toarray()
        monkeypatch.setattr(structure_path, "F32_MIN_ALPHA", math.inf)
        exact = ppr_closed_form(a_norm, alpha)
        assert got.dtype == np.float32 and exact.dtype == np.float64
        scale = exact.max()
        assert np.abs(got - exact).max() <= self.ENTRY_BOUND * scale
        kept = topk != 0   # small components and isolated nodes keep fewer than k
        assert (np.abs(topk - exact)[kept] <= self.KEPT_BOUND * exact[kept]).all()
        kth = -np.sort(-exact, axis=1)[:, k - 1:k]
        assert (exact[kept] >= np.broadcast_to(kth, kept.shape)[kept]
                - 2 * self.ENTRY_BOUND * scale).all()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha {alpha} outside"):
            ppr_closed_form(normalize_adjacency(PATH_EDGE, 2), alpha)

    def test_indefinite_system_raises(self):
        # off-diagonal weight 5 puts an eigenvalue of a_norm far above 1
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            ppr_closed_form(np.array([[0.0, 5.0], [5.0, 0.0]]), 0.1)

    def test_config_validation(self):
        for alpha, k, message in ((0.0, 20, "alpha 0.0 outside"), (1.0, 20, "alpha 1.0 outside"),
                                  (np.nan, 20, "alpha nan outside"),
                                  (0.1, -1, "k -1 must be nonnegative"),
                                  (0.1, np.nan, "k nan must be nonnegative"),
                                  (0.1, 1.5, "k 1.5 must be an integer"),
                                  (0.1, 2.0, "k 2.0 must be an integer")):
            with pytest.raises(ValueError, match=message):
                build_diffusion(np.array([[0, 1]]), 2, alpha, k)


class TestKnnSparsify:
    def test_keeps_row_maxima(self):
        a = np.array([[0.5, 0.1, 0.4],
                      [0.2, 0.9, 0.3]])
        out = knn_sparsify(a, 2)
        np.testing.assert_array_equal(out, [[0.5, 0.0, 0.4],
                                            [0.0, 0.9, 0.3]])

    def test_ties_break_toward_smaller_column(self):
        a = np.array([[0.7, 0.7, 0.7]])
        out = knn_sparsify(a, 2)
        np.testing.assert_array_equal(out, [[0.7, 0.7, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        a = rng.random((6, 6))
        once = knn_sparsify(a, 3)
        np.testing.assert_array_equal(knn_sparsify(once, 3), once)

    def test_k_at_least_n_is_identity_with_warning(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(knn_sparsify(a, 3), a)
        with pytest.warns(UserWarning, match="exceeds"):
            out = knn_sparsify(a, 10)
        np.testing.assert_array_equal(out, a)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            knn_sparsify(np.ones((2, 2)), 0)

    @pytest.mark.parametrize("k", [1.5, 2.0])
    def test_k_must_be_an_integer(self, k):
        # the rule build_diffusion applies, not a TypeError from np.partition
        with pytest.raises(ValueError, match=f"k {k} must be an integer"):
            knn_sparsify(np.ones((2, 3)), k)

    def test_row_support_size(self):
        rng = np.random.default_rng(8)
        a = rng.random((10, 10))
        out = knn_sparsify(a, 4)
        np.testing.assert_array_equal((out != 0).sum(axis=1), 4)

    def test_bit_identical_to_stable_argsort(self):
        rng = np.random.default_rng(9)
        for trial in range(300):
            n, m = rng.integers(1, 12), rng.integers(2, 12)
            kind = trial % 3
            if kind == 0:     # integer values: many ties at the k-th value
                a = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
            elif kind == 1:   # signed zeros among a few distinct values
                a = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0], size=(n, m))
            else:
                a = rng.random((n, m))
            for k in sorted({1, int(rng.integers(1, m)), m - 2, m - 1} - {0, -1}):
                out = knn_sparsify(a, k)
                ref = stable_argsort_topk(a, k)
                np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_float32_selected_in_float32(self):
        # no float64 copy; float32 -> float64 is exact and monotone, so the
        # upcast selects the same entries, ties included
        rng = np.random.default_rng(11)
        a = rng.integers(0, 4, size=(20, 12)).astype(np.float32) * rng.random(12, np.float32)
        for k in (1, 4, 11, 12):
            out = knn_sparsify(a, k)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(bits(out), bits(knn_sparsify(a.astype(np.float64), k)))

    @pytest.mark.parametrize("k", [1, 3, 5, 6, 7])
    def test_nan_raises_naming_its_row(self, k):
        # once NaNs were dropped silently; the row's largest entry is no NaN.
        # k of 6 and 7 keep every one of the 6 columns, 7 with a warning
        a = np.random.default_rng(10).random((5, 6))
        a[3, 4] = np.nan
        a[3, 0] = 2.0
        with (pytest.warns(UserWarning, match="exceeds") if k > 6 else warnings.catch_warnings()):
            with pytest.raises(ValueError, match="row 3 has a NaN entry"):
                knn_sparsify(a, k)

    def test_tie_path_on_isolated_nodes_matches_stable_argsort(self):
        # an isolated node's diffusion row is alpha at itself and 0 elsewhere,
        # so for k >= 2 its k-th value is a 0 tied across every other column;
        # several row blocks, so the tie rule runs on some blocks' rows only
        n, k = 2 * structure_path.BLOCK_ROWS + 37, 4
        rng = np.random.default_rng(23)
        edges = sparse_graph(rng, n)
        isolated = rng.choice(n, 12, replace=False)
        edges = edges[~np.isin(edges, isolated).any(axis=1)]
        topk = build_diffusion(edges, n, 0.15, k)
        dense = ppr_closed_form(normalize_adjacency(edges, n), 0.15)
        expected = stable_argsort_topk(dense, k)
        assert np.all((dense[isolated] == 0).sum(axis=1) == n - 1)   # k-th value 0, tied
        np.testing.assert_array_equal(bits(knn_sparsify(dense, k)), bits(expected))
        np.testing.assert_array_equal(bits(topk.toarray()), bits(expected))


class TestPositionalFeatures:
    def test_reads_embedding_table_plus_bias(self):
        store = ParamStore()
        rng = np.random.default_rng(9)
        W = rng.normal(size=(5, 3))
        b = rng.normal(size=(1, 3))
        store.add("pos.W", W)
        store.add("pos.b", b)
        out = positional_features(5, store)
        np.testing.assert_allclose(out.value, W + b, rtol=1e-15)

    def test_identity_table_zero_bias(self):
        store = ParamStore()
        store.add("pos.W", np.eye(4))
        store.add("pos.b", np.zeros((1, 4)))
        np.testing.assert_array_equal(positional_features(4, store).value, np.eye(4))

    def test_row_count_checked(self):
        store = ParamStore()
        store.add("pos.W", np.eye(3))
        store.add("pos.b", np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            positional_features(4, store)

    def test_gradient_is_uniform_ones(self):
        store = ParamStore()
        store.add("pos.W", np.ones((3, 2)))
        store.add("pos.b", np.zeros((1, 2)))
        ad.backward(sum_all(positional_features(3, store)))
        np.testing.assert_array_equal(store["pos.W"].grad, np.ones((3, 2)))
        np.testing.assert_array_equal(store["pos.b"].grad, np.full((1, 2), 3.0))


class TestPPNP:
    def ppnp_store(self, dims, seed=0):
        rng = np.random.default_rng(seed)
        store = ParamStore()
        d, h, out = dims
        store.add("ppnp.W0", glorot(rng, d, h))
        store.add("ppnp.W1", glorot(rng, h, out))
        return store

    def test_identity_propagation_reduces_to_mlp(self):
        rng = np.random.default_rng(10)
        store = self.ppnp_store((4, 6, 3), seed=11)
        X = rng.normal(size=(5, 4))
        out = ppnp_forward(ad.Operator(np.eye(5)), X, store)
        W0, W1 = store["ppnp.W0"].value, store["ppnp.W1"].value
        np.testing.assert_allclose(out.value, np.maximum(X @ W0, 0.0) @ W1,
                                   rtol=1e-12)

    def test_zero_input_gives_zero_output(self):
        store = self.ppnp_store((4, 6, 3), seed=12)
        out = ppnp_forward(ad.Operator(np.eye(5)), np.zeros((5, 4)), store)
        np.testing.assert_array_equal(out.value, np.zeros((5, 3)))

    def test_matches_numpy_oracle_with_sparse_operator(self):
        rng = np.random.default_rng(13)
        edges = random_graph(rng, 6)
        a = normalize_adjacency(edges, 6).toarray()
        store = self.ppnp_store((4, 5, 2), seed=14)
        X = rng.normal(size=(6, 4))
        out = ppnp_forward(ad.Operator(sp.csr_array(a)), X, store)
        W0, W1 = store["ppnp.W0"].value, store["ppnp.W1"].value
        expected = a @ np.maximum(a @ X @ W0, 0.0) @ W1
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(15)
        n = 7
        a = normalize_adjacency(random_graph(rng, n), n).toarray()
        X = rng.normal(size=(n, 3))
        store = self.ppnp_store((3, 4, 2), seed=16)
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        out = ppnp_forward(ad.Operator(a), X, store).value
        out_p = ppnp_forward(ad.Operator(P @ a @ P.T), P @ X, store).value
        np.testing.assert_allclose(out_p, P @ out, rtol=1e-10)

    def test_gradcheck(self):
        rng = np.random.default_rng(17)
        a = normalize_adjacency(random_graph(rng, 5), 5).toarray()
        X = rng.normal(size=(5, 3)) + 0.1
        store = self.ppnp_store((3, 4, 2), seed=18)
        gradcheck(lambda s: sum_all(
            sigmoid(ppnp_forward(ad.Operator(sp.csr_array(a)), X, s))), store)


class TestBuildDiffusion:
    @staticmethod
    def assert_is_oracle(topk, edges, n, alpha, k):
        # bit for bit: same sparsity structure and the same stored values
        dense = ppr_closed_form(normalize_adjacency(edges, n).toarray(), alpha)
        expected = sp.csr_array(knn_sparsify(dense, k))
        assert isinstance(topk, sp.csr_array)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(topk, part), getattr(expected, part))

    def test_topk_is_sparsified_dense(self):
        rng = np.random.default_rng(19)
        edges = random_graph(rng, 9)
        topk = build_diffusion(edges, 9, 0.2, 3)
        self.assert_is_oracle(topk, edges, 9, 0.2, 3)
        assert np.diff(topk.indptr).max() <= 3

    def test_k_zero_keeps_everything(self):
        rng = np.random.default_rng(20)
        edges = random_graph(rng, 6)
        topk = build_diffusion(edges, 6, 0.2, 0)
        self.assert_is_oracle(topk, edges, 6, 0.2, 6)

    @pytest.mark.parametrize("k", [0, 1, 20])
    def test_several_blocks_bit_identical_to_dense_reference(self, k):
        n = 2 * structure_path.BLOCK_ROWS + 37
        edges = sparse_graph(np.random.default_rng(21), n)
        topk = build_diffusion(edges, n, 0.15, k)
        dense = dense_ppr_reference(normalize_adjacency(edges, n).toarray(), 0.15)
        # n from objective.F32_ROWS on: solved and selected in float32, which
        # selects what the exact float64 upcast would
        assert dense.dtype == np.float32
        expected = sp.csr_array(knn_sparsify(dense.astype(np.float64), k if k else n))
        assert topk.dtype == np.float64
        for part in ("indptr", "indices"):
            np.testing.assert_array_equal(getattr(topk, part), getattr(expected, part))
            assert getattr(topk, part).dtype == getattr(expected, part).dtype
        np.testing.assert_array_equal(bits(topk.data), bits(expected.data))

    def test_k_above_n_warns_once_and_keeps_everything(self, monkeypatch):
        monkeypatch.setattr(structure_path, "BLOCK_ROWS", 8)
        n = 30   # four row blocks
        edges = sparse_graph(np.random.default_rng(22), n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            topk = build_diffusion(edges, n, 0.2, n + 5)
        assert [str(w.message) for w in caught] == [f"k={n + 5} exceeds {n} columns; keeping all"]
        everything = build_diffusion(edges, n, 0.2, 0)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(topk, part), getattr(everything, part))

    def test_empty_graph_gives_empty_matrix(self):
        with pytest.warns(UserWarning, match="exceeds 0 columns"):
            topk = build_diffusion(np.zeros((0, 2), dtype=np.int64), 0, 0.1, 20)
        assert isinstance(topk, sp.csr_array) and topk.shape == (0, 0)

    def test_one_dense_array_live(self):
        # n=2048: the solve's one n×n float32 array is 16 MiB, and the top-k's
        # block temporaries stay a fraction of it; an n×n float64 array (32 MiB),
        # or a second float32 one beside them, would fail this
        n = 2048
        edges = sparse_graph(np.random.default_rng(23), n, degree=7.0)
        tracemalloc.start()
        try:
            build_diffusion(edges, n, 0.1, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestDumpStructure:
    # the --dump-structure artifact: a sparse matrix through the artifact writer
    def test_writes_sorted_weighted_edges(self, tmp_path):
        a = sp.csr_array(np.array([[0.0, 0.25], [1.5, 0.0]]))
        path = str(tmp_path / "structure.tsv")
        experiment._write_tsv(path, "demo", a)
        lines = open(path).read().splitlines()
        assert lines[0] == "# demo"
        assert lines[1].split("\t") == ["0", "1", "0.25"]
        assert lines[2].split("\t") == ["1", "0", "1.5"]

    def test_round_trips_to_12_digits(self, tmp_path):
        rng = np.random.default_rng(22)
        a = knn_sparsify(rng.random((5, 5)), 2)
        path = str(tmp_path / "structure.tsv")
        experiment._write_tsv(path, "demo", sp.csr_array(a))
        back = np.zeros_like(a)
        for line in open(path).read().splitlines()[1:]:
            u, v, w = line.split("\t")
            back[int(u), int(v)] = float(w)
        np.testing.assert_allclose(back, a, rtol=1e-11)
