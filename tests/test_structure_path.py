import math

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete.autodiff as ad
from graphcomplete.autodiff import ShapeError
from graphcomplete.nn import ParamStore, glorot
from graphcomplete.structure_path import (
    PPRConfig,
    build_diffusion,
    dump_structure,
    knn_sparsify,
    normalize_adjacency,
    positional_features,
    ppnp_forward,
    ppr_closed_form,
    ppr_power_iteration,
)

from conftest import gradcheck

PATH_EDGE = np.array([[0, 1]])  # 2-node path graph


def random_graph(rng, n, p=0.3):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


class TestNormalizeAdjacency:
    def test_two_node_path(self):
        # A+I = all-ones 2x2, degrees 2 -> every entry 1/2
        out = normalize_adjacency(PATH_EDGE, 2)
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), rtol=1e-15)

    def test_isolated_node_keeps_self_loop(self):
        out = normalize_adjacency(np.zeros((0, 2), dtype=np.int64), 3)
        np.testing.assert_array_equal(out, np.eye(3))

    def test_symmetric_and_matches_explicit_formula(self):
        rng = np.random.default_rng(0)
        edges = random_graph(rng, 8)
        out = normalize_adjacency(edges, 8)
        A = np.eye(8)
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        d = A.sum(axis=1)
        expected = A / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(out, expected, rtol=1e-14)
        np.testing.assert_allclose(out, out.T, rtol=1e-15)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(1)
        edges = random_graph(rng, 10)
        dense = normalize_adjacency(edges, 10)
        sparse = normalize_adjacency(edges, 10, sparse=True)
        assert sp.issparse(sparse)
        np.testing.assert_allclose(sparse.toarray(), dense, rtol=1e-15)


class TestPPR:
    def test_two_node_closed_form(self):
        # alpha=0.5 on the 2-node path: eigen-decomposition gives
        # [[0.75, 0.25], [0.25, 0.75]]
        a_norm = normalize_adjacency(PATH_EDGE, 2)
        out = ppr_closed_form(a_norm, 0.5)
        np.testing.assert_allclose(out, [[0.75, 0.25], [0.25, 0.75]], rtol=1e-12)

    def test_single_node_is_identity(self):
        out = ppr_closed_form(np.eye(1), 0.3)
        np.testing.assert_allclose(out, [[1.0]], rtol=1e-15)

    def test_alpha_near_one_approaches_identity(self):
        rng = np.random.default_rng(2)
        a_norm = normalize_adjacency(random_graph(rng, 6), 6)
        out = ppr_closed_form(a_norm, 0.999)
        assert np.abs(out - np.eye(6)).max() < 5e-3

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(3)
        a_norm = normalize_adjacency(random_graph(rng, 12), 12)
        assert ppr_closed_form(a_norm, 0.1).min() >= 0.0

    def test_power_iteration_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for n in (5, 9, 17):
            a_norm = normalize_adjacency(random_graph(rng, n), n)
            for alpha in (0.1, 0.5, 0.9):
                exact = ppr_closed_form(a_norm, alpha)
                res = ppr_power_iteration(a_norm, alpha, tol=1e-12)
                assert res.converged
                assert np.abs(res.matrix - exact).max() < 1e-8

    def test_power_iteration_exhaustion_warns_and_flags(self):
        rng = np.random.default_rng(5)
        a_norm = normalize_adjacency(random_graph(rng, 8), 8)
        with pytest.warns(UserWarning, match="did not reach"):
            res = ppr_power_iteration(a_norm, 0.05, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.matrix.shape == (8, 8)

    def test_matches_truncated_series(self):
        # alpha * sum_t (1-alpha)^t a_norm^t; at alpha=0.5 the 50-term tail
        # is below 1e-15 so the comparison is meaningful at 1e-6
        rng = np.random.default_rng(6)
        a_norm = normalize_adjacency(random_graph(rng, 7), 7)
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
            a_norm = normalize_adjacency(random_graph(rng, n, p=0.1), n)
            lu = np.maximum(np.linalg.solve(np.eye(n) - (1.0 - alpha) * a_norm,
                                            alpha * np.eye(n)), 0.0)
            out = ppr_closed_form(a_norm, alpha)
            assert np.abs(out - lu).max() <= 1e-12
            np.testing.assert_array_equal(out, out.T)

    def test_indefinite_system_raises(self):
        # off-diagonal weight 5 puts an eigenvalue of a_norm far above 1
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            ppr_closed_form(np.array([[0.0, 5.0], [5.0, 0.0]]), 0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            PPRConfig(alpha=0.0)
        with pytest.raises(ValueError, match="negative"):
            PPRConfig(alpha=0.1, k=-1)
        with pytest.raises(ValueError, match="method"):
            PPRConfig(alpha=0.1, method="magic")
        with pytest.raises(ValueError, match="tol"):
            PPRConfig(alpha=0.1, tol=0.0)


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

    def test_row_support_size(self):
        rng = np.random.default_rng(8)
        a = rng.random((10, 10))
        out = knn_sparsify(a, 4)
        np.testing.assert_array_equal((out != 0).sum(axis=1), 4)

    def test_bit_identical_to_stable_argsort(self):
        def argsort_reference(matrix, k):
            order = np.argsort(-matrix, axis=1, kind="stable")[:, :k]
            out = np.zeros_like(matrix)
            rows = np.repeat(np.arange(matrix.shape[0]), k)
            out[rows, order.ravel()] = matrix[rows, order.ravel()]
            return out

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
                ref = argsort_reference(a, k)
                np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


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
        ad.backward(ad.sum_all(positional_features(3, store)))
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
        out = ppnp_forward(np.eye(5), X, store)
        W0, W1 = store["ppnp.W0"].value, store["ppnp.W1"].value
        np.testing.assert_allclose(out.value, np.maximum(X @ W0, 0.0) @ W1,
                                   rtol=1e-12)

    def test_zero_input_gives_zero_output(self):
        store = self.ppnp_store((4, 6, 3), seed=12)
        out = ppnp_forward(np.eye(5), np.zeros((5, 4)), store)
        np.testing.assert_array_equal(out.value, np.zeros((5, 3)))

    def test_matches_numpy_oracle_with_sparse_operator(self):
        rng = np.random.default_rng(13)
        edges = random_graph(rng, 6)
        a = normalize_adjacency(edges, 6)
        store = self.ppnp_store((4, 5, 2), seed=14)
        X = rng.normal(size=(6, 4))
        out = ppnp_forward(sp.csr_array(a), X, store)
        W0, W1 = store["ppnp.W0"].value, store["ppnp.W1"].value
        expected = a @ np.maximum(a @ X @ W0, 0.0) @ W1
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(15)
        n = 7
        a = normalize_adjacency(random_graph(rng, n), n)
        X = rng.normal(size=(n, 3))
        store = self.ppnp_store((3, 4, 2), seed=16)
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        out = ppnp_forward(a, X, store).value
        out_p = ppnp_forward(P @ a @ P.T, P @ X, store).value
        np.testing.assert_allclose(out_p, P @ out, rtol=1e-10)

    def test_gradcheck(self):
        rng = np.random.default_rng(17)
        a = normalize_adjacency(random_graph(rng, 5), 5)
        X = rng.normal(size=(5, 3)) + 0.1
        store = self.ppnp_store((3, 4, 2), seed=18)
        gradcheck(lambda s: ad.sum_all(
            ad.sigmoid(ppnp_forward(sp.csr_array(a), X, s))), store)


class TestBuildDiffusion:
    def test_topk_is_sparsified_dense(self):
        rng = np.random.default_rng(19)
        edges = random_graph(rng, 9)
        cfg = PPRConfig(alpha=0.2, k=3)
        dense, topk = build_diffusion(edges, 9, cfg)
        np.testing.assert_array_equal(knn_sparsify(dense, 3), topk)
        assert np.all((topk != 0).sum(axis=1) <= 3)

    def test_k_zero_keeps_everything(self):
        rng = np.random.default_rng(20)
        edges = random_graph(rng, 6)
        dense, topk = build_diffusion(edges, 6, PPRConfig(alpha=0.2, k=0))
        np.testing.assert_array_equal(dense, topk)

    def test_power_method_route(self):
        rng = np.random.default_rng(21)
        edges = random_graph(rng, 6)
        d1, _ = build_diffusion(edges, 6, PPRConfig(alpha=0.3, k=0))
        d2, _ = build_diffusion(edges, 6, PPRConfig(alpha=0.3, k=0,
                                                    method="power_iteration",
                                                    tol=1e-12))
        assert np.abs(d1 - d2).max() < 1e-8


class TestDumpStructure:
    def test_writes_sorted_weighted_edges(self, tmp_path):
        a = np.array([[0.0, 0.25], [1.5, 0.0]])
        path = str(tmp_path / "structure.tsv")
        dump_structure(a, path, header="demo")
        lines = open(path).read().splitlines()
        assert lines[0] == "# demo"
        assert lines[1].split("\t") == ["0", "1", "0.25"]
        assert lines[2].split("\t") == ["1", "0", "1.5"]

    def test_round_trips_to_12_digits(self, tmp_path):
        rng = np.random.default_rng(22)
        a = knn_sparsify(rng.random((5, 5)), 2)
        path = str(tmp_path / "structure.tsv")
        dump_structure(a, path)
        back = np.zeros_like(a)
        for line in open(path):
            u, v, w = line.split("\t")
            back[int(u), int(v)] = float(w)
        np.testing.assert_allclose(back, a, rtol=1e-11)
