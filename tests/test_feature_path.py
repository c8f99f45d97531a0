import numpy as np
import pytest

import graphcomplete.autodiff as ad
from graphcomplete.autodiff import ShapeError
from graphcomplete.feature_path import decode_structure, impute_features
from graphcomplete.nn import ParamStore, init_mlp2

from conftest import bits, forced_splits, gradcheck
from oracles import matmul, sigmoid, sum_all, transpose

SIGMOID_1 = 0.7310585786300049  # logistic(1), frozen reference value


def imputer_store(d, h=None, seed=0):
    store = ParamStore()
    init_mlp2(store, "imputer", (d, h or 2 * d, d), np.random.default_rng(seed))
    return store


def identity_imputer(d):
    store = ParamStore()
    store.add("imputer.W1", np.eye(d))
    store.add("imputer.b1", np.zeros((1, d)))
    store.add("imputer.W2", np.eye(d))
    store.add("imputer.b2", np.zeros((1, d)))
    return store


class TestImpute:
    def test_fully_observed_input_is_bit_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))
        out = impute_features(X, np.ones_like(X, dtype=bool), imputer_store(3))
        np.testing.assert_array_equal(out.value, X)

    def test_identity_network_keeps_zero_fill(self):
        # an identity network reproduces the zero-filled input, so the one
        # missing entry comes back as 0 and everything else is untouched
        X = np.array([[1.0, 2.0], [3.0, 0.0]])
        mask = np.array([[True, True], [True, False]])
        out = impute_features(X, mask, identity_imputer(2))
        np.testing.assert_array_equal(out.value, X)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(2)
        store = imputer_store(4, seed=3)
        X = np.abs(rng.normal(size=(6, 4)))
        mask = rng.random((6, 4)) > 0.4
        X = np.where(mask, X, 0.0)
        out = impute_features(X, mask, store).value
        W1, b1 = store["imputer.W1"].value, store["imputer.b1"].value
        W2, b2 = store["imputer.W2"].value, store["imputer.b2"].value
        pred = np.maximum(X @ W1 + b1, 0.0) @ W2 + b2
        for i in range(6):
            for j in range(4):
                expected = X[i, j] if mask[i, j] else pred[i, j]
                assert out[i, j] == pytest.approx(expected, rel=1e-12)
                if mask[i, j]:
                    assert out[i, j] == X[i, j]

    def test_observed_entries_contribute_no_gradient(self):
        from graphcomplete.nn import mlp2_forward
        rng = np.random.default_rng(4)
        store = imputer_store(3, seed=5)
        mask = rng.random((4, 3)) > 0.5
        X = np.where(mask, rng.normal(size=(4, 3)), 0.0)
        ad.backward(sum_all(impute_features(X, mask, store)))
        grads_merged = {k: t.grad.copy() for k, t in store.items()}
        store.zero_grad()

        # summing the raw network output over just the missing entries
        # must produce the same parameter gradients
        pred = mlp2_forward(store, "imputer", X)
        missing_sum = sum_all(ad.where_mask(mask, np.zeros_like(X), pred))
        ad.backward(missing_sum)
        for k, t in store.items():
            np.testing.assert_allclose(grads_merged[k], t.grad, rtol=1e-12)

    def test_all_observed_gives_zero_parameter_grads(self):
        rng = np.random.default_rng(6)
        store = imputer_store(3, seed=7)
        X = rng.normal(size=(4, 3))
        ad.backward(sum_all(impute_features(X, np.ones_like(X, dtype=bool), store)))
        for _, t in store.items():
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.value))

    def test_gradcheck_through_merge(self):
        rng = np.random.default_rng(8)
        X = np.abs(rng.normal(size=(5, 3))) + 0.2
        mask = rng.random((5, 3)) > 0.5
        X = np.where(mask, X, 0.0)
        store = imputer_store(3, seed=9)
        # move hidden preactivations off the ReLU kink (all-zero rows would
        # otherwise sit exactly at it and break the central difference)
        store["imputer.b1"].value = 0.3 + np.abs(rng.normal(size=(1, 6)))
        gradcheck(lambda s: sum_all(
            sigmoid(impute_features(X, mask, s))), store)

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError):
            impute_features(np.ones((3, 2)), np.ones((2, 3), dtype=bool),
                            imputer_store(2))

    def test_imputer_dims_checked(self):
        with pytest.raises(ShapeError, match="imputer"):
            impute_features(np.ones((3, 4)), np.ones((3, 4), dtype=bool),
                            imputer_store(2))


class TestDecode:
    def test_zero_features_give_half_everywhere(self):
        out = decode_structure(np.zeros((3, 2)))
        np.testing.assert_array_equal(out, np.full((3, 3), 0.5))

    def test_unit_gram_entry(self):
        # rows e1 and 2*e2: diagonal gets sigmoid(1), sigmoid(4)
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = decode_structure(X)
        assert out[0, 0] == pytest.approx(SIGMOID_1, rel=1e-15)
        assert out[0, 1] == 0.5 and out[1, 0] == 0.5

    def test_output_symmetric_and_bounded(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(8, 5))
        out = decode_structure(X)
        np.testing.assert_array_equal(out, out.T)
        assert out.min() > 0.0 and out.max() < 1.0

    @pytest.mark.parametrize("n", [6, 50], ids=["unsplit", "split"])
    def test_matches_the_tape_composition_bit_for_bit(self, n):
        # an array, gradient-free, equal to the tape's sigmoid(X·Xᵀ); under
        # forced splits the product takes the pool's split path (n=50 in two halves)
        X = np.random.default_rng(11).normal(size=(n, 3))
        x = ad.constant(X)
        expected = bits(sigmoid(matmul(x, transpose(x))).value).tobytes()
        outs = [decode_structure(X), decode_structure(ParamStore().add("x", X))]
        with forced_splits():
            outs += [decode_structure(X), decode_structure(x)]
        for out in outs:
            assert type(out) is np.ndarray and bits(out).tobytes() == expected

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match="decode_structure"):
            decode_structure(np.ones(4))
