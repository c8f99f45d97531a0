import math
import re

import numpy as np
import pytest

import graphcomplete.autodiff as ad
from graphcomplete import rng as rngmod
from graphcomplete.feature_path import impute_features
from graphcomplete.nn import (
    Optimizer,
    ParamStore,
    apply_dropout,
    glorot,
    init_mlp2,
    mlp2_forward,
)
from graphcomplete.structure_path import init_ppnp, ppnp_forward

from conftest import ReferenceAdam, ZeroFilledStore, bits
from oracles import cosine_matrix, finite_diff_grad, sum_all


class TestParamStore:
    def test_add_registers_trainable_tensor(self):
        store = ParamStore()
        t = store.add("w", np.ones((2, 2)))
        assert t.requires_grad
        assert t.grad is None
        assert "w" in store and len(store) == 1

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones((1, 1)))
        with pytest.raises(ValueError):
            store.add("w", np.zeros((1, 1)))

    def test_snapshot_is_insulated_from_updates(self):
        store = ParamStore()
        p = store.add("w", np.ones((1, 1)))
        snap = store.snapshot()
        p.value = p.value + 5.0
        np.testing.assert_array_equal(snap["w"], [[1.0]])
        store.restore(snap)
        np.testing.assert_array_equal(store["w"].value, [[1.0]])


class TestInit:
    def test_glorot_bounds_and_shape(self):
        rng = np.random.default_rng(0)
        w = glorot(rng, 30, 50)
        assert w.shape == (30, 50)
        limit = math.sqrt(6.0 / (30 + 50))
        assert np.abs(w).max() <= limit
        # not degenerate
        assert np.abs(w).max() > 0.5 * limit

    def test_glorot_deterministic_per_generator(self):
        a = glorot(rngmod.make_rng(7, 0), 4, 4)
        b = glorot(rngmod.make_rng(7, 0), 4, 4)
        np.testing.assert_array_equal(a, b)

    def test_init_mlp2_shapes(self):
        store = ParamStore()
        init_mlp2(store, "f", (5, 8, 3), np.random.default_rng(1))
        assert store["f.W1"].value.shape == (5, 8)
        assert store["f.b1"].value.shape == (1, 8)
        assert store["f.W2"].value.shape == (8, 3)
        assert store["f.b2"].value.shape == (1, 3)
        np.testing.assert_array_equal(store["f.b1"].value, 0.0)


class TestMLP:
    def identity_store(self, d):
        store = ParamStore()
        store.add("m.W1", np.eye(d))
        store.add("m.b1", np.zeros((1, d)))
        store.add("m.W2", np.eye(d))
        store.add("m.b2", np.zeros((1, d)))
        return store

    def test_identity_weights_pass_nonnegative_input_through(self):
        store = self.identity_store(3)
        X = np.array([[0.0, 1.0, 2.0], [3.0, 0.5, 0.0]])
        out = mlp2_forward(store, "m", X)
        np.testing.assert_array_equal(out.value, X)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        init_mlp2(store, "m", (4, 6, 2), rng)
        X = rng.normal(size=(5, 4))
        out = mlp2_forward(store, "m", X)
        W1, b1 = store["m.W1"].value, store["m.b1"].value
        W2, b2 = store["m.W2"].value, store["m.b2"].value
        expected = np.maximum(X @ W1 + b1, 0.0) @ W2 + b2
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_zero_input_yields_bias_path(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        init_mlp2(store, "m", (4, 6, 2), rng)
        out = mlp2_forward(store, "m", np.zeros((3, 4)))
        # biases start at zero, so the whole output is zero
        np.testing.assert_array_equal(out.value, np.zeros((3, 2)))

    def test_dropout_requires_generator(self):
        store = self.identity_store(2)
        with pytest.raises(ValueError, match="generator"):
            mlp2_forward(store, "m", np.ones((2, 2)), dropout=0.5)


class TestApplyDropout:
    def test_values_are_zero_or_inverse_keep(self):
        rng = np.random.default_rng(4)
        m = apply_dropout(ad.constant(np.ones((50, 50))), 0.3, rng).value
        vals = np.unique(m)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.7, 12)}
        # roughly the right drop fraction
        assert abs((m == 0).mean() - 0.3) < 0.05

    def test_rate_zero_returns_input_and_draws_nothing(self):
        rng = np.random.default_rng(5)
        h = ad.constant(np.ones((3, 3)))
        assert apply_dropout(h, 0.0, rng) is h
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError, match=r"dropout rate 1\.0 outside"):
            apply_dropout(ad.constant(np.ones((2, 2))), 1.0, np.random.default_rng(6))


def dropout_callers():
    """Each public forward that takes a dropout rate, as (rate, generator) -> output."""
    store = ParamStore()
    init_mlp2(store, "imputer", (3, 4, 3), np.random.default_rng(0))
    init_ppnp(store, "ppnp", (3, 4, 2), np.random.default_rng(1))
    x = np.arange(15.0).reshape(5, 3)
    mask = x % 2 == 0
    op = ad.Operator(np.eye(5))
    return {
        "mlp2_forward": lambda rate, rng: mlp2_forward(store, "imputer", x, rate, rng),
        "impute_features": lambda rate, rng: impute_features(x * mask, mask, store, rate, rng),
        "ppnp_forward": lambda rate, rng: ppnp_forward(op, x, store, "ppnp", rate, rng),
    }


class TestDropoutRateChecked:
    """Every forward with dropout checks the rate through apply_dropout."""

    @pytest.mark.parametrize("caller", ["mlp2_forward", "impute_features", "ppnp_forward"])
    @pytest.mark.parametrize("rate", [-0.5, float("nan")])
    def test_rate_outside_unit_interval_is_named(self, caller, rate):
        with pytest.raises(ValueError, match=re.escape(f"dropout rate {rate} outside [0, 1)")):
            dropout_callers()[caller](rate, np.random.default_rng(2))

    @pytest.mark.parametrize("caller", ["mlp2_forward", "impute_features", "ppnp_forward"])
    def test_rate_one_without_generator_names_the_rate(self, caller):
        with pytest.raises(ValueError, match=r"dropout rate 1\.0 outside"):
            dropout_callers()[caller](1.0, None)


class TestOptimizer:
    def run_one_step(self, learning_rate, weight_decay=0.0, value=1.0, grad=1.0):
        store = ParamStore()
        p = store.add("p", np.array([[value]]))
        p.grad = np.array([[grad]])
        Optimizer(store, learning_rate, weight_decay).step()
        return store, p

    def test_weight_decay(self):
        # decay joins the gradient: g = 1 + 0.5*1, and the first Adam update is lr*g/(|g| + eps)
        _, p = self.run_one_step(0.1, weight_decay=0.5)
        np.testing.assert_allclose(p.value, [[1.0 - 0.1 * 1.5 / (1.5 + 1e-8)]], rtol=1e-15)

    def test_lr_zero_is_identity(self):
        _, p = self.run_one_step(0.0, grad=3.0)
        np.testing.assert_array_equal(p.value, [[1.0]])

    def test_adam_first_step_is_almost_signed_lr(self):
        # after bias correction the first update is lr*g/(|g| + eps)
        _, p = self.run_one_step(0.01, grad=0.37)
        np.testing.assert_allclose(p.value, [[1.0 - 0.01 * 0.37 / (0.37 + 1e-8)]],
                                   rtol=1e-12)

    def test_grads_zeroed_after_step(self):
        store, p = self.run_one_step(0.01)
        assert p.grad is None

    def test_zero_grad_leaves_param_unchanged(self):
        store = ParamStore()
        p = store.add("p", np.array([[2.5]]))
        Optimizer(store, 0.3).step()
        np.testing.assert_array_equal(p.value, [[2.5]])

    def test_non_finite_update_raises(self):
        store = ParamStore()
        p = store.add("p", np.array([[1.0, 2.0, 3.0]]))
        p.grad = np.array([[0.5, np.inf, -0.5]])
        before = p.value.copy()
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="p"):
            Optimizer(store, 0.01).step()
        # the finite entries' updates must not leak into the parameter either
        np.testing.assert_array_equal(bits(p.value), bits(before))

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_bit_identical_to_reference_adam(self, weight_decay):
        shapes = {"a": (1, 1), "b": (1, 512), "c": (512, 256), "no_grad": (3, 2)}
        rng = np.random.default_rng(12)
        stores = ParamStore(), ParamStore()
        for name, shape in shapes.items():
            value = rng.normal(size=shape)
            for store in stores:
                store.add(name, value)
        opt = Optimizer(stores[0], 0.01, weight_decay)
        ref = ReferenceAdam(stores[1], 0.01, weight_decay)
        for _ in range(50):
            for name, shape in shapes.items():
                # gradients over eight decades, with exact zeros and sign flips
                g = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                g[rng.random(shape) < 0.1] = 0.0
                for store in stores:
                    store[name].grad = None if name == "no_grad" else g.copy()
            opt.step()
            ref.step()
            for name in shapes:
                np.testing.assert_array_equal(bits(stores[0][name].value),
                                              bits(stores[1][name].value), err_msg=name)
        for name in shapes:
            np.testing.assert_array_equal(bits(opt._m[name]), bits(ref._m[name]))
            np.testing.assert_array_equal(bits(opt._v[name]), bits(ref._v[name]))

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_none_grads_bit_identical_to_zero_filled(self, weight_decay):
        # p's first gradient entry is -0.0 (and so is its value): left None until
        # backward, the grad keeps the sign that zeros + (-0.0) would drop;
        # "unused" is never reached, so its grad stays None or zero
        c = ad.constant(np.array([[-0.0, 1.0, -2.0], [0.5, 0.0, 3.0]]))
        value = np.array([[-0.0, 0.3, -1.2], [2.0, 0.0, -0.7]])
        stores = ParamStore(), ZeroFilledStore()
        for store in stores:
            store.add("p", value.copy())
            store.add("unused", np.ones((1, 2)))
        opts = [Optimizer(store, 0.01, weight_decay)
                for store in stores]
        for _ in range(5):
            for store in stores:
                p = store["p"]
                ad.backward(sum_all(ad.add(ad.mul(p, c), ad.mul(p, p))))
            first = [store["p"].grad[0, 0] for store in stores]
            assert first[0] == 0.0 and np.signbit(first[0]) and not np.signbit(first[1])
            for opt in opts:
                opt.step()
            for name in ("p", "unused"):
                np.testing.assert_array_equal(bits(stores[0][name].value),
                                              bits(stores[1][name].value), err_msg=name)
                np.testing.assert_array_equal(bits(opts[0]._m[name]), bits(opts[1]._m[name]))
                np.testing.assert_array_equal(bits(opts[0]._v[name]), bits(opts[1]._v[name]))

    def test_negative_lr_rejected(self):
        store = ParamStore()
        store.add("p", np.ones((1, 1)))
        for learning_rate, weight_decay, message in (
                (-0.1, 0.0, "learning_rate -0.1 must be nonnegative"),
                (np.nan, 0.0, "learning_rate nan must be nonnegative"),
                (0.1, -1.0, "weight_decay -1.0 must be nonnegative"),
                (0.1, np.nan, "weight_decay nan must be nonnegative")):
            with pytest.raises(ValueError, match=message):
                Optimizer(store, learning_rate, weight_decay)

    def test_adam_descends_a_quadratic(self):
        store = ParamStore()
        p = store.add("p", np.array([[5.0]]))
        opt = Optimizer(store, 0.1)
        for _ in range(200):
            loss = sum_all(ad.mul(p, p))
            ad.backward(loss)
            opt.step()
        assert abs(p.value[0, 0]) < 0.05


class TestFiniteDiff:
    def test_quadratic_slope(self):
        store = ParamStore()
        p = store.add("p", np.array([[3.0]]))
        grads = finite_diff_grad(lambda: float(p.value[0, 0] ** 2), store)
        np.testing.assert_allclose(grads["p"], [[6.0]], rtol=1e-9)

    def test_names_filter(self):
        store = ParamStore()
        a = store.add("a", np.array([[2.0]]))
        store.add("b", np.array([[4.0]]))
        grads = finite_diff_grad(lambda: float(a.value[0, 0] ** 2), store,
                                 names=["a"])
        assert set(grads) == {"a"}

    def test_non_finite_loss_raises(self):
        store = ParamStore()
        store.add("p", np.array([[1.0]]))
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda: float("nan"), store)


class TestCosineMatrix:
    def test_known_angles(self):
        U = np.array([[1.0, 0.0], [1.0, 1.0]])
        V = np.array([[0.0, 2.0], [3.0, 0.0]])
        S = cosine_matrix(U, V)
        expected = np.array([[0.0, 1.0],
                             [math.sqrt(0.5), math.sqrt(0.5)]])
        np.testing.assert_allclose(S, expected, rtol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        U = rng.normal(size=(5, 7))
        V = rng.normal(size=(4, 7))
        S = cosine_matrix(U, V)
        for i in range(5):
            for j in range(4):
                expected = (U[i] @ V[j]) / (np.linalg.norm(U[i]) * np.linalg.norm(V[j]))
                np.testing.assert_allclose(S[i, j], expected, rtol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(9)
        U = rng.normal(size=(20, 3)) * 1e6
        S = cosine_matrix(U, U)
        assert S.max() <= 1.0 + 1e-12
        assert S.min() >= -1.0 - 1e-12

    def test_zero_row_gives_zero_cosines(self):
        U = np.array([[0.0, 0.0], [1.0, 2.0]])
        S = cosine_matrix(U, U)
        np.testing.assert_array_equal(S[0], [0.0, 0.0])

