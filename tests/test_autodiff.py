import ast
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete.autodiff as ad
from graphcomplete.nn import ParamStore

from conftest import gradcheck
from oracles import (
    concat_cols, mul_colvec, row_logsumexp, row_normalize, row_softmax, scale, slice_cols,
    sum_all, tanh,
)


def store_with(rng, **shapes):
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    return store


class TestTape:
    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(t)

    def test_tape_consumed_twice(self):
        t = ad.Tensor(np.ones(()), requires_grad=True)
        loss = scale(t, 2.0)
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="consumed twice"):
            ad.backward(loss)

    def test_interior_grads_freed_leaf_grads_kept(self):
        # loss = sum(relu(X @ W) + relu(X @ W)): the relu node fans out twice
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        store = store_with(rng, W=(3, 2))
        x = ad.constant(X)
        h = ad.matmul(x, store["W"])
        r = ad.relu(h)
        loss = sum_all(ad.add(r, r))
        ad.backward(loss)
        for node in (h, r, loss, loss._parents[0][0]):
            assert node.grad is None
        assert x.grad is None
        expected = X.T @ (2.0 * (X @ store["W"].value > 0))
        np.testing.assert_allclose(store["W"].grad, expected, rtol=1e-12)
        with pytest.raises(RuntimeError, match="consumed twice"):
            ad.backward(loss)

    def test_unreachable_param_keeps_zero_grad(self):
        store = ParamStore()
        used = store.add("used", np.array([[1.0]]))
        unused = store.add("unused", np.array([[1.0]]))
        ad.backward(sum_all(used))
        assert unused.grad is None

    def test_grads_accumulate_across_fanout(self):
        store = ParamStore()
        p = store.add("p", np.array([[3.0]]))
        ad.backward(sum_all(ad.add(p, p)))
        np.testing.assert_allclose(p.grad, [[2.0]])

    def test_constant_branch_receives_no_grad(self):
        c = ad.constant(np.ones((2, 2)))
        store = ParamStore()
        p = store.add("p", np.ones((2, 2)))
        ad.backward(sum_all(ad.add(p, c)))
        assert c.grad is None
        np.testing.assert_array_equal(p.grad, np.ones((2, 2)))

    def test_linear_map_gradient_is_xt_ones(self):
        # loss = sum(X @ W) has dL/dW = X^T @ ones exactly
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        store = store_with(rng, W=(3, 2))
        ad.backward(sum_all(ad.matmul(ad.constant(X), store["W"])))
        expected = X.T @ np.ones((4, 2))
        np.testing.assert_allclose(store["W"].grad, expected, rtol=1e-12)


class TestShapeChecks:
    def test_add_shape_mismatch(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((3, 2)))
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)

    def test_matmul_inner_dim_mismatch(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.matmul(a, b)

    def test_add_rowvec_requires_row(self):
        a = ad.constant(np.ones((2, 3)))
        v = ad.constant(np.ones((2, 1)))
        with pytest.raises(ad.ShapeError):
            ad.add_rowvec(a, v)

    def test_mul_colvec_requires_column(self):
        a = ad.constant(np.ones((2, 3)))
        c = ad.constant(np.ones((1, 3)))
        with pytest.raises(ad.ShapeError):
            mul_colvec(a, c)

    def test_slice_cols_bounds(self):
        a = ad.constant(np.ones((2, 3)))
        with pytest.raises(ad.ShapeError):
            slice_cols(a, 2, 5)


class TestForwardValues:
    def test_sigmoid_known_point(self):
        out = ad.sigmoid(ad.constant(np.array([[1.0]])))
        np.testing.assert_allclose(out.value, [[0.7310585786300049]], rtol=1e-15)

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(ad.constant(np.array([[-800.0, 800.0]])))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value, [[0.0, 1.0]], atol=1e-300)

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = row_softmax(ad.constant(rng.normal(size=(5, 4)) * 50))
        np.testing.assert_allclose(out.value.sum(axis=1), np.ones(5), rtol=1e-12)

    def test_row_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6)) * 30
        out = row_logsumexp(ad.constant(x))
        np.testing.assert_allclose(out.value, logsumexp(x, axis=1, keepdims=True),
                                   rtol=1e-12)

    def test_row_normalize_unit_rows(self):
        rng = np.random.default_rng(3)
        out = row_normalize(ad.constant(rng.normal(size=(4, 5))))
        np.testing.assert_allclose(np.linalg.norm(out.value, axis=1),
                                   np.ones(4), rtol=1e-12)

    def test_where_mask_merges(self):
        mask = np.array([[True, False]])
        a = np.array([[1.0, 2.0]])
        b = ad.constant(np.array([[9.0, 9.0]]))
        out = ad.where_mask(mask, a, b)
        np.testing.assert_array_equal(out.value, [[1.0, 9.0]])

    def test_propagate_matches_dense(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 3))
        dense = ad.propagate(ad.Operator(M), ad.constant(x)).value
        sparse = ad.propagate(ad.Operator(sp.csr_array(M)), ad.constant(x)).value
        np.testing.assert_allclose(dense, M @ x, rtol=1e-12)
        np.testing.assert_allclose(sparse, M @ x, rtol=1e-12)


class TestGradients:
    """Finite-difference checks, one per op.

    Inputs are drawn away from kinks (ReLU) and the epsilon floor
    (row_normalize) so the central difference is trustworthy.
    """

    def test_add(self):
        rng = np.random.default_rng(10)
        store = store_with(rng, a=(3, 4), b=(3, 4))
        gradcheck(lambda s: sum_all(ad.mul(ad.add(s["a"], s["b"]), s["a"])),
                  store)

    def test_add_rowvec(self):
        rng = np.random.default_rng(11)
        store = store_with(rng, a=(3, 4), v=(1, 4))
        gradcheck(lambda s: sum_all(
            ad.sigmoid(ad.add_rowvec(s["a"], s["v"]))), store)

    def test_mul_colvec(self):
        rng = np.random.default_rng(12)
        store = store_with(rng, a=(3, 4), c=(3, 1))
        gradcheck(lambda s: sum_all(
            tanh(mul_colvec(s["a"], s["c"]))), store)

    def test_scale(self):
        rng = np.random.default_rng(13)
        store = store_with(rng, a=(2, 3))
        gradcheck(lambda s: sum_all(scale(ad.sigmoid(s["a"]), -1.7)), store)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(14)
        store = ParamStore()
        vals = rng.normal(size=(4, 4))
        vals[np.abs(vals) < 0.1] = 0.5
        store.add("a", vals)
        gradcheck(lambda s: sum_all(ad.mul(ad.relu(s["a"]), s["a"])), store)

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        store = store_with(rng, a=(3, 3))
        gradcheck(lambda s: sum_all(ad.mul(ad.sigmoid(s["a"]),
                                              ad.sigmoid(s["a"]))), store)

    def test_tanh(self):
        rng = np.random.default_rng(16)
        store = store_with(rng, a=(3, 3))
        gradcheck(lambda s: sum_all(ad.mul(tanh(s["a"]), s["a"])), store)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(17)
        store = store_with(rng, a=(3, 4), b=(4, 2))
        gradcheck(lambda s: sum_all(
            ad.sigmoid(ad.matmul(s["a"], s["b"]))), store)

    def test_propagate_dense_and_sparse(self):
        rng = np.random.default_rng(18)
        M = rng.normal(size=(4, 4))
        for carrier in (M, sp.csr_array(M)):
            store = store_with(rng, x=(4, 3))
            gradcheck(lambda s, c=carrier: sum_all(
                ad.sigmoid(ad.propagate(ad.Operator(c), s["x"]))), store)

    def test_transpose(self):
        rng = np.random.default_rng(20)
        store = store_with(rng, a=(2, 5))
        gradcheck(lambda s: sum_all(
            ad.matmul(ad.transpose(s["a"]), s["a"])), store)

    def test_row_normalize(self):
        rng = np.random.default_rng(21)
        store = ParamStore()
        store.add("a", rng.normal(size=(4, 3)) + 2.0)
        gradcheck(lambda s: sum_all(
            ad.mul(row_normalize(s["a"]), s["a"])), store)

    def test_row_normalize_epsilon_floor(self):
        # a numerically-zero row falls back to dividing by NORM_EPS (1e-12);
        # the gradient there is 1/NORM_EPS per entry
        store = ParamStore()
        p = store.add("a", np.zeros((1, 3)))
        out = row_normalize(p)
        np.testing.assert_array_equal(out.value, np.zeros((1, 3)))
        ad.backward(sum_all(out))
        np.testing.assert_allclose(p.grad, np.full((1, 3), 1e12), rtol=1e-12)

    def test_row_softmax(self):
        rng = np.random.default_rng(22)
        store = store_with(rng, a=(3, 4))
        gradcheck(lambda s: sum_all(
            ad.mul(row_softmax(s["a"]), s["a"])), store)

    def test_row_logsumexp(self):
        rng = np.random.default_rng(23)
        store = store_with(rng, a=(4, 5))
        gradcheck(lambda s: sum_all(row_logsumexp(s["a"])), store)

    def test_where_mask_gradient_respects_mask(self):
        rng = np.random.default_rng(25)
        mask = rng.random((3, 4)) > 0.5
        store = store_with(rng, a=(3, 4), b=(3, 4))
        gradcheck(lambda s: sum_all(
            ad.sigmoid(ad.where_mask(mask, s["a"], s["b"]))), store)
        # and exactly: grad of the hidden side is zero where mask holds
        p = ParamStore().add("b", rng.normal(size=(3, 4)))
        ad.backward(sum_all(ad.where_mask(mask, np.zeros((3, 4)), p)))
        np.testing.assert_array_equal(p.grad[mask], 0.0)
        np.testing.assert_array_equal(p.grad[~mask], 1.0)

    def test_concat_and_slice(self):
        rng = np.random.default_rng(26)
        store = store_with(rng, a=(3, 2), b=(3, 3))
        def loss(s):
            cat = concat_cols(s["a"], s["b"])
            left = slice_cols(cat, 0, 2)
            right = slice_cols(cat, 2, 5)
            return sum_all(ad.mul(ad.matmul(left, ad.transpose(s["a"])),
                                     ad.matmul(right, ad.transpose(s["b"]))))
        gradcheck(loss, store)

    def test_deep_chain(self):
        rng = np.random.default_rng(27)
        store = store_with(rng, W1=(3, 4), W2=(4, 2))
        x = ad.constant(rng.normal(size=(5, 3)))
        def loss(s):
            h = tanh(ad.matmul(x, s["W1"]))
            out = ad.sigmoid(ad.matmul(h, s["W2"]))
            return sum_all(ad.mul(out, out))
        gradcheck(loss, store)


def top_level_names(path: pathlib.Path) -> set:
    """The functions, classes and assigned names a module defines at top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return defined | {target.id for node in tree.body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)}


def test_every_public_autodiff_name_has_a_caller_in_the_package():
    # an op that loses its last caller in src/ moves to tests/oracles.py, and
    # leaves autodiff in the same change: each op has exactly one definition
    package = pathlib.Path(ad.__file__).resolve().parent
    defined = top_level_names(pathlib.Path(ad.__file__))
    imported = set()
    for path in package.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "graphcomplete.autodiff"):
                imported |= {alias.name for alias in node.names}
    public = {name for name in defined if not name.startswith("_")}
    assert public and public <= imported, sorted(public - imported)
    oracles = top_level_names(pathlib.Path(__file__).resolve().parent / "oracles.py")
    assert not oracles & defined, sorted(oracles & defined)
