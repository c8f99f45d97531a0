import ast
import pathlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete.autodiff as ad
from graphcomplete import pool
from graphcomplete.nn import ParamStore, apply_dropout

from conftest import bits, gradcheck
from oracles import (
    concat_cols, matmul, mul_colvec, propagate, relu, row_logsumexp, row_normalize, row_softmax,
    scale, sigmoid, slice_cols, sum_all, tanh, tape_layer, transpose,
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
        h = ad.layer(x, store["W"])
        r = relu(h)
        total = ad.add(r, r)
        loss = sum_all(total)
        ad.backward(loss)
        for node in (h, r, loss, total):
            assert node.grad is None
        assert x.grad is None
        expected = X.T @ (2.0 * (X @ store["W"].value > 0))
        np.testing.assert_allclose(store["W"].grad, expected, rtol=1e-12)
        with pytest.raises(RuntimeError, match="consumed twice"):
            ad.backward(loss)

    def test_backward_frees_what_only_the_tape_holds(self):
        # interior values reachable only through the tape or its vjp closures
        # are gone when backward returns, with no collector run; leaves keep grads
        rng = np.random.default_rng(2)
        store = store_with(rng, W=(3, 4), b=(1, 4), V=(4, 2))

        def build():
            h = ad.layer(ad.constant(rng.normal(size=(5, 3))), store["W"], store["b"], relu=True)
            out = ad.layer(h, store["V"])
            sq = ad.mul(out, out)
            return sum_all(sq), [weakref.ref(t.value) for t in (h, out, sq)]

        loss, refs = build()
        assert all(ref() is not None for ref in refs)
        ad.backward(loss)
        assert [ref() for ref in refs] == [None] * 3
        assert loss.grad is None and loss._parents == ()
        for name in ("W", "b", "V"):
            assert store[name].grad is not None and store[name].grad.shape == store[name].shape

    def test_backward_through_a_walked_node_raises(self):
        # a second root over a subgraph the first backward walked: raising, not
        # skipping the walked part, and no grad changes
        rng = np.random.default_rng(3)
        store = store_with(rng, W=(3, 2))
        h = ad.layer(ad.constant(rng.normal(size=(4, 3))), store["W"])
        first, second = sum_all(h), sum_all(ad.mul(h, h))
        ad.backward(first)
        walked = store["W"].grad.copy()
        with pytest.raises(RuntimeError, match="consumed twice"):
            ad.backward(second)
        np.testing.assert_array_equal(store["W"].grad, walked)

    def test_repr_of_a_walked_node_says_node(self):
        store = ParamStore()
        p = store.add("p", np.ones((2, 2)))
        h = ad.mul(p, p)
        assert repr(h) == "Tensor(node, shape=(2, 2))"
        ad.backward(sum_all(h))
        assert h._parents == () and repr(h) == "Tensor(node, shape=(2, 2))"
        assert repr(p) == "Tensor(param, shape=(2, 2))"

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
        ad.backward(sum_all(ad.layer(ad.constant(X), store["W"])))
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
            matmul(a, b)

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
        out = sigmoid(ad.constant(np.array([[1.0]])))
        np.testing.assert_allclose(out.value, [[0.7310585786300049]], rtol=1e-15)

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(ad.constant(np.array([[-800.0, 800.0]])))
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
        dense = propagate(ad.Operator(M), ad.constant(x)).value
        sparse = propagate(ad.Operator(sp.csr_array(M)), ad.constant(x)).value
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
            sigmoid(ad.add_rowvec(s["a"], s["v"]))), store)

    def test_mul_colvec(self):
        rng = np.random.default_rng(12)
        store = store_with(rng, a=(3, 4), c=(3, 1))
        gradcheck(lambda s: sum_all(
            tanh(mul_colvec(s["a"], s["c"]))), store)

    def test_scale(self):
        rng = np.random.default_rng(13)
        store = store_with(rng, a=(2, 3))
        gradcheck(lambda s: sum_all(scale(sigmoid(s["a"]), -1.7)), store)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(14)
        store = ParamStore()
        vals = rng.normal(size=(4, 4))
        vals[np.abs(vals) < 0.1] = 0.5
        store.add("a", vals)
        gradcheck(lambda s: sum_all(ad.mul(relu(s["a"]), s["a"])), store)

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        store = store_with(rng, a=(3, 3))
        gradcheck(lambda s: sum_all(ad.mul(sigmoid(s["a"]), sigmoid(s["a"]))), store)

    def test_tanh(self):
        rng = np.random.default_rng(16)
        store = store_with(rng, a=(3, 3))
        gradcheck(lambda s: sum_all(ad.mul(tanh(s["a"]), s["a"])), store)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(17)
        store = store_with(rng, a=(3, 4), b=(4, 2))
        gradcheck(lambda s: sum_all(
            sigmoid(matmul(s["a"], s["b"]))), store)

    def test_propagate_dense_and_sparse(self):
        rng = np.random.default_rng(18)
        M = rng.normal(size=(4, 4))
        for carrier in (M, sp.csr_array(M)):
            store = store_with(rng, x=(4, 3))
            gradcheck(lambda s, c=carrier: sum_all(
                sigmoid(propagate(ad.Operator(c), s["x"]))), store)

    def test_transpose(self):
        rng = np.random.default_rng(20)
        store = store_with(rng, a=(2, 5))
        gradcheck(lambda s: sum_all(
            matmul(transpose(s["a"]), s["a"])), store)

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
            sigmoid(ad.where_mask(mask, s["a"], s["b"]))), store)
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
            return sum_all(ad.mul(matmul(left, transpose(s["a"])),
                                  matmul(right, transpose(s["b"]))))
        gradcheck(loss, store)

    def test_deep_chain(self):
        rng = np.random.default_rng(27)
        store = store_with(rng, W1=(3, 4), W2=(4, 2))
        x = ad.constant(rng.normal(size=(5, 3)))
        def loss(s):
            h = tanh(ad.layer(x, s["W1"]))
            out = sigmoid(ad.layer(h, s["W2"]))
            return sum_all(ad.mul(out, out))
        gradcheck(loss, store)


# the four layers a net builds: (bias, operator, ReLU)
LAYER_KINDS = {
    "mlp2_hidden": (True, False, True),      # ReLU(X·W1 + b1)
    "mlp2_output": (True, False, False),     # drop(h)·W2 + b2
    "ppnp_hidden": (False, True, True),      # ReLU(A·(X·W0))
    "ppnp_output": (False, True, False),     # A·(drop(H)·W1)
}


def layer_case(kind: str, negative_zero: bool = False):
    """(x, W, b, op, upstream weights G) for one layer kind.  With negative_zero,
    the pre-activation's column 0 is -0.0 on every row: its sums of negative
    products too small for a float64 underflow to -0.0 (x·W's, b adding -0.0,
    or with an operator A·(x·W)'s, A dense)."""
    rng = np.random.default_rng(sorted(LAYER_KINDS).index(kind))
    n, m, h = 9, 5, 4
    x, W, b = rng.normal(size=(n, m)), rng.normal(size=(m, h)), rng.normal(size=(1, h))
    M = np.where(rng.random((n, n)) < 0.4, rng.random((n, n)), 0.0)
    M[3] = 0.0   # an empty row
    op = ad.Operator(sp.csr_array(M))
    if negative_zero:
        W[:, 0] = 1e-300
        if LAYER_KINDS[kind][1]:
            x[:], op = -1.0, ad.Operator(np.full((n, n), 1e-300))
        else:
            x[:], b[0, 0] = -1e-300, -0.0
    return x, W, b, op, rng.normal(size=(n, h))


def run_layer(build, kind, case, x_grad: bool, dropout: float):
    """(value, {name: grad}) of build(drop(x), W, b, op, ReLU) under the loss
    sum(out * G), x a parameter or a constant."""
    has_bias, has_op, activate = LAYER_KINDS[kind]
    x, W, b, op, G = case
    store = ParamStore()
    xt = store.add("x", x.copy()) if x_grad else ad.constant(x.copy())
    Wt = store.add("W", W.copy())
    bt = store.add("b", b.copy()) if has_bias else None
    inp = apply_dropout(xt, dropout, np.random.default_rng(7))
    out = build(inp, Wt, bt, op if has_op else None, activate)
    value = out.value
    ad.backward(sum_all(ad.mul(out, ad.constant(G))))
    return value, {name: t.grad for name, t in store.items()}


def fused_layer(x, W, bias, op, activate):
    return ad.layer(x, W, bias, op, relu=activate)


class TestLayer:
    @pytest.mark.parametrize("dropout", [0.0, 0.5], ids=["no_dropout", "dropout"])
    @pytest.mark.parametrize("x_grad", [False, True], ids=["constant_x", "grad_x"])
    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_matches_the_composition_bit_for_bit(self, kind, x_grad, dropout):
        case = layer_case(kind)
        value, grads = run_layer(fused_layer, kind, case, x_grad, dropout)
        ref_value, ref_grads = run_layer(tape_layer, kind, case, x_grad, dropout)
        assert bits(value).tobytes() == bits(ref_value).tobytes()
        assert grads.keys() == ref_grads.keys() and ("x" in grads) == x_grad
        for name, g in grads.items():
            assert bits(g).tobytes() == bits(ref_grads[name]).tobytes(), name

    @pytest.mark.parametrize("kind", ["mlp2_hidden", "ppnp_hidden"])
    def test_negative_zero_pre_activation(self, kind):
        has_bias, has_op, _ = LAYER_KINDS[kind]
        case = layer_case(kind, negative_zero=True)
        x, W, b, op, _ = case
        pre = tape_layer(ad.constant(x), ad.constant(W), ad.constant(b) if has_bias else None,
                         op if has_op else None).value
        assert np.all(pre[:, 0] == 0.0) and np.all(np.signbit(pre[:, 0]))
        value, grads = run_layer(fused_layer, kind, case, True, 0.0)
        ref_value, ref_grads = run_layer(tape_layer, kind, case, True, 0.0)
        assert not np.signbit(value[:, 0]).any()   # ReLU gives +0.0
        assert bits(value).tobytes() == bits(ref_value).tobytes()
        for name, g in grads.items():
            assert bits(g).tobytes() == bits(ref_grads[name]).tobytes(), name

    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_gradcheck(self, kind):
        has_bias, has_op, activate = LAYER_KINDS[kind]
        x, W, b, op, G = layer_case(kind)
        store = ParamStore()
        for name, value in (("x", x), ("W", W), ("b", b))[:3 if has_bias else 2]:
            store.add(name, value)
        gradcheck(lambda s: sum_all(ad.mul(ad.layer(
            s["x"], s["W"], s["b"] if has_bias else None, op if has_op else None,
            relu=activate), ad.constant(G))), store)

    def test_keeps_one_node_over_its_operands(self):
        x, W, b, op, _ = layer_case("mlp2_hidden")
        store = ParamStore()
        out = ad.layer(ad.constant(x), store.add("W", W), store.add("b", b), relu=True)
        assert [p for p, _ in out._parents] == [store["W"], store["b"]]

    @pytest.mark.parametrize("args, shapes", [
        (((3, 4), (5, 2), None, None), r"\(3, 4\) vs \(5, 2\)"),
        (((3, 4), (4, 2), (2, 1), None), r"bias \(2, 1\)"),
        (((3, 4), (4, 2), None, (5, 5)), r"operator \(5, 5\)"),
    ], ids=["inner_dim", "bias", "operator"])
    def test_shape_errors(self, args, shapes):
        x, W, b, M = args
        with pytest.raises(ad.ShapeError, match=shapes):
            ad.layer(ad.constant(np.ones(x)), ad.constant(np.ones(W)),
                     None if b is None else ad.constant(np.ones(b)),
                     None if M is None else ad.Operator(np.ones(M)))


def top_level_names(path: pathlib.Path) -> set:
    """The functions, classes and assigned names a module defines at top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return defined | {target.id for node in tree.body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)}


def nodes_of_the_other_modules(module):
    """Every syntax node of the package's modules other than module."""
    own = pathlib.Path(module.__file__).resolve()
    for path in own.parent.glob("*.py"):
        if path != own:
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def imported_from(module, node) -> set:
    """The names node imports from module (`from .name import ...`), if it does."""
    name = module.__name__.rpartition(".")[2]
    if isinstance(node, ast.ImportFrom) and node.module in (name, module.__name__):
        return {alias.name for alias in node.names}
    return set()


def test_every_public_autodiff_name_has_a_caller_in_the_package():
    # an op that loses its last caller in src/ moves to tests/oracles.py, and
    # leaves autodiff in the same change: each op has exactly one definition
    defined = top_level_names(pathlib.Path(ad.__file__))
    imported = set().union(*(imported_from(ad, node) for node in nodes_of_the_other_modules(ad)))
    public = {name for name in defined if not name.startswith("_")}
    assert public and public <= imported, sorted(public - imported)
    oracles = top_level_names(pathlib.Path(__file__).resolve().parent / "oracles.py")
    assert not oracles & defined, sorted(oracles & defined)


def test_every_public_pool_function_has_a_caller_in_the_package():
    # a pool function that loses its last caller in src/ leaves pool in the same
    # change; a caller names it as pool.<name> or imports it from .pool
    tree = ast.parse(pathlib.Path(pool.__file__).read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for node in nodes_of_the_other_modules(pool):
        called |= imported_from(pool, node)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "pool":
            called.add(node.attr)
    assert public and public <= called, sorted(public - called)
