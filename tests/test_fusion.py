import math

import numpy as np
import pytest

import graphcomplete.autodiff as ad
from graphcomplete.autodiff import ShapeError
from graphcomplete import experiment
from graphcomplete.fusion import attention_fuse, init_fusion
from graphcomplete.nn import ParamStore

from conftest import bits, gradcheck
from oracles import mul_colvec, sigmoid, sum_all, tape_attention_fuse

SIGMOID_2 = 0.8807970779778823  # logistic(2), frozen reference value


def fused(x, z, seed=0, store=None):
    if store is None:
        store = ParamStore()
        init_fusion(store, x.shape[1], 4, np.random.default_rng(seed))
    return attention_fuse(x, z, store), store


def zero_score_store(d, a=4):
    """All-zero scores: both gates are tanh(0)=0, weights are exactly 1/2."""
    store = ParamStore()
    rng = np.random.default_rng(99)
    init_fusion(store, d, a, rng)
    store["fusion.score_f"].value = np.zeros((a, 1))
    store["fusion.score_s"].value = np.zeros((a, 1))
    return store


def saturated_store(d, a=4, favor="f"):
    """Gate biases pushed to ±20 so tanh saturates to exactly ±1 in float64.

    The softmax then lands on (sigmoid(2), sigmoid(-2)) for the favored
    view: the widest weight split this gate construction can express.
    """
    store = ParamStore()
    rng = np.random.default_rng(98)
    init_fusion(store, d, a, rng)
    for side in "fs":
        store[f"fusion.proj_{side}.W"].value = np.zeros((d, a))
        sign = 1.0 if side == favor else -1.0
        store[f"fusion.proj_{side}.b"].value = np.full((1, a), sign * 20.0)
        store[f"fusion.score_{side}"].value = np.full((a, 1), 1.0 / a)
    return store


class TestWeights:
    def test_zero_scores_give_exact_halves(self):
        rng = np.random.default_rng(0)
        x, z = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        out, _ = fused(x, z, store=zero_score_store(3))
        np.testing.assert_array_equal(out.weights, np.full((5, 2), 0.5))
        np.testing.assert_allclose(out.fused.value, 0.5 * (x + z), rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x, z = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        out, _ = fused(x, z, seed=2)
        np.testing.assert_allclose(out.weights.sum(axis=1),
                                   np.ones(7), atol=1e-12)

    def test_weights_strictly_inside_gate_range(self):
        # tanh gates live in [-1, 1], so the two-way softmax is bounded by
        # (sigmoid(-2), sigmoid(2)); saturation attains the bounds exactly
        rng = np.random.default_rng(3)
        x, z = rng.normal(size=(6, 3)) * 5, rng.normal(size=(6, 3)) * 5
        out, _ = fused(x, z, seed=4)
        w = out.weights
        assert w.min() >= 1.0 - SIGMOID_2 - 1e-12
        assert w.max() <= SIGMOID_2 + 1e-12
        assert w.min() > 0.0

    def test_saturated_gates_hit_sigmoid_2(self):
        rng = np.random.default_rng(5)
        x, z = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out, _ = fused(x, z, store=saturated_store(3, favor="f"))
        np.testing.assert_allclose(out.weights[:, 0],
                                   np.full(4, SIGMOID_2), rtol=1e-15)
        out, _ = fused(x, z, store=saturated_store(3, favor="s"))
        np.testing.assert_allclose(out.weights[:, 1],
                                   np.full(4, SIGMOID_2), rtol=1e-15)


class TestFusedRows:
    def test_equal_views_reproduce_the_view(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        out, _ = fused(x, x.copy(), seed=7)
        np.testing.assert_allclose(out.fused.value, x, atol=2.5e-16, rtol=1e-15)

    def test_fused_row_is_convex_combination(self):
        rng = np.random.default_rng(8)
        x, z = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        out, _ = fused(x, z, seed=9)
        w = out.weights
        expected = w[:, :1] * x + w[:, 1:] * z
        np.testing.assert_allclose(out.fused.value, expected, rtol=1e-14)
        lo = np.minimum(x, z) - 1e-12
        hi = np.maximum(x, z) + 1e-12
        assert np.all(out.fused.value >= lo) and np.all(out.fused.value <= hi)

    def test_swapping_views_swaps_weight_columns(self):
        rng = np.random.default_rng(10)
        x, z = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        store = ParamStore()
        init_fusion(store, 3, 4, np.random.default_rng(11))
        # mirror the parameters so the two sides are interchangeable
        store["fusion.proj_s.W"].value = store["fusion.proj_f.W"].value.copy()
        store["fusion.proj_s.b"].value = store["fusion.proj_f.b"].value.copy()
        store["fusion.score_s"].value = store["fusion.score_f"].value.copy()
        a = attention_fuse(x, z, store)
        b = attention_fuse(z, x, store)
        np.testing.assert_allclose(a.weights, b.weights[:, ::-1],
                                   rtol=1e-14)
        np.testing.assert_allclose(a.fused.value, b.fused.value, rtol=1e-14)

    def test_view_shape_mismatch_rejected(self):
        store = ParamStore()
        init_fusion(store, 3, 4, np.random.default_rng(12))
        with pytest.raises(ShapeError, match="views differ"):
            attention_fuse(np.ones((4, 3)), np.ones((5, 3)), store)

    @pytest.mark.parametrize("side", ["feature_view", "structure_view"])
    def test_view_requiring_grad_rejected(self, side):
        # the fused node has no vjp into a view, so such a view would lose its gradient
        store = ParamStore()
        init_fusion(store, 3, 4, np.random.default_rng(12))
        views = {"feature_view": ad.constant(np.ones((4, 3))), "structure_view": np.ones((4, 3))}
        views[side] = ad.Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=f"{side} requires grad"):
            attention_fuse(store=store, **views)


class TestGradients:
    def test_all_fusion_parameters_receive_gradient(self):
        rng = np.random.default_rng(13)
        x, z = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        store = ParamStore()
        init_fusion(store, 3, 4, np.random.default_rng(14))
        out = attention_fuse(x, z, store)
        ad.backward(sum_all(sigmoid(out.fused)))
        for name, t in store.items():
            assert np.abs(t.grad).max() > 0.0, name

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        x, z = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        store = ParamStore()
        init_fusion(store, 3, 3, np.random.default_rng(16))
        gradcheck(lambda s: sum_all(
            sigmoid(attention_fuse(x, z, s).fused)), store)

    def test_gradcheck_through_weights(self):
        rng = np.random.default_rng(17)
        x, z = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        store = ParamStore()
        init_fusion(store, 2, 3, np.random.default_rng(18))
        ones = ad.constant(np.arange(1.0, 5.0).reshape(4, 1))
        # the package never differentiates through the weights; the tape composition does
        gradcheck(lambda s: sum_all(
            mul_colvec(tape_attention_fuse(x, z, s)[1], ones)), store)


def fusion_cases():
    """(name, x, z, {parameter: value}, W): attention_fuse must match the tape
    composition under a downstream weight W."""
    rng = np.random.default_rng(21)
    x, z = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    zero_x, zero_z = x.copy(), z.copy()
    zero_x[2], zero_z[2] = 0.0, 0.0
    neg_x, neg_z = x.copy(), z.copy()
    neg_x[1], neg_z[4] = -0.0, -0.0
    W = rng.normal(size=(3, 2))
    return [
        ("random", x, z, {}, W),
        ("zero-row", zero_x, zero_z, {}, W),
        # a positive W makes every upstream entry positive, so a -0.0 row sums to -0.0
        ("negative-zero-row", neg_x, neg_z, {}, np.abs(W)),
        ("gate-bias-plus-50", x, z, {"fusion.proj_f.b": np.full((1, 4), 50.0),
                                     "fusion.proj_s.b": np.full((1, 4), -50.0)}, W),
        ("gate-bias-minus-50", x, z, {"fusion.proj_f.b": np.full((1, 4), -50.0),
                                      "fusion.proj_s.b": np.full((1, 4), 50.0)}, W),
        # init_fusion's biases are zero: nonzero ones inside tanh's live range reach b·s's vjps
        ("gate-bias-live", x, z, {"fusion.proj_f.b": rng.normal(size=(1, 4)),
                                  "fusion.proj_s.b": rng.normal(size=(1, 4))}, W),
        ("single-node", x[:1], z[:1], {}, W),
        ("single-feature", x[:, :1], z[:, :1], {}, W[:1]),
    ]


def case_store(d, overrides):
    store = ParamStore()
    init_fusion(store, d, 4, np.random.default_rng(22))
    for key, value in overrides.items():
        store[key].value = value.copy()
    return store


@pytest.mark.parametrize("name, x, z, overrides, W", fusion_cases(),
                         ids=[case[0] for case in fusion_cases()])
def test_fused_attention_matches_tape_bit_for_bit(name, x, z, overrides, W):
    results = []
    for tape in (False, True):
        store = case_store(x.shape[1], overrides)
        w = store.add("down.W", W.copy())
        if tape:
            fused, weights = tape_attention_fuse(x, z, store)
            weights = weights.value
        else:
            out = attention_fuse(x, z, store)
            fused, weights = out.fused, out.weights
        ad.backward(sum_all(sigmoid(ad.layer(fused, w))))
        results.append([bits(fused.value), bits(weights)]
                       + [bits(t.grad) for _, t in store.items()])
    for ours, tape in zip(*results):
        np.testing.assert_array_equal(ours, tape)


@pytest.mark.parametrize("name, x, z, overrides, W", fusion_cases(),
                         ids=[case[0] for case in fusion_cases()])
def test_fused_attention_gradcheck(name, x, z, overrides, W):
    # the six parameter vjps against central differences, apart from the tape oracle;
    # at gate biases ±50 every gate rounds to ±1, so 1 - tanh² and every gradient
    # are exactly 0 and the differences read 0 too: those cases check only that
    w = ad.constant(W)
    gradcheck(lambda s: sum_all(sigmoid(ad.layer(attention_fuse(x, z, s).fused, w))),
              case_store(x.shape[1], overrides))


class TestExport:
    def test_tsv_layout_and_precision(self, tmp_path):
        rng = np.random.default_rng(19)
        x, z = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        out, _ = fused(x, z, seed=20)
        path = str(tmp_path / "weights.tsv")
        # the fusion-weights artifact: the weights through the artifact writer
        experiment._write_tsv(path, "run 1", out.weights, "node\tw_feature\tw_structure")
        lines = open(path).read().splitlines()
        assert lines[0] == "# run 1"
        assert lines[1] == "node\tw_feature\tw_structure"
        assert len(lines) == 5
        for i, line in enumerate(lines[2:]):
            node, wf, ws = line.split("\t")
            assert int(node) == i
            assert float(wf) == pytest.approx(out.weights[i, 0], rel=1e-11)
            assert float(wf) + float(ws) == pytest.approx(1.0, abs=1e-11)
