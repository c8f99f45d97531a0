import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import graphcomplete as gc
import graphcomplete.autodiff as ad
from graphcomplete import downstream, objective, pool
from graphcomplete.data import two_block_features
from graphcomplete.downstream import (
    cross_entropy_loss,
    downstream_propagation_matrix,
    evaluate,
    gcn_forward,
    train_downstream,
    train_gcn_baseline,
)
from graphcomplete.experiment import ExperimentConfig
from graphcomplete.nn import ParamStore, apply_dropout, glorot, init_mlp2
from graphcomplete.rng import STREAM_DROPOUT, STREAM_INIT, make_rng
from graphcomplete.structure_path import normalize_adjacency, ppnp_forward

from conftest import ReferenceAdam, ZeroFilledStore, bits, gradcheck, sbm_fixture
from oracles import fit_downstream_two_forwards, tape_cross_entropy


def gcn_store(d, h, c, seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("gcn.W0", glorot(rng, d, h))
    store.add("gcn.W1", glorot(rng, h, c))
    return store


def quick_config(**overrides):
    base = dict(k=3, imputer_hidden=16, pe_hidden=32, ppnp_hidden=16, epochs=10,
                gcn_hidden=16, attention_dim=8, down_max_epochs=150, down_patience=40)
    base.update(overrides)
    return ExperimentConfig(**base)


def probe_cell(ds, seed=0, **overrides):
    """One sweep cell at probe size, 5 reconstruction and 5 classifier epochs;
    every output must be finite."""
    splits = gc.make_splits(ds, seed=seed)
    cfg = quick_config(**{"epochs": 5, "down_max_epochs": 5, **overrides})
    state = gc.run_reconstruction(ds, cfg, seed=seed)
    results = [gc.train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=seed),
               gc.train_gcn_baseline(ds, splits, cfg, seed=seed)]
    for arr in (state.imputed, state.propagated, state.loss_history, state.diffusion_topk.data,
                *(r.logits for r in results), *(r.metrics.loss_curve for r in results)):
        assert np.all(np.isfinite(arr))
    return state, results


def separable_dataset(seed=0):
    """Two clean blocks: distinct features, no cross edges."""
    return gc.generate_sbm(10, 2, 0.5, 0.0, two_block_features(8), 0.0, seed=seed)


class TestConfigRanges:
    # out-of-range values are covered through ExperimentConfig in test_experiment
    def test_edges_of_the_ranges_accepted(self):
        # both phases run at the smallest widths and no epochs
        ds = separable_dataset()
        probe_cell(ds, recon_dropout=0.0, imputer_hidden=1, pe_hidden=1, ppnp_hidden=1,
                   epochs=0, down_dropout=0.99, gcn_hidden=1, attention_dim=1,
                   down_max_epochs=0, down_patience=1)


class TestGCNForward:
    def test_is_the_structure_path_net_under_gcn_weights(self):
        rng = np.random.default_rng(7)
        store = gcn_store(3, 4, 2, seed=8)
        ppnp = ParamStore()
        ppnp.add("ppnp.W0", store["gcn.W0"].value)
        ppnp.add("ppnp.W1", store["gcn.W1"].value)
        a = normalize_adjacency(np.array([[0, 1], [1, 2]]), 3)
        X = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(gcn_forward(ad.Operator(a), X, store).value,
                                      ppnp_forward(ad.Operator(a), X, ppnp).value)

    def test_identity_propagation_is_mlp(self):
        rng = np.random.default_rng(1)
        store = gcn_store(4, 6, 3, seed=2)
        X = rng.normal(size=(5, 4))
        out = gcn_forward(ad.Operator(np.eye(5)), X, store)
        W0, W1 = store["gcn.W0"].value, store["gcn.W1"].value
        np.testing.assert_allclose(out.value, np.maximum(X @ W0, 0.0) @ W1,
                                   rtol=1e-12)

    def test_zero_features_give_zero_logits(self):
        store = gcn_store(4, 6, 3, seed=3)
        out = gcn_forward(ad.Operator(np.eye(5)), np.zeros((5, 4)), store)
        np.testing.assert_array_equal(out.value, np.zeros((5, 3)))

    def test_matches_numpy_oracle_with_sparse_operator(self):
        rng = np.random.default_rng(4)
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
        a = normalize_adjacency(edges, 4).toarray()
        store = gcn_store(3, 5, 2, seed=5)
        X = rng.normal(size=(4, 3))
        out = gcn_forward(ad.Operator(sp.csr_array(a)), X, store)
        W0, W1 = store["gcn.W0"].value, store["gcn.W1"].value
        expected = a @ np.maximum(a @ X @ W0, 0.0) @ W1
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_dropout_requires_generator(self):
        store = gcn_store(2, 3, 2, seed=6)
        with pytest.raises(ValueError, match="generator"):
            gcn_forward(ad.Operator(np.eye(2)), np.ones((2, 2)), store, dropout=0.5)


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        logits = ad.constant(np.zeros((3, 2)))
        labels = np.array([0, 1, 0])
        loss = cross_entropy_loss(logits, labels, np.array([0, 1, 2]))
        assert loss.value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        idx = np.array([0, 2, 5])
        loss = cross_entropy_loss(ad.constant(raw), labels, idx)
        expected = 0.0
        for i in idx:
            expected += math.log(np.exp(raw[i]).sum()) - raw[i, labels[i]]
        assert loss.value == pytest.approx(expected / len(idx), rel=1e-12)

    def test_perfectly_confident_logits_vanish(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = cross_entropy_loss(ad.constant(logits), np.array([1, 2]),
                                  np.array([0, 1]))
        assert loss.value == pytest.approx(0.0, abs=1e-12)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cross_entropy_loss(ad.constant(np.zeros((2, 2))),
                               np.array([0, 1]), np.array([], dtype=int))

    def test_gradcheck_through_classifier(self):
        rng = np.random.default_rng(8)
        a = normalize_adjacency(np.array([[0, 1], [1, 2]]), 3).toarray()
        X = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 0])
        store = gcn_store(4, 5, 2, seed=9)
        gradcheck(lambda s: cross_entropy_loss(
            gcn_forward(ad.Operator(sp.csr_array(a)), X, s), labels, np.array([0, 2])),
            store)


def cross_entropy_cases():
    """(name, logits, labels, idx): the fused loss must match the tape composition."""
    rng = np.random.default_rng(11)
    big = rng.choice([-50.0, 50.0], size=(6, 3))
    underflow = rng.normal(size=(5, 4))
    underflow[2] = [0.0, -800.0, -900.0, -1000.0]
    return [
        ("two-classes", rng.normal(size=(8, 2)), rng.integers(0, 2, 8), np.array([0, 3, 5, 6])),
        ("five-classes", rng.normal(size=(12, 5)) * 3, rng.integers(0, 5, 12), np.arange(0, 12, 2)),
        ("single-train-node", rng.normal(size=(4, 3)), np.array([2, 0, 1, 1]), np.array([2])),
        ("class-absent-from-training", rng.normal(size=(6, 4)),
         np.array([0, 1, 3, 0, 1, 2]), np.array([0, 1, 3, 4])),
        ("unsorted-idx", rng.normal(size=(9, 3)), rng.integers(0, 3, 9), np.array([7, 2, 8, 0, 4])),
        ("plus-minus-50", big, np.array([0, 1, 2, 0, 1, 2]), np.array([5, 1, 2, 3])),
        ("negative-zero", np.full((4, 3), -0.0), np.array([1, 0, 2, 1]), np.array([0, 2, 3])),
        ("underflowing-row", underflow, np.array([0, 3, 0, 1, 2]), np.array([2, 0, 4])),
    ]


@pytest.mark.parametrize("name, logits, labels, idx", cross_entropy_cases(),
                         ids=[case[0] for case in cross_entropy_cases()])
def test_fused_cross_entropy_matches_tape_bit_for_bit(name, logits, labels, idx):
    results = []
    for loss_fn in (lambda t: cross_entropy_loss(t, labels, idx),
                    lambda t: tape_cross_entropy(t, labels, idx, logits.shape[1])):
        leaf = ad.Tensor(logits.copy(), requires_grad=True)
        loss = loss_fn(leaf)
        ad.backward(loss)
        results.append((bits(loss.value), bits(leaf.grad)))
    (loss_f, grad_f), (loss_t, grad_t) = results
    np.testing.assert_array_equal(loss_f, loss_t)
    np.testing.assert_array_equal(grad_f, grad_t)


@pytest.mark.parametrize("label, node", [(-1, 1), (3, 1), (7, 0)])
def test_cross_entropy_rejects_unlabeled_or_out_of_range_train_node(label, node):
    # a redacted test node (-1) or a label past the last class must not train as a class
    logits = ad.constant(np.array([[1.0, 2.0, 3.0], [0.5, 0.1, 0.2]]))
    labels = np.array([2, 2])
    labels[node] = label
    with pytest.raises(ValueError, match=f"label {label} at node {node} in train split"):
        cross_entropy_loss(logits, labels, np.array([0, 1]))


class TestEvaluate:
    def test_known_fractions(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert evaluate(logits, labels, np.arange(3)) == pytest.approx(2 / 3)
        assert evaluate(logits, labels, np.array([0, 1])) == 1.0

    def test_ties_resolve_to_smaller_class(self):
        logits = np.zeros((2, 3))
        assert evaluate(logits, np.array([0, 1]), np.arange(2)) == 0.5

    def test_random_logits_near_chance(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(1000, 5))
        labels = rng.integers(0, 5, size=1000)
        acc = evaluate(logits, labels, np.arange(1000))
        assert abs(acc - 0.2) < 0.05

    def test_index_order_irrelevant(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        idx = np.arange(20)
        assert evaluate(logits, labels, idx) == evaluate(logits, labels, idx[::-1])

    def test_empty_and_unlabeled_rejected(self):
        logits = np.zeros((2, 2))
        with pytest.raises(ValueError, match="empty"):
            evaluate(logits, np.array([0, 1]), np.array([], dtype=int))
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate(logits, np.array([0, -1]), np.arange(2))

    @pytest.mark.parametrize("label, node", [(-1, 1), (3, 1), (7, 0)])
    def test_unlabeled_or_out_of_range_label_rejected(self, label, node):
        # a label past the last class must not score as a wrong prediction
        logits = np.array([[1.0, 2.0, 3.0], [0.5, 0.1, 0.2]])
        labels = np.array([2, 2])
        labels[node] = label
        with pytest.raises(ValueError, match=f"label {label} at node {node} in evaluation split"):
            evaluate(logits, labels, np.array([0, 1]))


class TestPropagationMatrix:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        edges = np.array([(i, j) for i in range(8) for j in range(i + 1, 8)
                          if rng.random() < 0.4])
        topk = gc.build_diffusion(edges, 8, 0.2, 3).toarray()
        out = downstream_propagation_matrix(sp.csr_array(topk)).toarray()
        m = np.maximum(topk, topk.T)
        d = m.sum(axis=1)
        expected = m / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        np.testing.assert_allclose(out, out.T, rtol=1e-12)

    def test_all_row_sums_positive_input_survives(self):
        # diffusion keeps a positive diagonal, so no row collapses
        out = downstream_propagation_matrix(sp.csr_array(np.eye(3) * 0.4))
        np.testing.assert_allclose(out.toarray(), np.eye(3), rtol=1e-12)


class TestReconstructionPhase:
    def test_zero_epochs_returns_initial_state(self, tiny_masked_dataset):
        state = gc.run_reconstruction(tiny_masked_dataset,
                                      quick_config(epochs=0), seed=0)
        assert state.loss_history.shape == (0, 3)
        assert state.imputed.shape == tiny_masked_dataset.features.shape

    def test_observed_entries_preserved_bit_exactly(self, tiny_masked_dataset):
        ds = tiny_masked_dataset
        state = gc.run_reconstruction(ds, quick_config(), seed=1)
        np.testing.assert_array_equal(state.imputed[ds.feature_mask],
                                      ds.features[ds.feature_mask])

    def test_loss_history_columns_sum(self, tiny_masked_dataset):
        state = gc.run_reconstruction(tiny_masked_dataset,
                                      quick_config(epochs=5), seed=2)
        np.testing.assert_allclose(state.loss_history[:, 0] + state.loss_history[:, 1],
                                   state.loss_history[:, 2], rtol=1e-12)

    def test_deterministic_per_seed(self, tiny_masked_dataset):
        a = gc.run_reconstruction(tiny_masked_dataset, quick_config(), seed=3)
        b = gc.run_reconstruction(tiny_masked_dataset, quick_config(), seed=3)
        np.testing.assert_array_equal(a.imputed, b.imputed)
        np.testing.assert_array_equal(a.propagated, b.propagated)
        np.testing.assert_array_equal(a.loss_history, b.loss_history)
        c = gc.run_reconstruction(tiny_masked_dataset, quick_config(), seed=4)
        assert not np.array_equal(a.imputed, c.imputed)


def per_call_structure_term(completed, diffusion, temperature):
    """The structure term with the diffusion row-normalized inside every call
    and each row block's gradient product taken as ds @ targets."""
    x = completed.value
    targets = objective.structure_targets(diffusion)
    rows = np.empty(len(x))
    dx = np.zeros_like(x)
    for r0 in range(0, len(x), objective.BLOCK_ROWS):
        blk = slice(r0, r0 + objective.BLOCK_ROWS)
        a = ad.logistic(x[blk] @ x.T)
        a_hat, a_vjp = ad.unit_rows(a)
        rows[blk], ds = objective._infonce_block(np.asarray(targets @ a_hat.T).T, r0,
                                                 temperature)
        dg = a_vjp(np.asarray(ds @ targets)) * a * (1.0 - a)
        dx[blk] += dg @ x
        dx += dg.T @ x[blk]
    return ad.fused_scalar(rows.sum(), [(completed, dx)])


def per_call_ppnp(diffusion, x, store, dropout=0.0, rng=None):
    """The structure path's net with Mᵀ rebuilt on every propagate."""
    h = ad.relu(ad.propagate(ad.Operator(diffusion), ad.matmul(x, store["ppnp.W0"])))
    h = apply_dropout(h, dropout, rng)
    return ad.propagate(ad.Operator(diffusion), ad.matmul(h, store["ppnp.W1"]))


class TestReconstructionComposition:
    def test_bit_identical_to_per_epoch_composition(self):
        # every constant rebuilt each epoch and the textbook Adam, by hand;
        # dropout and weight decay on so both code paths are covered
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        cfg = ExperimentConfig(epochs=5, recon_dropout=0.2, recon_weight_decay=1e-4)
        seed = 4
        n, d = ds.features.shape
        # on one BLAS thread, as run_reconstruction runs
        with pool.one_blas_thread():
            topk = gc.build_diffusion(ds.edges, n, cfg.alpha, cfg.k)
            init_rng = make_rng(seed, STREAM_INIT)
            drop_rng = make_rng(seed, STREAM_DROPOUT)
            store = ParamStore()
            init_mlp2(store, "imputer", (d, cfg.imputer_hidden, d), init_rng)
            store.add("pos.W", glorot(init_rng, n, cfg.pe_hidden))
            store.add("pos.b", np.zeros((1, cfg.pe_hidden)))
            store.add("ppnp.W0", glorot(init_rng, cfg.pe_hidden, cfg.ppnp_hidden))
            store.add("ppnp.W1", glorot(init_rng, cfg.ppnp_hidden, d))
            adam = ReferenceAdam(store, cfg.recon_lr, cfg.recon_weight_decay)
            temperature = cfg.temperature
            history = []
            for _ in range(cfg.epochs):
                completed = gc.impute_features(ds.features, ds.feature_mask, store,
                                               dropout=cfg.recon_dropout, rng=drop_rng)
                propagated = per_call_ppnp(topk, gc.positional_features(n, store), store,
                                           cfg.recon_dropout, drop_rng)
                l_f = objective.feature_contrastive_loss(completed, propagated, temperature)
                l_s = per_call_structure_term(completed, topk, temperature)
                total = ad.add(l_f, l_s)
                history.append((float(l_f.value), float(l_s.value), float(total.value)))
                ad.backward(total)
                adam.step()
            imputed = gc.impute_features(ds.features, ds.feature_mask, store).value
            propagated = per_call_ppnp(topk, gc.positional_features(n, store), store).value

        state = gc.run_reconstruction(ds, cfg, seed=seed)
        np.testing.assert_array_equal(bits(state.loss_history), bits(np.array(history)))
        np.testing.assert_array_equal(bits(state.imputed), bits(imputed))
        np.testing.assert_array_equal(bits(state.propagated), bits(propagated))

    def test_bit_identical_to_zero_filled_grads(self, monkeypatch):
        # gradients left None until backward reaches them against the former
        # zero-filled ones, through both phases and the baseline
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        cfg = quick_config(epochs=5, recon_dropout=0.2, recon_weight_decay=1e-4,
                           down_max_epochs=20)
        splits = gc.make_splits(ds, seed=4)
        runs = []
        for store_type in (ParamStore, ZeroFilledStore):
            monkeypatch.setattr(downstream, "ParamStore", store_type)
            state = gc.run_reconstruction(ds, cfg, seed=4)
            fused = train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=4)
            baseline = train_gcn_baseline(ds, splits, cfg, seed=4)
            assert isinstance(fused.store, store_type)
            runs.append([state.loss_history, state.imputed, state.propagated,
                         fused.logits, fused.fusion_weights, fused.metrics.loss_curve,
                         baseline.logits, baseline.metrics.loss_curve])
        for ours, zero_filled in zip(*runs):
            np.testing.assert_array_equal(bits(ours), bits(zero_filled))


class TestSharedLowerLayer:
    # each fit against the loop that rebuilt fusion and both layers for every
    # forward: dropout off and on, weight decay off and on, an early stop, no epochs
    @pytest.mark.parametrize("overrides", [
        dict(down_dropout=0.0, down_weight_decay=0.0),
        dict(down_dropout=0.5),
        dict(down_dropout=0.3, down_weight_decay=1e-2, down_patience=3),
        dict(down_max_epochs=0),
    ], ids=["no-dropout-no-decay", "dropout", "decay-early-stop", "no-epochs"])
    def test_bit_identical_to_two_forwards_per_epoch(self, overrides):
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        cfg = quick_config(**{"epochs": 3, "down_max_epochs": 40, **overrides})
        splits = gc.make_splits(ds, seed=2)
        state = gc.run_reconstruction(ds, cfg, seed=2)
        redacted = ds.labels.copy()
        redacted[splits.test] = -1
        fits = [
            (train_downstream(state, ds.labels, ds.num_classes, splits, cfg, seed=2),
             (state.imputed, state.propagated, downstream_propagation_matrix(state.diffusion_topk))),
            (train_gcn_baseline(ds, splits, cfg, seed=2),
             (ds.features, None, normalize_adjacency(ds.edges, ds.n))),
        ]
        for result, (x_view, z_view, a_norm) in fits:
            store, best, curve, weights = fit_downstream_two_forwards(
                x_view, z_view, a_norm, redacted, ds.num_classes,
                splits.train, splits.val, cfg, 2)
            np.testing.assert_array_equal(bits(result.metrics.loss_curve), bits(curve))
            np.testing.assert_array_equal(bits(result.logits), bits(best["logits"]))
            assert result.metrics.best_epoch == best["epoch"]
            assert result.store.names() == store.names()
            for name in store.names():
                np.testing.assert_array_equal(bits(result.store[name].value),
                                              bits(store[name].value))
            if z_view is None:
                assert result.fusion_weights is None and weights is None
            else:
                np.testing.assert_array_equal(bits(result.fusion_weights), bits(weights))
            if "down_patience" in overrides:
                assert 0 < len(curve) < cfg.down_max_epochs
            if cfg.down_max_epochs == 0:
                assert curve == () and best["epoch"] == -1


class TestCollapseWarning:
    def test_no_observed_feature_warns(self):
        # in both modes; the cell still gives finite outputs
        for mode in ("row", "entry"):
            ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(1.0, 0.3, mode, 0))
            with pytest.warns(RuntimeWarning, match="no feature entry is observed"):
                state, _ = probe_cell(ds)
            # the collapse the warning names: every node gets the same completed row
            np.testing.assert_array_equal(state.imputed, np.broadcast_to(state.imputed[0],
                                                                         state.imputed.shape))

    def test_partly_observed_features_run_clean(self):
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gc.run_reconstruction(ds, quick_config(epochs=3), seed=0)


class TestDegenerateInputs:
    """Damage at the edges of its range gives a defined result or a clear error."""

    @pytest.mark.parametrize("feature_rate, edge_rate", [(0.3, 1.0), (0.0, 0.0)],
                             ids=["no-surviving-edge", "no-damage"])
    def test_extreme_rates_give_finite_outputs(self, feature_rate, edge_rate):
        ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(feature_rate, edge_rate, "entry", 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe_cell(ds)

    def test_k_above_n_warns_once_and_keeps_every_entry(self):
        ds = gc.apply_mask(gc.generate_sbm(5, 2, 0.3, 0.02, two_block_features(16) * 0.05,
                                           0.5, seed=0), gc.MaskSpec(0.3, 0.3, "entry", 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, _ = probe_cell(ds, k=20)
        assert [str(w.message) for w in caught] == ["k=20 exceeds 10 columns; keeping all"]
        with pool.one_blas_thread():   # on one BLAS thread, as run_reconstruction solves
            every = gc.ppr_closed_form(normalize_adjacency(ds.edges, ds.n), 0.1)
        np.testing.assert_array_equal(bits(state.diffusion_topk.toarray()), bits(every))

    def test_two_member_classes_cannot_be_split(self):
        ds = gc.generate_sbm(2, 2, 0.3, 0.02, two_block_features(16) * 0.05, 0.5, seed=0)
        with pytest.raises(ValueError, match="class 0 has 2 members; need at least 3 to stratify"):
            gc.make_splits(ds, seed=0)


class TestDownstreamTraining:
    def run_pipeline(self, ds, seed, scramble_test_labels=False,
                     recon_epochs=10, **down_overrides):
        splits = gc.make_splits(ds, seed=seed)
        cfg = quick_config(epochs=recon_epochs, **down_overrides)
        recon = gc.run_reconstruction(ds, cfg, seed=seed)
        labels = ds.labels.copy()
        if scramble_test_labels:
            labels[splits.test] = (labels[splits.test] + 1) % ds.num_classes
        result = train_downstream(recon, labels, ds.num_classes, splits, cfg, seed=seed)
        return result, splits

    def test_cleanly_separable_graph_reaches_full_accuracy(self):
        wins = 0
        for seed in range(10):
            result, _ = self.run_pipeline(separable_dataset(seed=seed), seed)
            if result.metrics.test_accuracy == 1.0:
                wins += 1
        assert wins >= 9

    def test_deterministic_per_seed(self):
        ds = separable_dataset(seed=0)
        a, _ = self.run_pipeline(ds, seed=5)
        b, _ = self.run_pipeline(ds, seed=5)
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.fusion_weights, b.fusion_weights)

    def test_test_labels_cannot_influence_training(self):
        ds = gc.apply_mask(separable_dataset(seed=1),
                           gc.MaskSpec(0.3, 0.2, "entry", 3))
        splits = gc.make_splits(ds, seed=6)
        scrambled = ds.labels.copy()
        scrambled[splits.test] = (scrambled[splits.test] + 1) % ds.num_classes
        poisoned_ds = dataclasses.replace(ds, labels=scrambled)
        baseline = [train_gcn_baseline(d, splits, quick_config(), seed=6)
                    for d in (ds, poisoned_ds)]
        fused = [self.run_pipeline(ds, seed=6, scramble_test_labels=s)[0]
                 for s in (False, True)]
        for clean, poisoned in (fused, baseline):
            # identical fit: logits, curve, checkpoint epoch, train/val metrics
            np.testing.assert_array_equal(clean.logits, poisoned.logits)
            assert clean.metrics.loss_curve == poisoned.metrics.loss_curve
            assert clean.metrics.best_epoch == poisoned.metrics.best_epoch
            assert clean.metrics.val_accuracy == poisoned.metrics.val_accuracy
            # only the after-the-fact test scoring moves
            assert clean.metrics.test_accuracy == pytest.approx(
                1.0 - poisoned.metrics.test_accuracy)

    def test_classifier_init_matches_baseline(self):
        # both entry points draw classifier weights first from the same
        # stream, so a no-training run exposes identical values
        ds = separable_dataset(seed=2)
        splits = gc.make_splits(ds, seed=7)
        cfg = quick_config(epochs=0, down_max_epochs=0)
        recon = gc.run_reconstruction(ds, cfg, seed=7)
        fused = train_downstream(recon, ds.labels, ds.num_classes, splits, cfg,
                                 seed=7)
        baseline = train_gcn_baseline(ds, splits, cfg, seed=7)
        np.testing.assert_array_equal(fused.store["gcn.W0"].value,
                                      baseline.store["gcn.W0"].value)
        np.testing.assert_array_equal(fused.store["gcn.W1"].value,
                                      baseline.store["gcn.W1"].value)
        assert baseline.fusion_weights is None

    def test_patience_stops_early(self):
        ds = separable_dataset(seed=3)
        result, _ = self.run_pipeline(ds, seed=8, recon_epochs=0,
                                      down_max_epochs=500, down_patience=5)
        assert len(result.metrics.loss_curve) < 500

    def test_baseline_on_unmasked_data_is_strong(self):
        ds = separable_dataset(seed=4)
        splits = gc.make_splits(ds, seed=9)
        result = train_gcn_baseline(ds, splits, quick_config(), seed=9)
        assert result.metrics.test_accuracy == 1.0

    def test_divergent_optimizer_raises(self):
        ds = separable_dataset(seed=5)
        splits = gc.make_splits(ds, seed=10)
        # Adam's first step moves each parameter by about the learning rate, so
        # the next two-layer forward pass overflows float64 and must be caught
        cfg = quick_config(down_lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            train_gcn_baseline(ds, splits, cfg, seed=10)
