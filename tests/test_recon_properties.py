"""Property tests of the reconstruction phase over every masking rate.

On a 30-node two-block graph, for feature and edge missing rates drawn from
[0, 1] in both feature modes: observed entries pass through bit for bit,
every output is finite, and a seed fixes every bit.  Needs Hypothesis (the
``test`` extra); without it the module is skipped.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import graphcomplete as gc  # noqa: E402
from graphcomplete.data import two_block_features  # noqa: E402
from graphcomplete.experiment import ExperimentConfig  # noqa: E402

from conftest import bits  # noqa: E402

GRAPH = gc.generate_sbm(15, 2, 0.3, 0.05, two_block_features(8) * 0.05, 0.5, seed=0)
CONFIG = ExperimentConfig(epochs=2, k=5, imputer_hidden=8, pe_hidden=8, ppnp_hidden=8,
                          recon_dropout=0.2)
COLLAPSE = "no feature entry is observed"

masks = st.builds(gc.MaskSpec, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.sampled_from(["entry", "row"]), st.integers(0, 3))


def reconstruct(spec: gc.MaskSpec):
    """The masked graph, the reconstruction, and the warnings it raised."""
    ds = gc.apply_mask(GRAPH, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = gc.run_reconstruction(ds, CONFIG, seed=spec.seed)
    return ds, state, [str(w.message) for w in caught]


@settings(max_examples=25, deadline=None)
@given(masks)
def test_observed_entries_pass_through_bit_for_bit(spec):
    ds, state, _ = reconstruct(spec)
    mask = ds.feature_mask
    np.testing.assert_array_equal(bits(state.imputed)[mask], bits(ds.features)[mask])


@settings(max_examples=25, deadline=None)
@given(masks)
@example(gc.MaskSpec(1.0, 1.0, "entry", 0))
@example(gc.MaskSpec(1.0, 0.0, "row", 1))
def test_outputs_finite_and_only_a_hidden_feature_set_warns(spec):
    ds, state, caught = reconstruct(spec)
    for out in (state.imputed, state.propagated, state.loss_history):
        assert np.all(np.isfinite(out))
    # with any entry observed nothing warns; with none, only the collapse warning
    assert [COLLAPSE in m for m in caught] == ([True] if not ds.feature_mask.any() else [])


@settings(max_examples=15, deadline=None)
@given(masks)
def test_same_seed_same_bits(spec):
    _, first, _ = reconstruct(spec)
    _, second, _ = reconstruct(spec)
    for a, b in ((first.imputed, second.imputed), (first.propagated, second.propagated),
                 (first.loss_history, second.loss_history)):
        np.testing.assert_array_equal(bits(a), bits(b))
    a, b = first.diffusion_topk, second.diffusion_topk
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(bits(a.data), bits(b.data))
