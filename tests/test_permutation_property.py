"""Property test: relabeling the nodes relabels everything end to end.

For a random graph, features and node permutation, the diffusion built from
the permuted graph is the permuted diffusion, and the contrastive loss over
the permuted inputs is the same number with permuted gradients, to 1e-12
relative.  The diffusion is compared dense: top-k breaks ties by column
index, so it is not permutation-equivariant.  Needs Hypothesis (the ``test``
extra); without it the module is skipped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import graphcomplete.autodiff as ad  # noqa: E402
from graphcomplete.nn import ParamStore  # noqa: E402
from graphcomplete.objective import structure_targets, total_contrastive_loss  # noqa: E402
from graphcomplete.structure_path import normalize_adjacency, ppr_closed_form  # noqa: E402

REL = 1e-12


@st.composite
def relabeled_graphs(draw):
    """(edges, features, propagated, perm): a random graph on up to 30 nodes
    and a relabeling, new node i being old node perm[i]."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.5)), 1)
    edges = np.argwhere(upper)
    perm = np.array(draw(st.permutations(range(n))))
    return edges, rng.normal(size=(n, 6)), rng.normal(size=(n, 6)), perm


def diffusion(edges, n, alpha):
    return ppr_closed_form(normalize_adjacency(edges, n), alpha)


def loss_and_grads(features, propagated, targets, temperature):
    store = ParamStore()
    store.add("x", features.copy())
    store.add("p", propagated.copy())
    total, _, _ = total_contrastive_loss(store["x"], store["p"], targets, temperature)
    ad.backward(total)
    return float(total.value), store["x"].grad.copy(), store["p"].grad.copy()


def assert_close(got, want):
    assert np.abs(got - want).max() <= REL * np.abs(want).max()


@settings(max_examples=30, deadline=None)
@given(relabeled_graphs(), st.floats(0.1, 0.9), st.floats(0.2, 2.0))
def test_relabeling_the_nodes_relabels_diffusion_loss_and_gradients(graph, alpha, temperature):
    edges, features, propagated, perm = graph
    n = len(perm)
    new_label = np.argsort(perm)
    dense = diffusion(edges, n, alpha)
    dense_relabeled = diffusion(new_label[edges], n, alpha)
    assert_close(dense_relabeled, dense[np.ix_(perm, perm)])

    loss, dx, dp = loss_and_grads(features, propagated, structure_targets(dense), temperature)
    loss_r, dx_r, dp_r = loss_and_grads(features[perm], propagated[perm],
                                        structure_targets(dense_relabeled), temperature)
    assert abs(loss_r - loss) <= REL * abs(loss)
    assert_close(dx_r, dx[perm])
    assert_close(dp_r, dp[perm])
