"""Property test: ReLU returns np.where(x > 0, x, 0.0) bit for bit, both the
reference tape op (tests/oracles.py) and the one inside autodiff.layer.

The forward is written without a data-dependent branch, so this pins it to
the plain definition on every float64 class: NaN, both zeros, both
infinities and subnormals.  Needs Hypothesis (the ``test`` extra); without it
the module is skipped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import graphcomplete.autodiff as ad  # noqa: E402

from conftest import bits  # noqa: E402
from oracles import relu, sum_all  # noqa: E402

SPECIALS = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072009e-308, -2.2250738585072009e-308, 1.0, -1.0])

float64_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(SPECIALS.tolist()),
)


@settings(max_examples=300, deadline=None, database=None)
@given(float64_arrays)
@example(SPECIALS)
@example(SPECIALS.reshape(3, 4))
def test_relu_matches_where_bit_for_bit(x):
    out = relu(ad.Tensor(x)).value
    np.testing.assert_array_equal(bits(out), bits(np.where(x > 0, x, 0.0)))


@settings(max_examples=100, deadline=None, database=None)
@given(float64_arrays)
@example(SPECIALS)
def test_relu_gradient_is_the_positive_mask(x):
    leaf = ad.Tensor(x.copy(), requires_grad=True)
    ad.backward(sum_all(relu(leaf)))
    np.testing.assert_array_equal(bits(leaf.grad), bits((x > 0).astype(np.float64)))


@settings(max_examples=300, deadline=None, database=None)
@given(float64_arrays)
@example(SPECIALS)
def test_layer_relu_matches_where_bit_for_bit(x):
    # a column times [[1.0]] is the column (a -0.0 may come out +0.0, which
    # ReLU maps to +0.0 either way), so this checks the layer's own ReLU
    col = x.reshape(-1, 1)
    out = ad.layer(ad.Tensor(col), ad.Tensor(np.ones((1, 1))), relu=True).value
    np.testing.assert_array_equal(bits(out), bits(np.where(col > 0, col, 0.0)))
