import numpy as np
import pytest

from graphcomplete.rng import (
    STREAM_DOWNSTREAM_DROPOUT,
    STREAM_DROPOUT,
    STREAM_FEATURE_MASK,
    STREAM_INIT,
    make_rng,
    random_at,
)


def test_same_key_same_draws():
    a = make_rng(42, STREAM_INIT).random(100)
    b = make_rng(42, STREAM_INIT).random(100)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    a = make_rng(42, STREAM_INIT).random(100)
    b = make_rng(42, STREAM_DROPOUT).random(100)
    assert not np.array_equal(a, b)


def test_seeds_are_independent():
    a = make_rng(0, STREAM_FEATURE_MASK).random(100)
    b = make_rng(1, STREAM_FEATURE_MASK).random(100)
    assert not np.array_equal(a, b)


def test_negative_and_large_seeds_work():
    for seed in (-3, 0, 2**62):
        vals = make_rng(seed, 0).random(4)
        assert np.all((0 <= vals) & (vals < 1))


@pytest.mark.parametrize("shape", [(64, 32), (101, 63)], ids=["size_div_4", "size_odd"])
def test_positioned_draw_equals_the_sequential_stream(shape):
    # each of 6 consecutive draws, made alone at its offset, against the same
    # draws made in turn from one generator; 101 x 63 = 6363 puts every offset
    # at a different remainder mod 4
    size = shape[0] * shape[1]
    rng = make_rng(7, STREAM_DOWNSTREAM_DROPOUT)
    for position in range(6):
        expected = rng.random(shape)
        got = random_at(7, STREAM_DOWNSTREAM_DROPOUT, position * size, shape)
        assert got.tobytes() == expected.tobytes()
