"""tests/paired.py's summary of paired differences."""

import numpy as np

from paired import RESAMPLES, paired

# 4 wins, 14 losses and 2 ties, the split of the float32 row blocks' 20
# parity pairs
LEANING = np.array([0.005] * 4 + [-0.005, -0.01] * 7 + [0.0] * 2)


def test_counts_and_mean():
    p = paired(LEANING)
    assert (p.wins, p.losses, p.ties) == (4, 14, 2)
    assert p.mean == LEANING.mean()


def test_sign_test_is_exact_and_two_sided():
    # P(at most 4 of 18 fair coin flips) = (1 + 18 + 153 + 816 + 3060) / 2^18
    assert paired(LEANING).sign_p == 2 * 4048 / 2 ** 18
    assert paired(-LEANING).sign_p == 2 * 4048 / 2 ** 18
    assert paired([0.01] * 5 + [-0.01] * 5).sign_p == 1.0


def test_all_ties_give_p_one():
    p = paired(np.zeros(20))
    assert (p.wins, p.losses, p.ties, p.sign_p) == (0, 0, 20, 1.0)
    assert (p.lo, p.hi) == (0.0, 0.0)


def test_interval_is_the_seeded_bootstrap_bit_for_bit():
    d = np.random.default_rng(7).normal(0.0, 0.01, 20)
    means = np.random.default_rng(0).choice(d, size=(RESAMPLES, len(d))).mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    p = paired(list(d))
    assert RESAMPLES == 10_000
    assert np.array([p.lo, p.hi]).view(np.uint64).tolist() == \
        np.array([lo, hi]).view(np.uint64).tolist()
    assert p.lo < p.mean < p.hi
