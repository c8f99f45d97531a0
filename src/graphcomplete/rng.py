"""Seeded random streams.

All randomness in the package flows through :func:`make_rng`, which builds a
Philox (counter-based, 64-bit) generator keyed by ``(seed, stream)``.  Philox
produces identical sequences across platforms and numpy versions that ship
the same bit generator, so every run is reproducible from its seed alone.

Streams keep independent purposes independent: masking features never
consumes draws meant for edge removal or weight initialisation, so adding a
consumer in one place cannot silently reshuffle another.

Philox is counter-based (Salmon et al., SC 2011): its i-th 64-bit output is a
pure function of the key and i.  So the doubles a stream gives from any
position on can be drawn without the ones before them (random_at), on any
thread, and equal the sequential draws bit for bit.
"""

from __future__ import annotations

import numpy as np

# Stream ids, one per purpose.  Never renumber: doing so changes every
# seeded result in the package.
STREAM_FEATURE_MASK = 0
STREAM_EDGE_MASK = 1
STREAM_SPLITS = 2
STREAM_INIT = 3
STREAM_DROPOUT = 4
STREAM_SBM = 5
STREAM_DOWNSTREAM_INIT = 6
STREAM_DOWNSTREAM_DROPOUT = 7


def _philox(seed: int, stream: int) -> np.random.Philox:
    """The bit generator of the (seed, stream) pair, at its start."""
    return np.random.Philox(key=(int(seed) * 2654435761 + int(stream)) % (1 << 128))


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox generator for the given (seed, stream) pair."""
    return np.random.Generator(_philox(seed, stream))


def random_at(seed: int, stream: int, offset: int, shape) -> np.ndarray:
    """make_rng(seed, stream).random(shape) as drawn after `offset` earlier
    doubles of that generator, without drawing them: each double takes one
    64-bit output, and Philox makes four per counter step, so the counter
    advances offset // 4 and the first offset % 4 outputs of the next step
    are skipped."""
    bits = _philox(seed, stream).advance(offset // 4)
    bits.random_raw(offset % 4)
    return np.random.Generator(bits).random(shape)
