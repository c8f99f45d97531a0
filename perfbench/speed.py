"""A clock that counts program time at a fixed machine speed.

Other tenants of a shared machine slow its CPU by up to a third, in phases
that last from seconds to minutes (process CPU time grows with wall time, so
it is not descheduling).  The program and a fixed numpy kernel slow down
together, so timing the kernel between pieces of work and rescaling each
piece by the kernel times at its two ends removes most of that drift.

``SpeedClock.read()`` runs the kernel and returns the rescaled seconds of all
work since the clock started, kernel runs excluded.  The difference of two
reads is the rescaled duration of what ran between them; ``maybe_tick()``
called from inside long work samples the speed at least every ``TICK_S``.
"""

from __future__ import annotations

import time

import numpy as np

# nominal seconds of reference_kernel: durations are rescaled to a machine on
# which the kernel takes this long, about its time on a quiet 2-vCPU host
REFERENCE_S = 0.065
TICK_S = 0.5

_RNG = np.random.default_rng(0)
_SMALL = (_RNG.standard_normal((100, 64)), _RNG.standard_normal((64, 32)))
# allocated once, so the kernel leaves the process's heap as it found it
_LARGE = (_RNG.standard_normal((700, 700)), np.empty((700, 700)))


def reference_kernel() -> float:
    """Seconds a fixed numpy kernel takes right now; it runs no repository code.

    Half of it is small-array work under the interpreter, half a dense product
    and element-wise pass: the two regimes of the workloads.
    """
    a, w = _SMALL
    t0 = time.perf_counter()
    for _ in range(2000):
        h = np.tanh(a @ w)
        float((h * h).sum())
    b, c = _LARGE
    for _ in range(2):
        np.matmul(b, b, out=c)
        np.exp(np.negative(np.abs(c, out=c), out=c), out=c)
        float(c.sum())
    return time.perf_counter() - t0


class SpeedClock:
    """Rescaled seconds of work; every kernel run is a span named ``span``."""

    def __init__(self, tracer, span: str):
        self.tracer = tracer
        self.span = span
        self.seconds = 0.0
        self._last_ref = self._kernel()
        self._since = time.perf_counter()     # end of the last kernel run

    def _kernel(self) -> float:
        with self.tracer.span(self.span):
            return reference_kernel()

    def tick(self) -> None:
        """Close the piece of work since the last kernel run."""
        work = time.perf_counter() - self._since
        ref = self._kernel()
        self.seconds += work * 2 * REFERENCE_S / (self._last_ref + ref)
        self._last_ref = ref
        self._since = time.perf_counter()

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._since >= TICK_S:
            self.tick()

    def read(self) -> float:
        """Rescaled seconds so far; no kernel runs if nothing ran since the
        last one."""
        if time.perf_counter() - self._since > 1e-3:
            self.tick()
        return self.seconds
