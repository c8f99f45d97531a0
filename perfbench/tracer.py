"""In-memory span recorder that wraps pipeline functions where they are looked up.

A function imported by name (``from .autodiff import backward``) is a separate
binding in the importing module, so patching the defining module misses calls
made through that binding.  Each wrap therefore names the exact (owner,
attribute) pair the caller resolves at call time; methods are wrapped on their
class.  Wrapping never changes arguments or results, so a traced run computes
bit-identical outputs.

Every finished call appends one ``Span`` record to ``Tracer.spans``.  Its
self time is the span's duration minus that of its direct child spans,
``cell`` numbers the enclosing experiment cell (``None`` outside cells) and
``phase`` is the nearest enclosing span listed in ``PHASES``.  Records stay in
memory; ``write_jsonl`` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name self_s total_s end_s cell phase peak_bytes")

PHASES = (
    "downstream.run_reconstruction",
    "downstream.train_downstream",
    "downstream.train_gcn_baseline",
)


class _Frame:
    __slots__ = ("name", "start", "child_s", "phase", "peak_base", "peak_hi")

    def __init__(self, name, phase):
        self.name = name
        self.start = 0.0
        self.child_s = 0.0
        self.phase = phase
        self.peak_base = None
        self.peak_hi = 0


class Tracer:
    """Span stack, span records and the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell: int | None = None
        self._stack: list[_Frame] = []
        self._peak_frames: list[_Frame] = []
        self._peak_seen: set = set()
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, peak: bool) -> _Frame:
        parent_phase = self._stack[-1].phase if self._stack else None
        frame = _Frame(name, name if name in PHASES else parent_phase)
        # peak memory: measured on the first call per (cell, name), because
        # tracemalloc slows every allocation while it traces
        if peak and (self.cell, name) not in self._peak_seen:
            self._peak_seen.add((self.cell, name))
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            self._fold_peak()
            tracemalloc.reset_peak()
            frame.peak_base = frame.peak_hi = tracemalloc.get_traced_memory()[0]
            self._peak_frames.append(frame)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        total = end - frame.start
        if self._stack.pop() is not frame:
            # spans from two threads interleaved; self times would be wrong
            raise RuntimeError(f"span {frame.name} did not close last")
        if self._stack:
            self._stack[-1].child_s += total
        peak = None
        if frame.peak_base is not None:
            self._fold_peak()
            self._peak_frames.pop()
            peak = frame.peak_hi - frame.peak_base
            if not self._peak_frames:
                tracemalloc.stop()
        self.spans.append(Span(frame.name, total - frame.child_s, total, end,
                               self.cell, frame.phase, peak))

    def _fold_peak(self) -> None:
        """Carry the traced high-water mark into every open peak frame."""
        hi = tracemalloc.get_traced_memory()[1]
        for f in self._peak_frames:
            f.peak_hi = max(f.peak_hi, hi)

    def in_phase(self, phase: str) -> bool:
        return bool(self._stack) and self._stack[-1].phase == phase

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); unwrap_all restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name, peak: bool = False, before=None) -> None:
        """Time every call of owner.attr as a span.

        ``name`` is a span name or a callable returning one at call time;
        ``before(*args)`` runs ahead of the span, outside its timing.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                span_name = name() if callable(name) else name
                if before is not None:
                    before(*args)
                frame = self._enter(span_name, peak)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(frame)
            return wrapper

        self.patch(owner, attr, make)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_jsonl(spans, path: str) -> None:
    """One JSON object per span record."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec._asdict()) + "\n")
