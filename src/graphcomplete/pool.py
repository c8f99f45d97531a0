"""The package's one compute pool, and the one BLAS thread its work runs on.

Every OpenBLAS copy the process has loaded (numpy's and scipy's) runs on one
thread while a sweep, a reconstruction or a classifier fit runs: one_blas_thread
sets each copy's count through its run-time setter, counts nested and
concurrent entries, and gives the caller's counts back at the last exit.  So
the bytes a run writes do not depend on OPENBLAS_NUM_THREADS, and the spare
cores go to this module's pool instead.  Where no setter is found (another BLAS
build), nothing is set and the budget below is divided by the BLAS threads.

The budget is the usable CPUs: the calling thread plus a pool of the rest.  A
call takes only pool threads that no other call holds (never waiting for one),
so concurrent --workers cells never queue behind each other's work.  Two kinds
of work use it, each writing only into arrays its caller allocated:

- _row_blocks: the contrastive terms' row blocks, given 4 or more of them;
- split_rows: a product or an Adam update split by output rows, the caller
  running the first half and an idle pool thread the second.  matmul_rows and
  csr_rows are the two products.  Callers split only above the sizes below,
  decided by one comparison, so small graphs pay nothing for it.

No split changes a bit: every output element keeps its operands and its
reduction order.  A CSR product sums each row on its own, and an Adam update
is elementwise.  OpenBLAS groups a dense product's output rows into runs of
a few rows and computes edge rows with other kernels, so a dense split falls
on a multiple of DENSE_ALIGN rows, where every row keeps its kernel.  Below
about 1M multiply-adds OpenBLAS switches to a small-matrix kernel, so
DENSE_SPLIT keeps both halves far above that.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

# a product or update is split when its size exceeds these
DENSE_SPLIT = 50_000_000   # multiply-adds of a dense product
SPARSE_SPLIT = 4_000_000   # stored entries x columns of a CSR product
ADAM_SPLIT = 1 << 18       # entries of a parameter, for its Adam update
DENSE_ALIGN = 24           # a dense split falls on a multiple of this many rows


def _openblas_threads() -> list:
    """(get, set) thread-count functions of each loaded OpenBLAS, found as
    perfbench/run.py's _blas_threads finds them: every mapped library whose
    path names openblas, asked for its exported symbols."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


def _block_threads() -> int:
    """Usable CPUs where the BLAS thread count can be set; elsewhere usable
    CPUs // BLAS threads, the latter read as OpenBLAS reads them at load."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if _openblas_threads():
        return cpus
    env = [os.environ.get(var, "")
           for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")]
    return max(1, cpus // next((int(e) for e in env if e.isdigit() and int(e) > 0), cpus))


_BLOCK_THREADS = _block_threads()
_POOL = ThreadPoolExecutor(max(1, _BLOCK_THREADS - 1), "row-block")   # the caller is one more
_IDLE = threading.Semaphore(_BLOCK_THREADS - 1)   # pool threads that no call holds


def _row_blocks(block, n: int, rows: int):
    """block(r0) for r0 = 0, rows, 2*rows, ... below n, yielded in that order.
    Given 4 or more blocks, the caller runs them with the pool threads no call holds."""
    starts = range(0, n, rows)
    helpers = 0
    while len(starts) >= 4 and helpers < _BLOCK_THREADS - 1 and _IDLE.acquire(blocking=False):
        helpers += 1
    try:
        for i in range(0, len(starts), helpers + 1):
            group = [_POOL.submit(block, r0) for r0 in starts[i + 1:i + helpers + 1]]
            try:
                yield block(starts[i])
                for f in group:
                    yield f.result()
            finally:   # on an error, cancel the group's queued blocks and await its running ones
                wait([f for f in group if not f.cancel()])
    finally:
        for _ in range(helpers):
            _IDLE.release()


def split_rows(half, rows: int, align: int = 1) -> None:
    """half(slice(0, mid)) on the caller and half(slice(mid, rows)) on an idle
    pool thread, mid the multiple of align nearest below rows / 2; with no idle
    thread, or mid 0, half(slice(0, rows)) on the caller.  An error from either
    half surfaces once both have ended, and the pool thread is given back."""
    mid = rows // 2 // align * align
    if not mid or not _IDLE.acquire(blocking=False):
        half(slice(0, rows))
        return
    try:
        other = _POOL.submit(half, slice(mid, rows))
        try:
            half(slice(0, mid))
        finally:
            wait([other])
        other.result()
    finally:
        _IDLE.release()


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, its output rows split as split_rows splits them."""
    out = np.empty((a.shape[0], b.shape[1]))
    split_rows(lambda s: np.matmul(a[s], b, out=out[s]), len(out), DENSE_ALIGN)
    return out


def csr_rows(m, x: np.ndarray) -> np.ndarray:
    """m @ x for a float64 CSR m, summed as scipy sums it (each output row
    from zero, in the row's stored order), its output rows split as split_rows
    splits them."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.zeros((m.shape[0], x.shape[1]))

    def half(s):
        csr_matvecs(s.stop - s.start, m.shape[1], x.shape[1], m.indptr[s.start:s.stop + 1],
                    m.indices, m.data, x.ravel(), out[s].ravel())

    split_rows(half, len(out))
    return out


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []   # (set, the caller's count) of each OpenBLAS, kept while pinned
_pinned = None          # each OpenBLAS's (get, set), looked up at the first entry


def _pin_targets() -> list:
    global _pinned
    if _pinned is None:
        # loads scipy's OpenBLAS, which the diffusion's LAPACK solve uses, so it is found too
        from scipy.linalg import lapack  # noqa: F401
        _pinned = _openblas_threads()
    return _pinned


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS on one thread inside; also a decorator.  The
    setting is process-wide, so entries from any thread are counted and the
    last exit restores the counts the first entry found."""
    global _pin_depth, _pin_saved
    with _pin_lock:
        if not _pin_depth:
            _pin_saved = [(put, get()) for get, put in _pin_targets()]
            for put, _ in _pin_saved:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if not _pin_depth:
                for put, count in _pin_saved:
                    put(count)
