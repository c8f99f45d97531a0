"""The package's one compute pool, and the one BLAS thread its work runs on.

Every OpenBLAS copy the process has loaded (numpy's and scipy's) runs on one
thread while a sweep, a reconstruction or a classifier fit runs: one_blas_thread
sets each copy's count through its run-time setter, counts nested and
concurrent entries, and gives the caller's counts back at the last exit.  So
the bytes a run writes do not depend on OPENBLAS_NUM_THREADS, and the spare
cores go to this module's pool instead.  Where no setter is found (another BLAS
build), nothing is set and the budget below is divided by the BLAS threads.

The budget is the usable CPUs: the calling thread plus a pool of the rest.
_row_blocks, the pool's one runner, maps over given items: the caller runs
them with the pool threads no other call holds (never waiting for one), so
no call queues behind another's work, and each item writes only into
arrays its caller allocated.  The threads share the items: each takes the
next one nobody has taken, at most RUN_AHEAD past the next result the caller
yields, and the caller yields the results in item order, so a consumer that
adds them up adds in the serial order.  The sweep runs its cells through it,
at most --workers at once (experiment.py): a cell's own work takes only the
pool threads the sweep left idle, so cells and their work never outnumber
the budget.  So do the contrastive terms' row blocks (objective.py), the
classifier's dropout masks of at least DRAW_AHEAD entries, one item per
epoch, at most two at once (downstream.py), and split_halves, which splits
in two halves the work below above its size (one comparison, so small graphs
pay nothing) and runs it whole when no pool thread is free:

- matmul: a dense product, split by output rows at a multiple of DENSE_ALIGN;
- sparse_matmul: a CSR product, split by the matrix's rows;
- the Adam update of a large parameter, split by rows (nn.Optimizer).

No split and no draw ahead changes a bit: every output element keeps its
operands and its reduction order, and a mask is a pure function of its
stream and position (rng.random_at).  An Adam update is elementwise.  A CSR
product sums each output row from its own row of the matrix, in stored
order, whatever the other rows.  OpenBLAS groups a dense
product's output rows into runs of a few rows and computes edge rows with
other kernels, so a dense split falls on a multiple of DENSE_ALIGN rows, where
every row keeps its kernel.  Below about 1M multiply-adds OpenBLAS switches to
a small-matrix kernel, so DENSE_SPLIT keeps both halves far above that.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy import sparse as sp

# a product or update is split when its size exceeds these
DENSE_SPLIT = 50_000_000   # multiply-adds of a dense product
SPARSE_SPLIT = 4_000_000   # stored entries x columns of a sparse product
ADAM_SPLIT = 1 << 18       # entries of a parameter, for its Adam update
DRAW_AHEAD = 32_768        # a dropout mask of at least this many entries is drawn
                           # ahead, at most RUN_AHEAD masks past the next epoch's
DENSE_ALIGN = 24           # a dense split falls on a multiple of this many rows
RUN_AHEAD = 4              # _row_blocks starts no item more than this many past the next to yield


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


def _row_blocks(fn, items, whole=None, at_once=None):
    """map(fn, items), yielded in order, the caller running the items with the
    pool threads no call holds, at most at_once items at once (default: as
    many as the pool allows), or [fn(whole)] if whole is given and none is
    free.  The caller takes the first item; then it and each pool thread take
    the next item nobody has taken, none more than RUN_AHEAD items past the
    next one to be yielded, and the caller yields the results in item order
    between its own items, keeping none once yielded.  An item's error starts
    no further item and is raised at that item's turn, after every earlier
    result; the running items end and the pool threads are given back before
    it surfaces, or before the generator closes when the consumer stops early."""
    helpers = 0
    while helpers < min(len(items), at_once or len(items)) - 1 and _IDLE.acquire(blocking=False):
        helpers += 1
    if not helpers:
        yield from map(fn, items if whole is None else [whole])
        return
    cond = threading.Condition()
    done = {}        # finished, not yet yielded: index -> (result, None) or (None, error)
    taken = 1        # the next index nobody has taken; the caller has item 0
    yielded = 0      # the next index to be yielded
    stop = False     # at the first error, or when the consumer stops

    def claim():
        """The next index this thread may start now, or None.  Under cond."""
        nonlocal taken
        if stop or taken == len(items) or taken > yielded + RUN_AHEAD:
            return None
        taken += 1
        return taken - 1

    def run(i):
        """Item i's (result, None), or (None, its error), into done; an error stops new items."""
        nonlocal stop
        try:
            outcome = fn(items[i]), None
        except BaseException as e:
            outcome = None, e
        with cond:
            done[i] = outcome
            stop = stop or outcome[1] is not None
            cond.notify_all()

    def helper():
        while True:
            with cond:
                while (i := claim()) is None:
                    if stop or taken == len(items):
                        return
                    cond.wait()
            run(i)

    futures = []
    try:
        futures.extend(_POOL.submit(helper) for _ in range(helpers))
        i = 0
        while yielded < len(items):
            if i is not None:
                run(i)
            with cond:
                i = None
                while yielded not in done and (i := claim()) is None:
                    cond.wait()
                if i is None:
                    (out, error), yielded = done.pop(yielded), yielded + 1
                    cond.notify_all()   # a pool thread may start one item further now
                    if error is not None:
                        raise error
            if i is None:
                yield out
                out = None   # the consumer's now: let it go before the next item
    finally:
        with cond:
            stop = True
            cond.notify_all()
        wait(futures)
        for _ in range(helpers):
            _IDLE.release()


def split_halves(fn, n: int, align: int = 1) -> list:
    """[fn(slice(0, mid)), fn(slice(mid, n))] through _row_blocks, mid the
    multiple of align nearest below n / 2; [fn(slice(0, n))] if mid is 0 or
    no pool thread is free."""
    mid = n // 2 // align * align
    return list(_row_blocks(fn, [slice(0, mid), slice(mid, n)] if mid else [], slice(0, n)))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; above DENSE_SPLIT multiply-adds, its output rows split in halves
    at a multiple of DENSE_ALIGN rows."""
    if a.shape[0] * a.shape[1] * b.shape[1] <= DENSE_SPLIT:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    split_halves(lambda s: np.matmul(a[s], b, out=out[s]), len(out), DENSE_ALIGN)
    return out


def sparse_matmul(m, x: np.ndarray) -> np.ndarray:
    """m @ x as an ndarray, for m sparse or dense; for m CSR above SPARSE_SPLIT
    stored entries x columns, m's rows split in halves."""
    if not sp.issparse(m) or m.format != "csr" or m.nnz * x.shape[1] <= SPARSE_SPLIT:
        return np.asarray(m @ x)
    rows = m.shape[0]
    out = np.empty((rows, x.shape[1]))

    def part(s):
        if s == slice(0, rows):   # no pool thread free: the product whole, uncopied
            return np.asarray(m @ x)
        out[s] = m[s] @ x
        return out

    return split_halves(part, rows)[-1]


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
