"""Shared test helpers: gradient comparison and small fixtures."""

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import graphcomplete as gc
from graphcomplete import autodiff as ad
from graphcomplete import objective, pool
from graphcomplete.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ParamStore
from oracles import finite_diff_grad

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:   # without the test extra the property modules skip themselves
    pass
else:
    # every run draws the same examples, so a failing one comes back on a rerun
    hypothesis_settings.register_profile("repeatable", derandomize=True, database=None)
    hypothesis_settings.load_profile("repeatable")

# gradient acceptance rule used throughout: relative error below 1e-4,
# falling back to absolute error below 1e-7 where the analytic gradient
# is too small for a meaningful ratio
REL_TOL = 1e-4
ABS_TOL = 1e-7
SMALL = 1e-6
FD_EPS = 1e-5


def assert_grads_match(analytic: dict, numeric: dict):
    assert set(analytic) >= set(numeric)
    for name, num in numeric.items():
        ana = analytic[name]
        small = np.abs(ana) < SMALL
        if small.any():
            worst_abs = np.abs(ana - num)[small].max()
            assert worst_abs < ABS_TOL, f"{name}: absolute error {worst_abs}"
        big = ~small
        if big.any():
            denom = np.maximum(np.abs(ana), np.abs(num))[big]
            worst_rel = (np.abs(ana - num)[big] / denom).max()
            assert worst_rel < REL_TOL, f"{name}: relative error {worst_rel}"


def gradcheck(build_loss, store: ParamStore):
    """Compare tape gradients of build_loss(store) against central differences."""
    loss = build_loss(store)
    ad.backward(loss)
    analytic = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grad()
    numeric = finite_diff_grad(lambda: build_loss(store).value, store, eps=FD_EPS)
    assert_grads_match(analytic, numeric)


class ReferenceAdam:
    """The textbook per-tensor Adam step, written with fresh arrays: the oracle
    nn.Optimizer's in-place step must match bit for bit."""

    def __init__(self, store: ParamStore, learning_rate: float, weight_decay: float = 0.0):
        self.store = store
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._m = {name: np.zeros_like(t.value) for name, t in store.items()}
        self._v = {name: np.zeros_like(t.value) for name, t in store.items()}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for name, p in self.store.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            m = ADAM_BETA1 * self._m[name] + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * self._v[name] + (1 - ADAM_BETA2) * g * g
            self._m[name], self._v[name] = m, v
            m_hat = m / (1 - ADAM_BETA1 ** self._t)
            v_hat = v / (1 - ADAM_BETA2 ** self._t)
            new = p.value - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not np.all(np.isfinite(new)):
                raise FloatingPointError(f"non-finite update for parameter {name!r}")
            p.value = new
        self.store.zero_grad()


class ZeroFilledStore(ParamStore):
    """The store under the former grad convention: a zero array from add and
    after every step instead of None, so backward adds each first gradient
    into zeros (a first entry of -0.0 arrives as +0.0)."""

    def add(self, name, value):
        t = super().add(name, value)
        t.grad = np.zeros_like(t.value)
        return t

    def zero_grad(self) -> None:
        for _, t in self.items():
            t.grad = np.zeros_like(t.value)


def bits(a) -> np.ndarray:
    """The float64 array's bit patterns, for exact comparison (-0.0 != 0.0)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@contextlib.contextmanager
def row_block_threads(threads: int):
    """The compute pool runs work on `threads` threads (1: inline), whatever
    this machine's CPU and BLAS thread budget."""
    saved = pool._BLOCK_THREADS, pool._POOL, pool._IDLE
    with ThreadPoolExecutor(max(1, threads - 1), "test-row-block") as executor:
        pool._BLOCK_THREADS, pool._POOL = threads, executor
        pool._IDLE = threading.Semaphore(threads - 1)
        try:
            yield
        finally:
            pool._BLOCK_THREADS, pool._POOL, pool._IDLE = saved


@contextlib.contextmanager
def forced_splits():
    """Every dense product, sparse product and Adam update splits, and every
    classifier dropout mask is drawn ahead, whatever its size, with the pool
    on at two threads."""
    names = ("DENSE_SPLIT", "SPARSE_SPLIT", "ADAM_SPLIT", "DRAW_AHEAD")
    saved = [getattr(pool, name) for name in names]
    with row_block_threads(2):
        for name in names:
            setattr(pool, name, 0)
        try:
            yield
        finally:
            for name, value in zip(names, saved):
                setattr(pool, name, value)


@contextlib.contextmanager
def f32_from(rows: int):
    """The contrastive terms run their row blocks, and ppr_closed_form its
    solve for alpha >= structure_path.F32_MIN_ALPHA, in float32 from `rows`
    nodes on: 0 forces float32 at every size, sys.maxsize float64 at every
    size, in both steps."""
    saved = objective.F32_ROWS
    objective.F32_ROWS = rows
    try:
        yield
    finally:
        objective.F32_ROWS = saved


@pytest.fixture
def pooled():
    """The compute pool forced on at two threads."""
    with row_block_threads(2):
        yield


@pytest.fixture
def tiny_masked_dataset():
    """6-node, d=4 two-block graph with a few masked entries and edges."""
    means = gc.data.two_block_features(4)
    ds = gc.generate_sbm(3, 2, 0.9, 0.2, means, 0.3, seed=2)
    return gc.apply_mask(ds, gc.MaskSpec(0.3, 0.2, "entry", 5))


def sbm_fixture(mean_scale: float = 0.05, seed: int = 0) -> gc.GraphDataset:
    """The 100-node two-block benchmark graph used by the longer tests.

    Block means sit close together relative to the noise so plain feature
    smoothing cannot saturate accuracy; that leaves measurable headroom
    for structure recovery.
    """
    means = gc.data.two_block_features(16) * mean_scale
    return gc.generate_sbm(50, 2, 0.3, 0.02, means, 0.5, seed=seed)


def sbm256_fixture() -> gc.GraphDataset:
    """The 256-node two-block graph, the smallest whose contrastive terms run
    their row blocks in float32 and whose diffusion is solved in float32
    (objective.F32_ROWS); each term has 4 row blocks, enough for the pool."""
    return gc.generate_sbm(128, 2, 0.05, 0.005, gc.data.two_block_features(8), 0.5, seed=1)


# a short sweep of sbm256_fixture with small layers, all but --dataset,
# --out and --workers
SBM256_FLAGS = ["--seeds", "0,1", "--epochs", "4", "--k", "5", "--imputer-hidden", "8",
                "--pe-hidden", "16", "--ppnp-hidden", "8", "--gcn-hidden", "8",
                "--attention-dim", "4", "--down-max-epochs", "20",
                "--dump-embeddings", "--dump-structure"]
