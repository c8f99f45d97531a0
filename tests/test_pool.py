"""The compute pool: row splits of the products and the Adam update, each
bit-identical to the unsplit expression, and the one-BLAS-thread pin around
the package's entry points."""

import os
import pathlib
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import sparse as sp

import graphcomplete as gc
import graphcomplete.autodiff as ad
from graphcomplete import downstream, pool
from graphcomplete.experiment import ExperimentConfig, run_experiment
from graphcomplete.nn import Optimizer, ParamStore

from conftest import ReferenceAdam, bits, forced_splits, sbm_fixture

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = pathlib.Path(pool.__file__).resolve().parents[1]
TESTS = pathlib.Path(__file__).resolve().parent


@pytest.fixture
def submitted():
    """Every split forced on, on one BLAS thread; the list of halves handed
    to the pool thread, as the slices they cover."""
    with pool.one_blas_thread(), forced_splits():
        halves = []
        real = pool._POOL.submit
        pool._POOL.submit = lambda fn, *args: (halves.append(args[0]), real(fn, *args))[1]
        yield halves


def vjps(out, g):
    return [vjp(g) for _, vjp in out._parents]


# ---------------------------------------------------------------------------
# the splits

@pytest.mark.parametrize("a_shape, b_shape, halves", [
    ((101, 500), (500, 80), 3),   # an odd row count: all three products split
    ((1, 500), (500, 80), 1),     # a single row: only av.T @ g has rows to split
], ids=["odd_rows", "single_row"])
def test_matmul_split_keeps_every_bit(submitted, a_shape, b_shape, halves):
    rng = np.random.default_rng(a_shape[0])
    av, bv = rng.normal(size=a_shape), rng.normal(size=b_shape)
    g = rng.normal(size=(a_shape[0], b_shape[1]))
    store = ParamStore()
    out = ad.matmul(store.add("a", av), store.add("b", bv))
    da, db = vjps(out, g)
    assert bits(out.value).tobytes() == bits(av @ bv).tobytes()
    assert bits(da).tobytes() == bits(g @ bv.T).tobytes()
    assert bits(db).tobytes() == bits(av.T @ g).tobytes()   # av.T is F-ordered
    assert len(submitted) == halves


@pytest.mark.parametrize("kind", ["csr", "dense"])
def test_propagate_split_keeps_every_bit(submitted, kind):
    # the CSR transpose against the CSC one, M.T; an empty row and an empty
    # column of M; a dense M keeps its dense products, unsplit
    n = 101
    rng = np.random.default_rng(8)
    m = np.where(rng.random((n, n)) < 0.1, rng.normal(size=(n, n)), 0.0)
    m[7] = 0.0
    m[:, 11] = 0.0
    M = sp.csr_array(m) if kind == "csr" else m
    op = ad.Operator(M)
    x, g = rng.normal(size=(n, 7)), rng.normal(size=(n, 7))
    out = ad.propagate(op, ParamStore().add("x", x))
    (dx,) = vjps(out, g)
    assert bits(out.value).tobytes() == bits(np.asarray(M @ x)).tobytes()
    assert bits(dx).tobytes() == bits(np.asarray(M.T @ g)).tobytes()
    if kind == "csr":
        assert op.Mt_csr.format == "csr" and op.nnz == M.nnz
        assert submitted == [slice(n // 2, n)] * 2
    else:
        assert submitted == []


def test_adam_split_keeps_every_bit(submitted):
    # weight decay on; an odd row count, a single row, a single column, and a
    # None grad that counts as zero
    shapes = {"odd": (101, 7), "row": (1, 33), "col": (64, 1)}
    rng = np.random.default_rng(9)
    split, reference = ParamStore(), ParamStore()
    for name, shape in shapes.items():
        value = rng.normal(size=shape)
        split.add(name, value.copy())
        reference.add(name, value.copy())
    optimizers = Optimizer(split, 0.01, weight_decay=1e-3), ReferenceAdam(reference, 0.01, 1e-3)
    for step in range(3):
        for name, shape in shapes.items():
            grad = None if (step, name) == (1, "odd") else rng.normal(size=shape)
            split[name].grad = None if grad is None else grad.copy()
            reference[name].grad = grad
        for opt in optimizers:
            opt.step()
        for name in shapes:
            assert bits(split[name].value).tobytes() == bits(reference[name].value).tobytes()
    assert submitted == [slice(50, 101), slice(32, 64)] * 3   # the single row stays whole


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("row", [0, 9], ids=["callers_half", "pools_half"])
def test_nonfinite_update_raises_and_gives_the_pool_thread_back(submitted, row):
    store = ParamStore()
    p = store.add("pos.W", np.ones((10, 3)))
    p.grad = np.ones((10, 3))
    p.grad[row, 2] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite update for parameter 'pos.W'"):
        Optimizer(store, 0.01).step()
    assert submitted == [slice(5, 10)]
    assert np.array_equal(p.value, np.ones((10, 3)))   # the parameter is not rebound
    assert pool._IDLE.acquire(blocking=False)   # the step gave its pool thread back
    pool._IDLE.release()


def test_split_waits_for_the_pools_half_when_the_callers_fails():
    ended = []

    def half(s):
        if s.start == 0:
            raise ValueError("caller's half")
        threading.Event().wait(0.05)
        ended.append(s)

    with forced_splits():
        with pytest.raises(ValueError, match="caller's half"):
            pool.split_rows(half, 4)
        assert ended == [slice(2, 4)]   # the pool's half ended before the error surfaced
        assert pool._IDLE.acquire(blocking=False)
        pool._IDLE.release()


# ---------------------------------------------------------------------------
# the pin

@pytest.fixture
def caller_counts():
    """Each loaded OpenBLAS set to two threads, the caller's count that the
    pin must give back; yields the (get, set) pairs."""
    targets = pool._pin_targets()
    if not targets:
        pytest.skip("no loaded OpenBLAS exports a thread-count setter")
    before = [get() for get, _ in targets]
    for _, put in targets:
        put(2)
    yield targets
    for (_, put), count in zip(targets, before):
        put(count)


def counts(targets):
    return [get() for get, _ in targets]


def test_pin_gives_the_callers_count_back_after_a_return_and_an_error(caller_counts):
    seen = []

    @pool.one_blas_thread()
    def work(fail):
        seen.append(counts(caller_counts))
        if fail:
            raise RuntimeError("inside the pin")

    work(False)
    assert counts(caller_counts) == [2] * len(caller_counts)
    with pytest.raises(RuntimeError, match="inside the pin"):
        work(True)
    assert counts(caller_counts) == [2] * len(caller_counts)
    assert seen == [[1] * len(caller_counts)] * 2


def test_nested_entries_restore_only_at_the_last_exit(caller_counts):
    with pool.one_blas_thread():
        with pool.one_blas_thread():
            pass
        assert counts(caller_counts) == [1] * len(caller_counts)
    assert counts(caller_counts) == [2] * len(caller_counts)


def record_counts_in_operator(monkeypatch, targets):
    """Every Operator a phase builds records the BLAS counts and its thread."""
    seen = []
    real = downstream.Operator

    def recording(M):
        seen.append((threading.current_thread(), counts(targets)))
        return real(M)

    monkeypatch.setattr(downstream, "Operator", recording)
    return seen


def test_each_phase_runs_on_one_blas_thread(caller_counts, monkeypatch):
    seen = record_counts_in_operator(monkeypatch, caller_counts)
    ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
    splits = gc.make_splits(ds, seed=0)
    cfg = ExperimentConfig(epochs=1, down_max_epochs=1)
    recon = gc.run_reconstruction(ds, cfg, 0)
    gc.train_downstream(recon, ds.labels, ds.num_classes, splits, cfg, 0)
    gc.train_gcn_baseline(ds, splits, cfg, 0)
    assert [c for _, c in seen] == [[1] * len(caller_counts)] * 3
    assert counts(caller_counts) == [2] * len(caller_counts)


def test_pin_holds_in_every_cell_at_two_workers(caller_counts, monkeypatch, tmp_path):
    seen = record_counts_in_operator(monkeypatch, caller_counts)
    gc.write_dataset(sbm_fixture(), str(tmp_path / "data"))
    run_experiment(ExperimentConfig(dataset=str(tmp_path / "data"), out=str(tmp_path / "out"),
                                    seeds=(0, 1), epochs=2, down_max_epochs=2, workers=2))
    assert len(seen) == 2 * 3   # per cell: the reconstruction and two classifier fits
    assert threading.main_thread() not in {thread for thread, _ in seen}
    assert all(c == [1] * len(caller_counts) for _, c in seen)
    assert counts(caller_counts) == [2] * len(caller_counts)


def test_without_a_setter_nothing_is_set_and_the_budget_divides(caller_counts, monkeypatch):
    monkeypatch.setattr(pool, "_openblas_threads", lambda: [])
    monkeypatch.setattr(pool, "_pinned", None)
    with pool.one_blas_thread():
        assert counts(caller_counts) == [2] * len(caller_counts)
    cpus = len(os.sched_getaffinity(0))
    for env, expected in (({"OPENBLAS_NUM_THREADS": "2"}, max(1, cpus // 2)),
                          ({}, 1),   # OpenBLAS's default: one thread per CPU
                          ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, cpus)):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert pool._block_threads() == expected


def test_splits_and_pins_under_contention(caller_counts):
    # four callers on two pool threads' worth of budget, each pinning and
    # splitting products and Adam updates, with a thread switch every
    # microsecond: every caller gets the unsplit bits, every pool thread is
    # given back, and the caller's BLAS counts come back at the last exit
    rng = np.random.default_rng(12)
    av, bv = rng.normal(size=(101, 500)), rng.normal(size=(500, 80))
    grads = [rng.normal(size=(101, 7)) for _ in range(3)]
    with pool.one_blas_thread():
        product = bits(av @ bv).tobytes()
    reference = ParamStore()
    reference.add("w", np.ones((101, 7)))
    adam = ReferenceAdam(reference, 0.01, 1e-3)
    for g in grads:
        reference["w"].grad = g
        adam.step()
    results = {}

    def caller(i):
        store = ParamStore()
        store.add("w", np.ones((101, 7)))
        opt = Optimizer(store, 0.01, weight_decay=1e-3)
        out = []
        for g in grads:
            with pool.one_blas_thread():
                out.append(bits(pool.matmul_rows(av, bv)).tobytes())
                store["w"].grad = g.copy()
                opt.step()
        results[i] = out, bits(store["w"].value).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_splits():
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in callers)
            assert pool._IDLE.acquire(blocking=False)   # the one pool thread is free again
            pool._IDLE.release()
    finally:
        sys.setswitchinterval(interval)
    expected = [product] * len(grads), bits(reference["w"].value).tobytes()
    assert results == {i: expected for i in range(4)}
    assert counts(caller_counts) == [2] * len(caller_counts)


SWEEP = """
import sys
sys.path[:0] = sys.argv[1:3]
from conftest import row_block_threads
from graphcomplete.experiment import main
with row_block_threads(2):
    sys.exit(main(sys.argv[3:]))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 2x2 sweep in fresh processes under one and two OpenBLAS threads,
    # the pool on, written to the same path: the same bytes, stdout included
    if not pool._pin_targets():
        pytest.skip("no loaded OpenBLAS exports a thread-count setter")
    gc.write_dataset(sbm_fixture(), str(tmp_path / "data"))
    out = tmp_path / "runs"
    flags = ["--dataset", str(tmp_path / "data"), "--out", str(out),
             "--feature-missing", "0.2,0.5", "--edge-missing", "0.3,0.6", "--seeds", "0,1",
             "--epochs", "30", "--down-max-epochs", "60", "--recon-dropout", "0.2",
             "--workers", "2", "--dump-embeddings", "--dump-structure"]
    runs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", SWEEP, str(SRC), str(TESTS), *flags],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append((done.stdout, {str(p.relative_to(out)): p.read_bytes()
                                   for p in out.rglob("*") if p.is_file()}))
        shutil.rmtree(out)
    # runs.csv and summary.json, then per cell 3 loss curves, 4 embedding tables
    # and its structure
    assert len(runs[0][1]) == 2 + 4 * (3 + 4 + 1)
    assert runs[0] == runs[1]
