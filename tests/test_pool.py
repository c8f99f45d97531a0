"""The compute pool: the splits of the products (dense and CSR by rows) and
of the Adam update, each bit-identical to the unsplit
expression, and the one-BLAS-thread pin around the package's entry points."""

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
from graphcomplete import downstream, experiment, objective, pool, structure_path
from graphcomplete.experiment import ExperimentConfig, run_experiment
from graphcomplete.nn import Optimizer, ParamStore

from conftest import ReferenceAdam, bits, forced_splits, row_block_threads, sbm_fixture
from oracles import propagate

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = pathlib.Path(pool.__file__).resolve().parents[1]
TESTS = pathlib.Path(__file__).resolve().parent


@pytest.fixture
def submitted(monkeypatch):
    """Every split forced on, on one BLAS thread; the list of halves that ran
    on the pool thread, as the slices they cover.  The caller's first half
    waits until the pool thread has started the other, so however the threads
    are scheduled the pool thread runs the second half of every split."""
    with pool.one_blas_thread(), forced_splits():
        halves = []
        real = pool._row_blocks

        def spied(fn, items, whole=None):
            caller, started = threading.current_thread(), threading.Event()

            def run(item):
                if threading.current_thread() is not caller:
                    halves.append(item)
                    started.set()
                elif len(items) > 1 and item == items[0]:
                    assert started.wait(10), "the pool thread never started a half"
                return fn(item)

            return real(run, items, whole)

        monkeypatch.setattr(pool, "_row_blocks", spied)
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
    out = ad.layer(store.add("a", av), store.add("b", bv))
    da, db = vjps(out, g)
    assert bits(out.value).tobytes() == bits(av @ bv).tobytes()
    assert bits(da).tobytes() == bits(g @ bv.T).tobytes()
    assert bits(db).tobytes() == bits(av.T @ g).tobytes()   # av.T is F-ordered
    assert len(submitted) == halves


@pytest.mark.parametrize("kind, cols, halves", [
    ("csr", 7, 2),     # an odd row count: halves of 50 and 51 rows
    ("csr", 3, 2),
    ("csr", 1, 2),     # a single column, which scipy multiplies as a vector
    ("csc", 7, 1),     # M CSC: its forward runs whole, the vjp by the CSR Mt splits
    ("dense", 7, 0),   # a dense M keeps its dense products, unsplit
], ids=["csr", "csr_three_cols", "csr_single_col", "csc", "dense"])
def test_propagate_split_keeps_every_bit(submitted, kind, cols, halves):
    # the forward by M and the vjp by its transpose M.T, split by the rows of
    # a CSR matrix; an empty row and an empty column of M
    n = 101
    rng = np.random.default_rng(8)
    m = np.where(rng.random((n, n)) < 0.1, rng.normal(size=(n, n)), 0.0)
    m[7] = 0.0
    m[:, 11] = 0.0
    M = {"csr": sp.csr_array, "csc": sp.csc_array, "dense": np.asarray}[kind](m)
    op = ad.Operator(M)
    x, g = rng.normal(size=(n, cols)), rng.normal(size=(n, cols))
    out = propagate(op, ParamStore().add("x", x))
    (dx,) = vjps(out, g)
    assert bits(out.value).tobytes() == bits(np.asarray(M @ x)).tobytes()
    assert bits(dx).tobytes() == bits(np.asarray(M.T @ g)).tobytes()
    assert out.value.flags.c_contiguous and dx.flags.c_contiguous
    assert kind == "dense" or op.Mt.format == "csr"
    assert submitted == [slice(n // 2, n)] * halves


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
    # the caller's half raises only once the pool's half has started, so the
    # runner cannot cancel it and must await it
    started, ended = threading.Event(), []

    def half(s):
        if s.start == 0:
            assert started.wait(10)
            raise ValueError("caller's half")
        started.set()
        threading.Event().wait(0.05)
        ended.append(s)

    with forced_splits():
        with pytest.raises(ValueError, match="caller's half"):
            pool.split_halves(half, 4)
        assert ended == [slice(2, 4)]   # the pool's half ended before the error surfaced
        assert pool._IDLE.acquire(blocking=False)
        pool._IDLE.release()


@pytest.mark.parametrize("threads", [1, 2], ids=["no_pool", "pool_thread_held"])
def test_split_runs_whole_without_a_free_pool_thread(threads):
    # one call over every row, on the caller, as the unsplit product runs;
    # at two threads another call holds the one pool thread
    calls = []
    with row_block_threads(threads):
        held = pool._IDLE.acquire(blocking=False)
        try:
            pool.split_halves(lambda s: calls.append((s, threading.current_thread())), 10)
        finally:
            if held:
                pool._IDLE.release()
    assert held == (threads == 2)
    assert calls == [(slice(0, 10), threading.current_thread())]


# ---------------------------------------------------------------------------
# the runner: the caller and the pool thread take the next item nobody has
# taken; Events fix which thread runs what, so no result depends on timing

def test_runner_yields_in_order_when_the_pool_thread_finishes_later_items_first():
    # the caller's item 0 waits until the pool thread has run items 1 to
    # RUN_AHEAD, every one it may start before item 0 is yielded
    finished, ahead = [], threading.Event()

    def fn(i):
        if i == 0:
            assert ahead.wait(10)
        finished.append((i, threading.current_thread()))
        if i == pool.RUN_AHEAD:
            ahead.set()
        return 10 * i

    with row_block_threads(2):
        assert list(pool._row_blocks(fn, list(range(12)))) == [10 * i for i in range(12)]
    first = finished[:pool.RUN_AHEAD + 1]
    assert [i for i, _ in first] == [*range(1, pool.RUN_AHEAD + 1), 0]
    assert [t is threading.main_thread() for _, t in first] == [False] * pool.RUN_AHEAD + [True]
    assert sorted(i for i, _ in finished) == list(range(12))


@pytest.mark.parametrize("ahead", [1, 4])
def test_runner_starts_no_item_past_the_bound(monkeypatch, ahead):
    # the consumer holds item 0's result until the pool thread has run every
    # item up to 1 + ahead; the one after must not start while it holds it
    monkeypatch.setattr(pool, "RUN_AHEAD", ahead)
    started = [threading.Event() for _ in range(12)]
    ended = [threading.Event() for _ in range(12)]

    def fn(i):
        started[i].set()
        ended[i].set()
        return i

    with row_block_threads(2):
        items = pool._row_blocks(fn, list(range(12)))
        got = [next(items)]
        assert ended[1 + ahead].wait(10)
        assert not started[2 + ahead].wait(0.2)
        got += items
    assert got == list(range(12))
    assert pool._IDLE.acquire(blocking=False)
    pool._IDLE.release()


def test_runner_at_once_one_runs_every_item_on_the_caller():
    # the cap a --workers 1 sweep sets: the pool thread stays free for the items' own work
    seen = []

    def fn(i):
        free = pool._IDLE.acquire(blocking=False)
        if free:
            pool._IDLE.release()
        seen.append((threading.current_thread(), free))
        return i

    with row_block_threads(2):
        assert list(pool._row_blocks(fn, list(range(8)), at_once=1)) == list(range(8))
    assert seen == [(threading.current_thread(), True)] * 8


@pytest.mark.parametrize("on_caller", [True, False], ids=["callers_item", "pools_item"])
def test_runner_error_stops_new_items_and_gives_the_pool_thread_back(on_caller):
    # item 0 (the caller's) and item 1 (the pool thread's) each wait until the
    # other has started, then one of them raises: every other item that
    # started has ended when the error surfaces, and none starts after it
    failing = 0 if on_caller else 1
    started, ended = [], []
    running = {0: threading.Event(), 1: threading.Event()}

    def fn(i):
        started.append(i)
        if i in running:
            running[i].set()
            assert running[1 - i].wait(10)
            if i == failing:
                raise KeyError(f"item {i}")
        ended.append(i)
        return i

    with row_block_threads(2):
        with pytest.raises(KeyError, match=f"item {failing}"):
            list(pool._row_blocks(fn, list(range(20))))
        done = list(ended)
        assert pool._IDLE.acquire(blocking=False)   # the pool thread is free
        pool._IDLE.release()
    assert sorted(started) == sorted(done + [failing])
    assert max(started) <= 1 + pool.RUN_AHEAD   # item 1 is never yielded


@pytest.mark.parametrize("how", ["break", "raise"])
def test_runner_consumer_stopping_early_gives_the_pool_thread_back(how):
    # the consumer stops at item 0 while the pool thread's item 1 still runs;
    # by the time the consuming call returns, item 1 has ended and the pool
    # thread is free
    pool_started, release = threading.Event(), threading.Event()
    started, ended = [], []

    def fn(i):
        started.append(i)
        if threading.current_thread() is threading.main_thread():
            assert pool_started.wait(10)
        else:
            pool_started.set()
            assert release.wait(10)
        ended.append(i)
        return i

    def consume():
        for _ in pool._row_blocks(fn, list(range(12))):
            release.set()
            if how == "break":
                break
            raise KeyError("consumer")

    with row_block_threads(2):
        if how == "break":
            consume()
        else:
            with pytest.raises(KeyError, match="consumer"):
                consume()
        assert 1 in ended and sorted(ended) == sorted(started)
        assert pool._IDLE.acquire(blocking=False)
        pool._IDLE.release()


CONTENTION = """
import sys
sys.path[:0] = sys.argv[1:3]
import threading
import numpy as np
import graphcomplete as gc
from graphcomplete import pool
from graphcomplete.experiment import ExperimentConfig
from conftest import forced_splits, row_block_threads

# n=320: each contrastive term has 5 row blocks, so both go through the runner
means = gc.data.two_block_features(16) * 0.05
ds = gc.apply_mask(gc.generate_sbm(160, 2, 0.05, 0.005, means, 0.5, seed=4),
                   gc.MaskSpec(0.3, 0.3, "entry", 0))
cfg = ExperimentConfig(epochs=3, recon_dropout=0.2)

def digest(seed):
    state = gc.run_reconstruction(ds, cfg, seed)
    return [a.tobytes() for a in (state.imputed, state.propagated, state.loss_history)]

with row_block_threads(1):
    serial = {seed: digest(seed) for seed in (0, 1)}
results = {}
sys.setswitchinterval(1e-6)
with forced_splits():
    callers = [threading.Thread(target=lambda s=seed: results.__setitem__(s, digest(s)))
               for seed in (0, 1)]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    idle = pool._IDLE.acquire(blocking=False)
assert results == serial, "concurrent runs changed bits"
assert idle, "a pool thread was not given back"
print("ok")
"""


def test_two_callers_with_splits_forced_do_not_deadlock():
    # two reconstructions at once, as in a --workers 2 sweep, every product
    # and update split and both contrastive terms on the runner, with a thread
    # switch every microsecond: in a fresh process under a hard timeout, so a
    # deadlock fails the test instead of hanging the suite
    done = subprocess.run([sys.executable, "-c", CONTENTION, str(SRC), str(TESTS)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


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


def test_the_diffusion_pins_its_own_solve(caller_counts):
    # the solve's bits depend on the BLAS thread count, so build_diffusion and
    # ppr_closed_form called outside any entry point, under two threads, give
    # the bits of the same calls inside the pin, and the caller's counts back
    ds = gc.apply_mask(sbm_fixture(), gc.MaskSpec(0.3, 0.3, "entry", 0))
    a_norm = structure_path.normalize_adjacency(ds.edges, ds.n)
    calls = (lambda: structure_path.build_diffusion(ds.edges, ds.n, 0.1, 20),
             lambda: structure_path.ppr_closed_form(a_norm, 0.1))
    direct = [call() for call in calls]
    assert counts(caller_counts) == [2] * len(caller_counts)
    with pool.one_blas_thread():
        pinned = [call() for call in calls]
    assert bits(direct[0].data).tobytes() == bits(pinned[0].data).tobytes()
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(direct[0], part), getattr(pinned[0], part))
    assert bits(direct[1]).tobytes() == bits(pinned[1]).tobytes()
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
    # the caller's cell waits until the pool thread has started the other, so
    # one cell runs on each thread however they are scheduled
    seen = record_counts_in_operator(monkeypatch, caller_counts)
    real, pool_started = experiment._run_cell, threading.Event()

    def cell(*args):
        if threading.current_thread() is threading.main_thread():
            assert pool_started.wait(10), "the pool thread never started a cell"
        else:
            pool_started.set()
        return real(*args)

    monkeypatch.setattr(experiment, "_run_cell", cell)
    gc.write_dataset(sbm_fixture(), str(tmp_path / "data"))
    with row_block_threads(2):
        run_experiment(ExperimentConfig(dataset=str(tmp_path / "data"), out=str(tmp_path / "out"),
                                        seeds=(0, 1), epochs=2, down_max_epochs=2, workers=2))
    assert len(seen) == 2 * 3   # per cell: the reconstruction and two classifier fits
    assert any(thread is not threading.main_thread() for thread, _ in seen)
    assert all(c == [1] * len(caller_counts) for _, c in seen)
    assert counts(caller_counts) == [2] * len(caller_counts)


def test_cells_and_their_work_stay_within_the_budget(monkeypatch, tmp_path):
    # --workers 4, more cells than the two threads of the budget, with every
    # split and draw ahead forced on: the threads inside a cell or a runner's
    # item at any one moment never outnumber the budget
    lock, depth, most = threading.Lock(), {}, []

    def counted(fn):
        def inside(*args):
            me = threading.current_thread()
            with lock:
                depth[me] = depth.get(me, 0) + 1
                most.append(len(depth))
            try:
                return fn(*args)
            finally:
                with lock:
                    depth[me] -= 1
                    if not depth[me]:
                        del depth[me]
        return inside

    real_blocks = pool._row_blocks

    def runner(fn, *args, **kwargs):
        return real_blocks(counted(fn), *args, **kwargs)

    monkeypatch.setattr(experiment, "_run_cell", counted(experiment._run_cell))
    monkeypatch.setattr(pool, "_row_blocks", runner)
    monkeypatch.setattr(objective, "_row_blocks", runner)
    gc.write_dataset(sbm_fixture(), str(tmp_path / "data"))
    with pool.one_blas_thread(), forced_splits():
        assert experiment.main(["--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                                "--seeds", "0,1,2,3,4,5", "--epochs", "3",
                                "--down-max-epochs", "5", "--workers", "4"]) == 0
        budget = pool._BLOCK_THREADS
    assert budget == 2 and most and max(most) <= budget


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
                out.append(bits(pool.matmul(av, bv)).tobytes())
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
from graphcomplete import pool
from graphcomplete.experiment import main
if sys.argv[3] == "ahead":
    pool.DRAW_AHEAD = 0
with row_block_threads(2):
    sys.exit(main(sys.argv[4:]))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 2x2 sweep in fresh processes under one and two OpenBLAS threads,
    # the pool on, written to the same path: the same bytes, stdout included;
    # and again with every classifier dropout mask drawn ahead, at one and
    # two workers
    if not pool._pin_targets():
        pytest.skip("no loaded OpenBLAS exports a thread-count setter")
    gc.write_dataset(sbm_fixture(), str(tmp_path / "data"))
    out = tmp_path / "runs"
    flags = ["--dataset", str(tmp_path / "data"), "--out", str(out),
             "--feature-missing", "0.2,0.5", "--edge-missing", "0.3,0.6", "--seeds", "0,1",
             "--epochs", "30", "--down-max-epochs", "60", "--recon-dropout", "0.2",
             "--dump-embeddings", "--dump-structure"]
    runs = []
    for threads, draws, workers in (("1", "in-turn", "2"), ("2", "in-turn", "2"),
                                    ("1", "ahead", "1"), ("1", "ahead", "2")):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", SWEEP, str(SRC), str(TESTS), draws,
                               *flags, "--workers", workers],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append((done.stdout, {str(p.relative_to(out)): p.read_bytes()
                                   for p in out.rglob("*") if p.is_file()}))
        shutil.rmtree(out)
    # runs.csv and summary.json, then per cell 3 loss curves, 4 embedding tables
    # and its structure
    assert len(runs[0][1]) == 2 + 4 * (3 + 4 + 1)
    assert all(run == runs[0] for run in runs[1:])
