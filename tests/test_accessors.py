import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from rlra import accessors, core, fixedprec, matgen
from rlra.accessors import (
    DenseAccessor,
    InstrumentedAccessor,
    SparseAccessor,
    as_accessor,
)
from rlra.errors import NonFiniteInput


def sample_sparse():
    rng = np.random.default_rng(0)
    a = sp.random(30, 20, density=0.2, format="csc", dtype=np.float64, random_state=rng)
    return a


def test_dense_products():
    a = core.gaussian(1, 12, 8)
    acc = DenseAccessor(a)
    x = core.gaussian(2, 8, 3)
    y = core.gaussian(3, 12, 3)
    assert acc.shape == (12, 8)
    assert np.array_equal(acc.matmul(x), a @ x)
    assert np.array_equal(acc.rmatmul(y), a.T @ y)
    assert acc.fro_norm() == core.fro_norm(a)
    assert np.array_equal(acc.to_dense(), a)


def test_dense_fro_norm_computed_once(monkeypatch):
    a = core.gaussian(1, 12, 8)
    acc = DenseAccessor(a)
    calls = []
    norm = core.fro_norm
    monkeypatch.setattr(core, "fro_norm", lambda x: calls.append(1) or norm(x))
    assert acc.fro_norm() == norm(a)
    assert acc.fro_norm() == norm(a)
    assert len(calls) == 1


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# 12x8 and 300x200 take OpenBLAS's small-matrix path, 600x400 the blocked one
@pytest.mark.parametrize("m,n,l", [(12, 8, 3), (300, 200, 30), (600, 400, 30)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_products_layout(m, n, l, order):
    # products run transposed in the GEMM, from operands of either layout
    a = core.gaussian(10, m, n)
    acc = DenseAccessor(a)
    x = np.asarray(core.gaussian(11, n, l), order=order)
    y = np.asarray(core.gaussian(12, m, l), order=order)
    ax, aty = acc.matmul(x), acc.rmatmul(y)
    assert rel_diff(ax, a @ x) <= 1e-13
    assert rel_diff(aty, a.T @ y) <= 1e-13


def test_dense_product_allocates_only_its_result():
    acc = DenseAccessor(core.gaussian(10, 3000, 500))
    x = core.gaussian(11, 500, 40)
    tracemalloc.start()
    try:
        ax = acc.matmul(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ax.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_products_reject_non_finite(order):
    acc = DenseAccessor(core.gaussian(13, 300, 200))
    x = np.array(core.gaussian(14, 200, 30), order=order)
    y = np.array(core.gaussian(15, 300, 30), order=order)
    x[5, 7] = np.nan
    y[9, 2] = np.nan
    with pytest.raises(NonFiniteInput, match=r"A @ X"):
        acc.matmul(x)
    with pytest.raises(NonFiniteInput, match=r"A\.T @ X"):
        acc.rmatmul(y)


def head_products(a, x, y):
    # the one-GEMM forms every dense product had before it was banded
    return (x.T @ a.T).T, (y.T @ a).T


def use_pool(monkeypatch, request, workers):
    pool = futures.ThreadPoolExecutor(workers)
    request.addfinalizer(pool.shutdown)
    monkeypatch.setattr(accessors, "_pool", pool)


def count_bands(monkeypatch):
    """Record the band count of every product that is split."""
    counts = []
    run_bands = accessors._run_bands

    def spy(job, count):
        counts.append(count)
        run_bands(job, count)

    monkeypatch.setattr(accessors, "_run_bands", spy)
    return counts


# odd row and column counts; 1031 x 517 splits both ways (A.T @ Y into two
# bands at most, 517 rows holding two of DENSE_BAND_ROWS), 2 x 250007 only
# A.T @ Y, whose 2 result rows are fewer than the workers, and 5003 x 1001
# at width 1 holds just over 2 * DENSE_BAND_WORK multiply-adds
@pytest.mark.parametrize(
    "m,n,width,bands",
    [(1031, 517, 30, {2: (2, 2), 3: (3, 2)}),
     (2, 250007, 10, {2: (0, 2), 3: (0, 2)}),
     (5003, 1001, 1, {2: (2, 2), 3: (2, 2)})],
)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_dense_bands_bitwise_equal(monkeypatch, request, m, n, width, bands, order, workers):
    # each band is one GEMM of whole rows of the result, so every entry
    # sums its terms as the one-GEMM product does, whatever the worker count
    use_pool(monkeypatch, request, workers)
    counts = count_bands(monkeypatch)
    a = core.gaussian(20, m, n)
    acc = DenseAccessor(a)
    x = np.asarray(core.gaussian(21, n, width), order=order)
    y = np.asarray(core.gaussian(22, m, width), order=order)
    ax, aty = acc.matmul(x), acc.rmatmul(y)
    for got, want in zip((ax, aty), head_products(a, x, y)):
        assert got.shape == want.shape
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)
    want_counts = bands.get(workers, (0, 0))
    assert counts == [c for c in want_counts if c]


def test_small_dense_product_starts_no_pool(monkeypatch):
    # below 2 * DENSE_BAND_WORK multiply-adds, or 2 * DENSE_BAND_ROWS result
    # rows, a product is one GEMM on the calling thread
    monkeypatch.setattr(accessors, "_pool", None)
    threads = threading.active_count()
    small = DenseAccessor(core.gaussian(23, 1000, 1000))
    x = core.gaussian(24, 1000, 2)  # 2e6 multiply-adds
    assert np.array_equal(small.matmul(x), head_products(small.to_dense(), x, x)[0])
    short = DenseAccessor(core.gaussian(25, 500, 20000))
    x = core.gaussian(26, 20000, 3)  # 3e7 multiply-adds into 500 rows
    y = core.gaussian(27, 500, 3)
    assert np.array_equal(short.matmul(x), head_products(short.to_dense(), x, y)[0])
    assert accessors._pool is None
    assert threading.active_count() == threads
    short.rmatmul(y)  # 20000 result rows: the first split product starts the pool
    assert accessors._pool is not None


@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_bands_reject_non_finite(monkeypatch, request, order):
    use_pool(monkeypatch, request, 2)
    counts = count_bands(monkeypatch)
    acc = DenseAccessor(core.gaussian(27, 1031, 517))
    x = np.array(core.gaussian(28, 517, 30), order=order)
    y = np.array(core.gaussian(29, 1031, 30), order=order)
    x[5, 7] = np.nan
    y[9, 2] = np.inf
    with pytest.raises(NonFiniteInput, match=r"A @ X"):
        acc.matmul(x)
    with pytest.raises(NonFiniteInput, match=r"A\.T @ X"):
        acc.rmatmul(y)
    assert counts == [2, 2]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_run_bands_waits_for_every_job_and_reraises(monkeypatch, request, failing):
    # two workers and three bands: the pool takes all three; with two bands
    # the calling thread runs the last one itself
    use_pool(monkeypatch, request, 2)
    for count in (2, 3):
        if failing >= count:
            continue
        done, where = [], {}

        def job(i):
            where[i] = threading.current_thread()
            if i == failing:
                raise RuntimeError(f"band {i} failed")
            time.sleep(0.02)
            done.append(i)

        with pytest.raises(RuntimeError, match=f"band {failing} failed"):
            accessors._run_bands(job, count)
        assert sorted(done) == [i for i in range(count) if i != failing]
        caller_ran = [i for i, t in where.items() if t is threading.current_thread()]
        assert caller_ran == ([count - 1] if count <= 2 else [])


def test_dense_products_from_two_threads_on_one_accessor(monkeypatch, request):
    use_pool(monkeypatch, request, 3)
    counts = count_bands(monkeypatch)
    a = core.gaussian(32, 1031, 517)
    acc = DenseAccessor(a)
    x = core.gaussian(33, 517, 30)
    y = core.gaussian(34, 1031, 30)
    want = head_products(a, x, y)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            start = threading.Barrier(2)
            got = [None, None]

            def call(t):
                start.wait(timeout=10)
                got[t] = (acc.matmul(x), acc.rmatmul(y))

            threads = [threading.Thread(target=call, args=(t,)) for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for ax, aty in got:
                assert np.array_equal(ax, want[0]) and np.array_equal(aty, want[1])
    finally:
        sys.setswitchinterval(switch)
    assert sorted(set(counts)) == [2, 3]


def test_sparse_matches_dense():
    a = sample_sparse()
    acc = SparseAccessor(a)
    dense = acc.to_dense()
    x = core.gaussian(4, 20, 3)
    y = core.gaussian(5, 30, 3)
    assert np.allclose(acc.matmul(x), dense @ x, atol=1e-14)
    assert np.allclose(acc.rmatmul(y), dense.T @ y, atol=1e-14)
    # summation order differs between the csr data vector and the dense array
    assert acc.fro_norm() == pytest.approx(core.fro_norm(dense), rel=1e-14)
    assert isinstance(acc.matmul(x), np.ndarray)


def test_sparse_accessor_holds_float64():
    # integer data is cast, so its norm cannot overflow int64 (3e9 squared
    # twice does); float64 CSC data is shared, not copied
    ints = sp.csc_matrix(([3_000_000_000, 3_000_000_000], ([0, 2], [1, 1])), shape=(3, 2))
    assert ints.dtype == np.int64
    acc = SparseAccessor(ints)
    assert acc.sparse.dtype == np.float64
    assert acc.fro_norm() == pytest.approx(3e9 * np.sqrt(2), rel=1e-15)
    a = sample_sparse()
    assert np.shares_memory(SparseAccessor(a).sparse.data, a.data)
    with pytest.raises(ValueError, match="complex"):
        SparseAccessor(a * 1j)
    with pytest.raises(ValueError, match="complex"):
        DenseAccessor(a.toarray() * 1j)


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sparse_products_reject_non_finite(monkeypatch, banded, order):
    if banded:
        monkeypatch.setattr(accessors, "BAND_ROWS", 64)
    rng = np.random.default_rng(16)
    acc = SparseAccessor(sp.random(300, 200, density=0.05, format="csc", random_state=rng))
    x = np.array(core.gaussian(14, 200, 30), order=order)
    y = np.array(core.gaussian(15, 300, 30), order=order)
    x[5, 7] = np.nan
    y[9, 2] = np.inf
    with pytest.raises(NonFiniteInput, match=r"A @ X"):
        acc.matmul(x)
    with pytest.raises(NonFiniteInput, match=r"A\.T @ X"):
        acc.rmatmul(y)
    assert (acc._bands[0] is not None, acc._bands[1] is not None) == (banded, banded)


def banded_operand(m, n, empty_rows=(), empty_cols=()):
    rng = np.random.default_rng(m * n)
    a = sp.random(m, n, density=0.3, format="lil", random_state=rng)
    a[list(empty_rows), :] = 0
    a[:, list(empty_cols)] = 0
    a = sp.csc_matrix(a)
    a.eliminate_zeros()
    return a


# BAND_ROWS is patched to 4: 4 rows fit in one band, 3 are less than one,
# 14 and 11 span several bands plus a remainder, and rows 4-7 of the 14 x 11
# operand and its columns 4-7 leave a band without nonzeros in each direction
@pytest.mark.parametrize(
    "m,n,empty",
    [(4, 4, ()), (3, 2, ()), (14, 11, ()), (14, 11, range(4, 8)), (2, 14, ()), (14, 3, ())],
)
@pytest.mark.parametrize("width", [None, 1, 40])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sparse_bands_bitwise_equal(monkeypatch, request, m, n, empty, width, order):
    # every band's rows sum their terms in the order of one SciPy product,
    # whichever worker runs it: the shared pool, one worker, or more
    # workers than the (at most 4) bands
    monkeypatch.setattr(accessors, "BAND_ROWS", 4)
    a = banded_operand(m, n, empty, empty)
    shape = (n,) if width is None else (n, width)
    x = np.asarray(np.random.default_rng(1).standard_normal(shape), order=order)
    y = np.asarray(np.random.default_rng(2).standard_normal((m,) + shape[1:]), order=order)
    for workers in (None, 1, 8):
        if workers:
            pool = futures.ThreadPoolExecutor(workers)
            request.addfinalizer(pool.shutdown)
            monkeypatch.setattr(accessors, "_pool", pool)
        acc = SparseAccessor(a)
        ax, aty = acc.matmul(x), acc.rmatmul(y)
        for got, want, rows in ((ax, a @ x, m), (aty, a.T @ y, n)):
            assert got.shape == want.shape
            # a banded product is written F-ordered; one SciPy call's is its own
            assert got.flags.f_contiguous if rows > 4 else got.flags.c_contiguous
            assert np.array_equal(got, want)
    # an operand that fits in one band is used as given, with no copy
    assert (acc._bands[0] is None, acc._bands[1] is None) == (m <= 4, n <= 4)
    if m > 4:
        assert len(acc._bands[0]) == -(-m // 4)
    if empty:
        assert acc._bands[0][1].nnz == acc._bands[1][1].nnz == 0


def test_band_job_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(accessors, "BAND_ROWS", 64)
    a = banded_operand(300, 200)
    acc = SparseAccessor(a)
    x = np.random.default_rng(1).standard_normal((200, 5))
    band_product = accessors._band_product

    def fail_band_0(a, bands, i, *rest):
        if i == 0:
            raise RuntimeError("band 0 failed")
        band_product(a, bands, i, *rest)

    monkeypatch.setattr(accessors, "_band_product", fail_band_0)
    with pytest.raises(RuntimeError, match="band 0 failed"):
        acc.matmul(x)
    # the other bands finished and stay built; the failed one is built next time
    assert [b is None for b in acc._bands[0]] == [True, False, False, False, False]
    monkeypatch.setattr(accessors, "_band_product", band_product)
    assert np.array_equal(acc.matmul(x), a @ x)
    assert all(b is not None for b in acc._bands[0])


def test_products_from_two_threads_on_one_accessor(monkeypatch, request):
    # both callers find the bands unbuilt and race to build them, on an
    # eight-worker pool
    monkeypatch.setattr(accessors, "BAND_ROWS", 16)
    pool = futures.ThreadPoolExecutor(8)
    request.addfinalizer(pool.shutdown)
    monkeypatch.setattr(accessors, "_pool", pool)
    a = banded_operand(300, 200)
    x = np.random.default_rng(1).standard_normal((200, 7))
    y = np.random.default_rng(2).standard_normal((300, 7))
    want = (a @ x, a.T @ y)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            acc = SparseAccessor(a)
            start = threading.Barrier(2)
            got = [None, None]

            def call(t):
                start.wait(timeout=10)
                got[t] = (acc.matmul(x), acc.rmatmul(y))

            threads = [threading.Thread(target=call, args=(t,)) for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for ax, aty in got:
                assert np.array_equal(ax, want[0]) and np.array_equal(aty, want[1])
    finally:
        sys.setswitchinterval(switch)


def _banded_products_match(acc, x, y, ax, aty):
    ok = np.array_equal(acc.matmul(x), ax) and np.array_equal(acc.rmatmul(y), aty)
    sys.exit(0 if ok else 1)


def test_forked_child_makes_banded_products(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    monkeypatch.setattr(accessors, "BAND_ROWS", 64)
    a = banded_operand(300, 200)
    x = np.random.default_rng(1).standard_normal((200, 5))
    y = np.random.default_rng(2).standard_normal((300, 5))
    acc = SparseAccessor(a)
    ax = acc.matmul(x)  # the parent's pool has workers now; A.T's bands are unbuilt
    child = multiprocessing.get_context("fork").Process(
        target=_banded_products_match, args=(acc, x, y, ax, a.T @ y)
    )
    child.start()
    try:
        child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_sparse_accessor_is_lazy(monkeypatch):
    # generating, densifying, taking the norm and products on an operand of
    # at most BAND_ROWS rows build no bands and start no threads
    monkeypatch.setattr(accessors, "_pool", None)
    threads = threading.active_count()
    acc = matgen.gen_sparse(300, 200, 0.05, seed=3)
    _ = acc.to_dense()
    _ = acc.fro_norm()
    _ = acc.matmul(np.ones((200, 3)))
    _ = acc.rmatmul(np.ones((300, 3)))
    assert acc._bands == [None, None]
    assert accessors._pool is None
    assert threading.active_count() == threads


def test_pool_starts_at_first_banded_product_and_ends_with_the_interpreter():
    script = (
        "import threading, numpy as np, rlra\n"
        "from rlra import accessors, matgen\n"
        "assert threading.active_count() == 1\n"
        "acc = matgen.gen_sparse(300, 200, 0.05, seed=3)\n"
        "acc.to_dense(), acc.fro_norm(), acc.matmul(np.ones((200, 3)))\n"
        "assert threading.active_count() == 1 and accessors._pool is None\n"
        "accessors.BAND_ROWS = 64\n"
        "acc.matmul(np.ones((200, 3)))\n"
        "assert threading.active_count() > 1\n"
    )
    src = str(Path(accessors.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # exiting joins the idle workers; a worker that never ended would hang the run
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr


def test_sparse_fro_norm_computed_once():
    a = sample_sparse()
    acc = SparseAccessor(a)
    want = float(np.sqrt((a.data**2).sum()))
    assert acc.fro_norm() == want
    acc.sparse.data[:] = 0.0  # A must not change once wrapped; the norm is not read again
    assert acc.fro_norm() == want


def test_sparse_fro_norm_sums_duplicate_entries():
    # SciPy accepts a CSC that stores an entry as several pieces: here every
    # entry as two halves.  The norm squares their sums, leaving the
    # caller's pieces as they are, and the energy scan reads it
    a = matgen.gen_sparse(300, 200, 0.05, seed=3).sparse
    halves = sp.csc_matrix((np.repeat(a.data / 2, 2), np.repeat(a.indices, 2), 2 * a.indptr), shape=a.shape)
    pieces = [x.copy() for x in (halves.data, halves.indices, halves.indptr)]
    assert SparseAccessor(halves).fro_norm() == SparseAccessor(a).fro_norm()
    assert all(np.array_equal(x, c) for x, c in zip((halves.data, halves.indices, halves.indptr), pieces))
    params = fixedprec.PrecisionParams(eps=0.5, b=5, l=150, v=4)
    got = fixedprec.adaptive_rank(SparseAccessor(halves), params, seed=0)
    want = fixedprec.adaptive_rank(SparseAccessor(a), params, seed=0)
    assert (got.rank, got.converged) == (want.rank, want.converged)


def test_instrumented_counts_products_only():
    acc = InstrumentedAccessor(core.gaussian(6, 10, 10))
    assert acc.product_count == 0
    acc.matmul(np.eye(10))
    acc.rmatmul(np.eye(10))
    acc.matmul(np.eye(10))
    assert acc.product_count == 3
    # shape, norm, and densification are not passes over the operand
    _ = acc.shape
    _ = acc.fro_norm()
    _ = acc.to_dense()
    assert acc.product_count == 3


def test_instrumented_count_independent_of_block_width():
    acc = InstrumentedAccessor(core.gaussian(7, 10, 10))
    acc.matmul(core.gaussian(8, 10, 1))
    acc.matmul(core.gaussian(9, 10, 9))
    assert acc.product_count == 2


def test_as_accessor_dispatch():
    dense = as_accessor(np.eye(3))
    assert isinstance(dense, DenseAccessor)
    sparse = as_accessor(sample_sparse())
    assert isinstance(sparse, SparseAccessor)
    wrapped = InstrumentedAccessor(np.eye(3))
    assert as_accessor(wrapped) is wrapped
