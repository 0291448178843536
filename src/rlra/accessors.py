"""Matrix accessors: the product-only view of an operand.

Range finders and drivers touch A exclusively through A @ X, A.T @ X, the
shape, and the Frobenius norm, which the dense and sparse accessors compute
once per accessor.  One product call is one pass over A
regardless of the width of X; InstrumentedAccessor counts them, which is how
the pass budgets are asserted.  The dense and sparse accessors reject a
product with NaN or infinite entries (NonFiniteInput), reading only the
product, never A.

A product returned by matmul or rmatmul belongs to the caller, and the
library may overwrite it when it is writeable: the drivers factor their
sketches by LU in the product's own buffer.  An accessor that keeps a
product (a cache, a spy) returns a read-only view of it, which the library
copies before it writes.  Layout: a dense product and a sparse product
split into bands come back F-ordered, the layout getrf factors in place; a
sparse product of at most BAND_ROWS rows is SciPy's own C-ordered array,
which is copied once before it is factored.  X may come in any layout (a
sparse product reads it C-ordered, the layout the interior LU
renormalizations write).  The layout never changes a product's values.

Dense products (dense_matmul) are computed as (X^T A^T)^T, so that the long
side of the result leads in the GEMM (OpenBLAS runs a short leading side up
to 2.5x slower), into an F-ordered result.  From 2 * DENSE_BAND_WORK
multiply-adds on, its rows are split into up to one band per worker, each
of at least DENSE_BAND_WORK multiply-adds and DENSE_BAND_ROWS rows, on edges
at multiples of 64 rows, and each band is one GEMM straight into its rows.
On OpenBLAS every entry then equals that of one GEMM bitwise, so products
and factors do not depend on the worker count (see DENSE_BAND_ROWS).

Sparse products run over cached bands of A, BAND_ROWS result rows each:
row bands in CSC for A @ X, column bands in CSR for A.T @ X (kept as their
CSC transposes).  A band scatters into a temporary of its rows, which
stays in cache, summing each row's terms in the order of one SciPy product,
and copies it into its rows of the F-ordered result, so on a canonical CSC
(sorted indices, no duplicates) products are bitwise a @ x and a.T @ x
whatever the worker count.  The bands (about 24 bytes per
nonzero, plus 4 per band and column or row) are each built by the worker
that first multiplies it, at about the cost of one product, so reuse one
accessor: as_accessor on a raw sparse matrix makes a new one per call.  A
busy worker holds one band of the result (1.3 MB at width 40).  Products
under 4 columns wide are slower in bands; at most BAND_ROWS result rows take
one SciPy call on A.  The bands snapshot A and fro_norm is computed once,
so A must not change once it is wrapped; fro_norm sums an entry stored as
several pieces (a CSC without canonical format) before squaring it.

The bands of one product run at once on a thread pool shared by all
accessors and made at the first product split into bands, with one worker
per CPU in the process's affinity mask (os.cpu_count() where there is
none); NumPy's GEMM and SciPy's sparse kernels release the GIL.  The
calling thread runs the last band itself unless the bands outnumber the
workers.  Idle workers block on the pool's queue, taking no CPU between
products, and exit with the interpreter.  A forked child drops the pool it
inherits, whose threads did not come along, and makes its own.
"""

import os
import threading
from concurrent import futures

import numpy as np
import scipy.sparse as sp

from . import core

# Result rows per band of a sparse product: a 40-wide slice is 1.3 MB and
# stays in a 2 MB L2.  On a 20000^2 operand with 400k nonzeros a 40-wide
# A @ X took 24-27 ms as one SciPy call and 17-18 ms in bands on one thread,
# A.T @ Y 28-31 and 17-19 (BENCH_sparse-bands.json); on 2 cores, heights of
# 2048 to 5000 rows took 7-12 ms with none fastest twice, and 10000 rows
# 10-15 ms (BENCH_sparse-threads.json).
BAND_ROWS = 4096
# Least multiply-adds per dense band.  A @ X on 2 cores, one BLAS thread:
# 700^2 x 5, 0.53 ms split against 0.47 as one GEMM; 1000^2 x 5, 0.75
# against 0.93; 2000^2 x 100, 11.5 against 17.0 (BENCH_dense-threads.json).
DENSE_BAND_WORK = 2_500_000
# Least rows per dense band.  OpenBLAS rounds a product's last rows by how
# its row blocks fall: with 128-row bands 67 of 464 random products (a
# 172-row band ending 300 rows, say) differed from one GEMM, at 256 none.
DENSE_BAND_ROWS = 256

__all__ = ["DenseAccessor", "SparseAccessor", "InstrumentedAccessor", "as_accessor"]


class DenseAccessor:
    """In-memory dense operand.  fro_norm is computed once, at its first
    call, so A must not change once it is wrapped."""

    def __init__(self, a):
        self._a = core.as_fmatrix(a)
        self._fro = None

    @property
    def shape(self):
        return self._a.shape

    def matmul(self, x):
        return core.require_finite(dense_matmul(self._a, x), "A @ X")

    def rmatmul(self, x):
        return core.require_finite(dense_matmul(self._a.T, x), "A.T @ X")

    def fro_norm(self):
        if self._fro is None:
            self._fro = core.fro_norm(self._a)
        return self._fro

    def to_dense(self):
        return self._a


class SparseAccessor:
    """Sparse operand; products never densify A.  Held as float64 CSC:
    integers are cast, complex input raises ValueError, and a float64 CSC
    matrix is shared, not copied."""

    def __init__(self, a):
        self._a = sp.csc_matrix(core.require_real(a, "A"), dtype=np.float64)
        self._bands = [None, None]  # of A and of A.T, each built at its first use
        self._fro = None

    @property
    def shape(self):
        return self._a.shape

    def _product(self, side, x):
        a = self._a.T if side else self._a
        height = BAND_ROWS
        if a.shape[0] <= height:
            return np.asarray(a @ x)
        if self._bands[side] is None:
            self._bands[side] = [None] * -(-a.shape[0] // height)
        bands = self._bands[side]
        x = np.ascontiguousarray(x)  # once, not once per band
        out = np.empty((a.shape[0],) + x.shape[1:], dtype=np.result_type(a.dtype, x.dtype), order="F")
        _run_bands(lambda i: _band_product(a, bands, i, height, x, out), len(bands))
        return out

    def matmul(self, x):
        return core.require_finite(self._product(0, x), "A @ X")

    def rmatmul(self, x):
        return core.require_finite(self._product(1, x), "A.T @ X")

    def fro_norm(self):
        if self._fro is None:
            a = self._a
            if not a.has_canonical_format:
                # sum each entry's pieces first, on a copy of the caller's matrix
                a = a.copy()
                a.sum_duplicates()
            self._fro = float(np.sqrt((a.data**2).sum()))
        return self._fro

    def to_dense(self):
        return np.asarray(self._a.todense(), dtype=np.float64)

    @property
    def sparse(self):
        return self._a


def _band_product(a, bands, i, height, x, out):
    """Write band i of a @ x into its rows of out, building the band first
    if no product has yet.  Two products racing on one unbuilt band both
    build it; either copy is the same, so the race costs time, not results."""
    rows = slice(i * height, (i + 1) * height)
    if bands[i] is None:
        bands[i] = sp.csc_matrix(a[rows])
    out[rows] = bands[i] @ x


def dense_matmul(a, x):
    """a @ x for a 2-d a as (x^T a^T)^T, F-ordered, in row bands on the pool
    when large enough (see above); else one GEMM, with no pool started."""
    rows = a.shape[0]
    work = rows * a.shape[1] * (x.shape[1] if x.ndim == 2 else 1)
    count = 0
    if rows >= 2 * DENSE_BAND_ROWS and work >= 2 * DENSE_BAND_WORK:
        count = min(_executor()._max_workers, rows // DENSE_BAND_ROWS, work // DENSE_BAND_WORK)
    if count < 2:
        return (x.T @ a.T).T
    edges = [rows * i // count // 64 * 64 for i in range(count)] + [rows]
    out = np.empty((rows,) + x.shape[1:], dtype=np.result_type(a.dtype, x.dtype), order="F")

    def band(i):
        r = slice(edges[i], edges[i + 1])
        np.matmul(x.T, a[r].T, out=out[r].T)

    _run_bands(band, count)
    return out


def _run_bands(job, count):
    """Run job(0) .. job(count - 1) at once on the pool, the last on the
    calling thread unless the jobs outnumber the workers.  Returns once
    every job has ended, re-raising the first error.  No job may submit."""
    pool = _executor()
    mine = count <= pool._max_workers
    jobs = [pool.submit(job, i) for i in range(count - mine)]
    try:
        if mine:
            job(count - 1)
    finally:
        futures.wait(jobs)  # no job outlives the call, even when one raised
    for j in jobs:
        j.result()


_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The band pool, made at the first product split into bands."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity masks
                workers = os.cpu_count() or 1
            _pool = futures.ThreadPoolExecutor(workers, thread_name_prefix="rlra-band")
        return _pool


def _forget_pool():
    # A forked child inherits the pool but not its threads: its jobs would
    # queue for workers that do not exist.  The child makes its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


class InstrumentedAccessor:
    """Wraps any accessor and counts product invocations (passes)."""

    def __init__(self, inner):
        self.inner = as_accessor(inner)
        self.product_count = 0

    @property
    def shape(self):
        return self.inner.shape

    def matmul(self, x):
        self.product_count += 1
        return self.inner.matmul(x)

    def rmatmul(self, x):
        self.product_count += 1
        return self.inner.rmatmul(x)

    def fro_norm(self):
        # a norm query is not a product; budgets count products only
        return self.inner.fro_norm()

    def to_dense(self):
        return self.inner.to_dense()


def as_accessor(a):
    """Wrap an ndarray or sparse matrix; accessors pass through unchanged."""
    if hasattr(a, "matmul") and hasattr(a, "rmatmul") and hasattr(a, "shape"):
        return a
    if sp.issparse(a):
        return SparseAccessor(a)
    return DenseAccessor(a)
