"""Matrix accessors: the product-only view of an operand.

Range finders and drivers touch A exclusively through A @ X, A.T @ X, the
shape, and the Frobenius norm.  One product call is one pass over A
regardless of the width of X; InstrumentedAccessor counts them, which is how
the pass budgets are asserted.  The dense and sparse accessors reject a
product with NaN or infinite entries (NonFiniteInput); the check reads only
the product, never A.  Dense products are computed as (X^T A^T)^T, so that
the long side of the result leads in the GEMM (OpenBLAS runs a short
leading side up to 2.5x slower), and handed back as the GEMM wrote them:
F-ordered, with no copy.

Sparse products run over cached bands of A: row bands of A in CSC for
A @ X, and column bands of A in CSR for A.T @ X (kept as their CSC
transposes), each BAND_ROWS result rows high.  Every band scatters into a
slice of the result that stays in cache, and reads X in order.  The bands of
one product run at once on a thread pool shared by all sparse accessors and
made at the first banded product, with one worker per CPU in the process's
affinity mask (os.cpu_count() where there is none); SciPy's sparse kernels
release the GIL, so the bands run in parallel, and a product never keeps
more workers busy than it has bands.  Each band writes only its own rows of
the result, and each result row sums its terms in the order of one SciPy
product, so on a canonical CSC (sorted indices, no duplicates) the products
are bitwise equal to a @ x and a.T @ x whatever the worker count, and so
are the factors.  Each busy worker holds one band of the result as a
temporary (BAND_ROWS x width, 1.3 MB at width 40).  Idle workers block on
the pool's queue, so they take no CPU from the dense work between products,
and exit with the interpreter.  A forked child drops the pool it inherits,
whose threads did not come along, and makes its own at its first banded
product.

The bands are two more copies of the nonzeros: about 24 bytes per nonzero,
plus 4 bytes of index pointer per band and column (or row).  Each band is
built by the worker that first multiplies it, for about the cost of one
product, once per accessor; so reuse one accessor across calls, since
as_accessor on a raw sparse matrix makes a new one every time.  Products
under about 4 columns wide are slower in bands.  The bands snapshot A, and
fro_norm is computed once, so A must not change once it is wrapped.  An
operand with at most BAND_ROWS result rows takes one SciPy call on A as
given, on the calling thread.
"""

import os
import threading
from concurrent import futures

import numpy as np
import scipy.sparse as sp

from . import core

# Result rows per band of a sparse product.  A 4096-row slice of a 40-wide
# result is 1.3 MB and stays in a 2 MB L2 while the band scatters into it.
# On a 20000 x 20000 operand with 400k nonzeros (Xeon, 2 MB L2 per core,
# BENCH_sparse-bands.json) a 40-wide A @ X took 24-27 ms as one SciPy call
# and 17-18 ms in 4096-row bands on one thread, A.T @ Y 28-31 and 17-19 ms.
# With the bands spread over 2 cores (BENCH_sparse-threads.json) heights
# from 2048 rows (10 bands) to 5000 (4 bands) took 7-12 ms in two sweeps
# with no height fastest in both, and 10000 (2 bands) 10-15 ms; the uneven
# 3/2 split of 5 bands over 2 workers costs nothing measurable.
BAND_ROWS = 4096

__all__ = ["DenseAccessor", "SparseAccessor", "InstrumentedAccessor", "as_accessor"]


class DenseAccessor:
    """In-memory dense operand."""

    def __init__(self, a):
        self._a = core.as_fmatrix(a)

    @property
    def shape(self):
        return self._a.shape

    def matmul(self, x):
        return core.require_finite((x.T @ self._a.T).T, "A @ X")

    def rmatmul(self, x):
        return core.require_finite((x.T @ self._a).T, "A.T @ X")

    def fro_norm(self):
        return core.fro_norm(self._a)

    def to_dense(self):
        return self._a


class SparseAccessor:
    """Sparse operand; products never densify A."""

    def __init__(self, a):
        self._a = sp.csc_matrix(a)
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
        out = np.empty((a.shape[0],) + x.shape[1:], dtype=np.result_type(a.dtype, x.dtype))
        pool = _executor()
        jobs = [pool.submit(_band_product, a, bands, i, height, x, out) for i in range(len(bands))]
        futures.wait(jobs)  # no job outlives the call, even when one raised
        for job in jobs:
            job.result()
        return out

    def matmul(self, x):
        return core.require_finite(self._product(0, x), "A @ X")

    def rmatmul(self, x):
        return core.require_finite(self._product(1, x), "A.T @ X")

    def fro_norm(self):
        if self._fro is None:
            self._fro = float(np.sqrt((self._a.data**2).sum()))
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


_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The band pool, made at the first banded product."""
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
