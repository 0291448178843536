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
slice of the result that stays in cache, and reads X in order.  Each result
row sums its terms in the order of one SciPy product, so on a canonical CSC
(sorted indices, no duplicates) the products are bitwise equal to a @ x and
a.T @ x.  The bands are two more copies of the nonzeros: about 24 bytes per
nonzero, plus 4 bytes of index pointer per band and column (or row).  Each
set is built at the first product that needs it, for about the cost of one
product, once per accessor; so reuse one accessor across calls, since
as_accessor on a raw sparse matrix makes a new one every time.  A call that
makes one product per side does not earn the build back, and products under
about 10 columns wide are slower in bands.  The bands snapshot A, and
fro_norm is computed once, so A must not change once it is wrapped.  An
operand with at most BAND_ROWS result rows takes one SciPy call on A as
given.
"""

import numpy as np
import scipy.sparse as sp

from . import core

# Result rows per band of a sparse product.  A 4096-row slice of a 40-wide
# result is 1.3 MB and stays in a 2 MB L2 while the band scatters into it.
# On a 20000 x 20000 operand with 400k nonzeros (one thread, Xeon, 2 MB L2
# per core, BENCH_sparse-bands.json) a 40-wide A @ X took 24-27 ms as one
# SciPy call and 17-18 ms in 4096-row bands, A.T @ Y 28-31 and 17-19 ms.
# 2048 and 3072 rows were as fast and 8192 slower (18-21 ms); 4096 makes
# the fewest bands of the fast heights.
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
        if a.shape[0] <= BAND_ROWS:
            return np.asarray(a @ x)
        starts = range(0, a.shape[0], BAND_ROWS)
        if self._bands[side] is None:
            self._bands[side] = [sp.csc_matrix(a[r : r + BAND_ROWS]) for r in starts]
        x = np.ascontiguousarray(x)  # once, not once per band
        out = np.empty((a.shape[0],) + x.shape[1:], dtype=np.result_type(a.dtype, x.dtype))
        for r, band in zip(starts, self._bands[side]):
            out[r : r + BAND_ROWS] = band @ x
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
