"""Matrix accessors: the product-only view of an operand.

Range finders and drivers touch A exclusively through A @ X, A.T @ X, the
shape, and the Frobenius norm.  One product call is one pass over A
regardless of the width of X; InstrumentedAccessor counts them, which is how
the pass budgets are asserted.  The dense and sparse accessors reject a
product with NaN or infinite entries (NonFiniteInput); the check reads only
the product, never A.
"""

import numpy as np
import scipy.sparse as sp

from . import core

__all__ = ["DenseAccessor", "SparseAccessor", "InstrumentedAccessor", "as_accessor"]


class DenseAccessor:
    """In-memory dense operand."""

    def __init__(self, a):
        self._a = core.as_fmatrix(a)

    @property
    def shape(self):
        return self._a.shape

    def matmul(self, x):
        return core.require_finite(self._a @ x, "A @ X")

    def rmatmul(self, x):
        return core.require_finite(self._a.T @ x, "A.T @ X")

    def fro_norm(self):
        return core.fro_norm(self._a)

    def to_dense(self):
        return self._a


class SparseAccessor:
    """Sparse operand; products never densify A."""

    def __init__(self, a):
        self._a = sp.csc_matrix(a)

    @property
    def shape(self):
        return self._a.shape

    def matmul(self, x):
        return core.require_finite(np.asarray(self._a @ x), "A @ X")

    def rmatmul(self, x):
        return core.require_finite(np.asarray(self._a.T @ x), "A.T @ X")

    def fro_norm(self):
        return float(np.sqrt((self._a.data**2).sum()))

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
