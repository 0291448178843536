import numpy as np
import pytest
import scipy.sparse as sp

from rlra import core
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


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# 12x8 and 300x200 take OpenBLAS's small-matrix path, 600x400 the blocked one
@pytest.mark.parametrize("m,n,l", [(12, 8, 3), (300, 200, 30), (600, 400, 30)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_products_layout(m, n, l, order):
    # products run transposed in the GEMM and are handed back C-ordered,
    # the layout a @ x has
    a = core.gaussian(10, m, n)
    acc = DenseAccessor(a)
    x = np.asarray(core.gaussian(11, n, l), order=order)
    y = np.asarray(core.gaussian(12, m, l), order=order)
    ax, aty = acc.matmul(x), acc.rmatmul(y)
    assert ax.flags.c_contiguous and aty.flags.c_contiguous
    assert rel_diff(ax, a @ x) <= 1e-13
    assert rel_diff(aty, a.T @ y) <= 1e-13


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
