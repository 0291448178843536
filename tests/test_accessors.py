import numpy as np
import pytest
import scipy.sparse as sp

from rlra import accessors, core, matgen
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
def test_sparse_bands_bitwise_equal(monkeypatch, m, n, empty, width, order):
    # every band's rows sum their terms in the order of one SciPy product
    monkeypatch.setattr(accessors, "BAND_ROWS", 4)
    a = banded_operand(m, n, empty, empty)
    acc = SparseAccessor(a)
    shape = (n,) if width is None else (n, width)
    x = np.asarray(np.random.default_rng(1).standard_normal(shape), order=order)
    y = np.asarray(np.random.default_rng(2).standard_normal((m,) + shape[1:]), order=order)
    ax, aty = acc.matmul(x), acc.rmatmul(y)
    for got, want in ((ax, a @ x), (aty, a.T @ y)):
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
    # an operand that fits in one band is used as given, with no copy
    assert (acc._bands[0] is None, acc._bands[1] is None) == (m <= 4, n <= 4)
    if m > 4:
        assert len(acc._bands[0]) == -(-m // 4)
    if empty:
        assert acc._bands[0][1].nnz == acc._bands[1][1].nnz == 0


def test_sparse_accessor_is_lazy():
    # generating, densifying and taking the norm build no bands
    acc = matgen.gen_sparse(300, 200, 0.05, seed=3)
    _ = acc.to_dense()
    _ = acc.fro_norm()
    assert acc._bands == [None, None]


def test_sparse_fro_norm_computed_once():
    a = sample_sparse()
    acc = SparseAccessor(a)
    want = float(np.sqrt((a.data**2).sum()))
    assert acc.fro_norm() == want
    acc.sparse.data[:] = 0.0  # A must not change once wrapped; the norm is not read again
    assert acc.fro_norm() == want


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
