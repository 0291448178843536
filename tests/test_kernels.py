import tracemalloc

import numpy as np
import pytest

from rlra import backend, core, kernels, matgen, rangefinder
from projection_identities import tsvd


def test_plu_frozen_2x2():
    f = kernels.plu(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(f.p, [1, 0])
    assert np.array_equal(f.L, np.eye(2))
    assert np.array_equal(f.U, np.array([[2.0, 3.0], [0.0, 1.0]]))


@pytest.mark.parametrize("m,n", [(8, 8), (20, 7), (7, 20), (1, 5), (5, 1)])
def test_plu_reconstructs(m, n):
    a = core.gaussian(m * 100 + n, m, n)
    f = kernels.plu(a)
    assert np.allclose(a[f.p, :], f.L @ f.U, atol=1e-12 * core.fro_norm(a))
    r = min(m, n)
    assert f.L.shape == (m, r) and f.U.shape == (r, n)
    # partial pivoting keeps every multiplier at most 1 in magnitude
    assert np.abs(f.L).max() <= 1.0 + 1e-12
    assert np.count_nonzero(np.triu(f.L, 1)) == 0
    assert np.count_nonzero(np.tril(f.U, -1)) == 0
    assert np.array_equal(np.diag(f.L), np.ones(r))


@pytest.mark.parametrize("m,n", [(200, 11), (40, 40), (8, 20), (30, 50)])
def test_plu_unpacks_getrf_output(monkeypatch, m, n):
    # L and U are exactly the tril/triu unpack of the same packed factor,
    # and a wide input's L is its own m x m array, not a view of the m x n
    # work array
    a = core.gaussian(m + 7 * n, m, n)
    buffers = []
    inplace = backend.plu_inplace
    monkeypatch.setattr(backend, "plu_inplace",
                        lambda lu, piv: buffers.append(lu) or inplace(lu, piv))
    f = kernels.plu(a)
    lu = np.array(a, order="F")
    piv = np.arange(m, dtype=np.int64)
    inplace(lu, piv)
    r = min(m, n)
    expected_l = np.tril(lu[:, :r], -1)
    expected_l[np.arange(r), np.arange(r)] = 1.0
    assert np.array_equal(f.p, piv)
    assert np.array_equal(f.L, expected_l)
    assert np.array_equal(f.U, np.triu(lu[:r, :]))
    if r < n:
        assert not np.shares_memory(f.L, buffers[0])


def test_plu_copies_its_input_once():
    a = np.asfortranarray(core.gaussian(1, 4000, 40))
    tracemalloc.start()
    try:
        kernels.plu(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_plu_leaves_its_input_unchanged(order):
    a = np.asarray(core.gaussian(2, 30, 8), order=order)
    before = a.copy()
    kernels.plu(a)
    assert np.array_equal(a, before)


def _read_only(a):
    a = np.asfortranarray(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make,in_place", [
    pytest.param(np.asfortranarray, True, id="F"),
    pytest.param(lambda a: np.asfortranarray(np.c_[a, a])[:, :6], True, id="F-column-prefix"),
    pytest.param(np.ascontiguousarray, False, id="C"),
    pytest.param(_read_only, False, id="read-only"),
    pytest.param(lambda a: np.asfortranarray(a, dtype=np.float32), False, id="float32"),
])
def test_plu_in_place_factors_only_a_writeable_f_ordered_buffer(make, in_place):
    # the library's own products are factored in their own buffers; any
    # other input is copied once and left as it is.  The factors are plu's
    # either way, and upper=False only drops U
    def fresh():
        return make(core.gaussian(3, 50, 6))

    want = kernels.plu(fresh())
    y = fresh()
    f = kernels._plu_in_place(y)
    assert all(np.array_equal(got, w) for got, w in zip(f, want))
    assert np.shares_memory(f.L, y) == in_place
    assert np.array_equal(y, fresh()) != in_place
    g = kernels._plu_in_place(fresh(), upper=False)
    assert g.U is None and np.array_equal(g.L, want.L) and np.array_equal(g.p, want.p)


def test_plu_in_place_allocates_no_copy():
    a = np.asfortranarray(core.gaussian(1, 4000, 40))
    tracemalloc.start()
    try:
        kernels._plu_in_place(a, upper=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * a.nbytes


def test_plu_permutation_valid():
    f = kernels.plu(core.gaussian(2, 15, 6))
    core.check_perm(f.p, 15)


def test_plu_duplicate_columns_zero_pivot():
    rng = np.random.default_rng(4)
    col = rng.standard_normal((10, 1))
    a = np.hstack([col, 2.0 * col, rng.standard_normal((10, 2))])
    f = kernels.plu(a)
    # the duplicated direction surfaces as a pivot at rounding level, and
    # partial pivoting keeps L bounded all the same
    assert abs(f.U[1, 1]) <= 4 * np.finfo(float).eps * abs(f.U[0, 1])
    assert np.abs(f.L).max() <= 1.0
    assert np.allclose(a[f.p, :], f.L @ f.U, atol=1e-14 * core.fro_norm(a))


_rng = np.random.default_rng(3)
_col = _rng.standard_normal((12, 1))
# (matrix, indices of exactly zero pivots or None when a dependent column
# leaves a round-off sized one, leading pivot row)
DEGENERATE = [
    pytest.param(np.hstack([_col, _col, _rng.standard_normal((12, 3))]), None, 9,
                 id="duplicate-columns"),
    pytest.param(np.zeros((8, 5)), [0, 1, 2, 3, 4], 0, id="all-zero"),
    pytest.param(np.vstack([_rng.standard_normal((3, 6)), np.zeros((7, 6))]), [3, 4, 5], 2,
                 id="zero-rows"),
    pytest.param(np.hstack([np.zeros((9, 2)), _rng.standard_normal((9, 4))]), [0, 1], 0,
                 id="zero-leading-columns"),
    # equal-magnitude candidates 2 and -2: the first maximum (row 1) wins
    pytest.param(np.array([[1.0, 5.0], [2.0, 6.0], [-2.0, 7.0]]), [], 1, id="tie-break"),
]


@pytest.mark.parametrize("a,zero_pivots,p0", DEGENERATE)
def test_plu_degenerate(a, zero_pivots, p0):
    f = kernels.plu(a)
    assert np.abs(a[f.p, :] - f.L @ f.U).max() <= 1e-14 * core.fro_norm(a)
    assert np.abs(f.L).max() <= 1.0
    if zero_pivots is not None:
        assert np.flatnonzero(np.diag(f.U) == 0.0).tolist() == zero_pivots
    assert f.p[0] == p0


def test_eqr_orthonormal():
    q, r = kernels.eqr(core.gaussian(5, 30, 8))
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-13)
    assert np.count_nonzero(np.tril(r, -1)) == 0


def _conditioned(seed, m, n, cond):
    """m x n with singular values logspace(0, -log10(cond), n) and random
    singular vectors (a column scaling alone would not hurt CholeskyQR)."""
    u, _ = np.linalg.qr(core.gaussian(seed, m, n))
    v, _ = np.linalg.qr(core.gaussian(seed + 1, n, n))
    return (u * np.logspace(0, -np.log10(cond), n)) @ v.T


def _rank3(seed, m, n):
    return np.diag(np.r_[np.ones(3), np.zeros(m - 3)]) @ core.gaussian(seed, m, n)


@pytest.mark.parametrize("m,n", [(20000, 40), (2000, 110), (8000, 10)])
def test_tall_qr_certified_path(monkeypatch, m, n):
    def refuse(*args, **kwargs):
        raise AssertionError("a well-conditioned sketch fell back to Householder")

    monkeypatch.setattr(kernels, "qr", refuse)
    x = core.gaussian(m + n, m, n)
    q, r = kernels.eqr(x)
    assert q.shape == (m, n) and r.shape == (n, n) and q.flags.c_contiguous
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-13
    assert np.linalg.norm(q @ r - x) <= 1e-14 * np.linalg.norm(x)
    assert np.count_nonzero(np.tril(r, -1)) == 0
    assert np.all(np.diag(r) > 0)


FALLBACK = [
    pytest.param(lambda: _conditioned(1, 2000, 110, 1e12), id="cond-1e12"),
    pytest.param(lambda: _rank3(2, 300, 20), id="rank-3"),
    pytest.param(lambda: 1e160 * core.gaussian(3, 2000, 110), id="gram-overflows"),
    pytest.param(lambda: 1e-170 * core.gaussian(4, 2000, 110), id="gram-underflows"),
]


@pytest.mark.parametrize("make", FALLBACK)
def test_tall_qr_falls_back_to_householder(make):
    x = make()
    q, r = kernels.eqr(x)
    expected_q, expected_r = kernels.qr(x, mode="economic", check_finite=False)
    assert np.array_equal(q, expected_q) and np.array_equal(r, expected_r)


def test_tall_qr_certificate_rejects_a_successful_cholesky():
    # cond 3e8: the first Cholesky succeeds, but Q1 is too far from
    # orthonormal for the second sweep to be trusted
    x = _conditioned(0, 2000, 110, 3e8)
    first = kernels._chol_inv(x.T @ x)
    assert first is not None
    q1 = x @ first[1]
    assert np.linalg.norm(q1.T @ q1 - np.eye(110)) > kernels.CHOLQR_CERTIFICATE
    q, r = kernels.eqr(x)
    expected_q, expected_r = kernels.qr(x, mode="economic", check_finite=False)
    assert np.array_equal(q, expected_q) and np.array_equal(r, expected_r)


def _assert_cut_pinv(l, rank):
    # the deficient directions are rejected from R^+, not the input: R^+ has
    # the numerical rank of L, and R^+ Q^T is the reference pseudoinverse
    # with the same PINV_RTOL cut
    q, r, rp = kernels.pinv_factor(l)
    assert q.shape == l.shape and rp.shape == r.shape == (l.shape[1], l.shape[1])
    assert np.array_equal(r, kernels.eqr(l).R)
    assert np.isfinite(rp).all()
    assert np.linalg.matrix_rank(rp) == rank
    expected = np.linalg.pinv(l, rcond=kernels.PINV_RTOL)
    assert np.allclose(rp @ q.T, expected, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("make,rank", [(lambda: _rank3(6, 50, 8), 3),
                                       (lambda: _conditioned(7, 50, 8, 1e13), 7)],
                         ids=["rank-3", "cond-1e13"])
def test_pinv_factor_rejects_deficient_sketch(make, rank):
    _assert_cut_pinv(make(), rank)


@pytest.fixture
def pinv_calls(monkeypatch):
    """Every kernels.pinv_factor call's input."""
    calls = []
    pinv_factor = kernels.pinv_factor
    monkeypatch.setattr(kernels, "pinv_factor", lambda l: calls.append(l) or pinv_factor(l))
    return calls


@pytest.mark.parametrize("kind,l", [("fast", 40), ("fast", 120), ("slow", 40), ("sshaped", 80)])
def test_gram_inverse_matches_pinv_factor_on_an_lu_basis(pinv_calls, kind, l):
    # an LU basis stays on the Gram route, within about u kappa^2 of the
    # R^+ R^+^T that pinv_factor gives the same basis
    a, _ = matgen.gen_decay(kind, 400, 300, seed=3)
    x = rangefinder._lu_basis(a @ core.rademacher(4, 300, l))
    cinv = kernels._gram_inverse(x)
    assert not pinv_calls
    rp = kernels.pinv_factor(x)[2]
    expected = rp @ rp.T
    u = np.finfo(np.float64).eps
    bound = 10 * u * np.linalg.cond(x) ** 2
    assert np.linalg.norm(cinv - expected) <= bound * np.linalg.norm(expected)


def _unit_lower_basis(t, k=60, m=200):
    """m x k: unit lower top block with -t everywhere below its diagonal,
    zero rows below it, rows permuted."""
    x = np.zeros((m, k))
    x[:k] = np.eye(k) - t * np.tril(np.ones((k, k)), -1)
    return x[np.random.default_rng(5).permutation(m)]


@pytest.mark.parametrize("t,scale", [(0.2, 1.0), (1.0, 1.0), (0.5, 1.0), (0.05, 1e160)],
                         ids=["t=0.2", "t=1", "t=0.5", "gram-overflows"])
def test_gram_inverse_falls_back_on_an_ill_conditioned_basis(pinv_calls, t, scale):
    # dtrcon's kappa_1(R) reads about 5e5 at t = 0.2 and 5e9 at t = 1
    # (kappa_2 about 1e18), both above GRAM_COND_LIMIT; at t = 0.5 the
    # Cholesky fails, and an overflowing Gram leaves a non-finite R whose
    # estimate reads 0.  Each takes pinv_factor's R^+ R^+^T
    x = scale * _unit_lower_basis(t)
    cinv = kernels._gram_inverse(x)
    assert len(pinv_calls) == 1 and pinv_calls[0] is x
    rp = kernels.pinv_factor(x)[2]
    assert np.array_equal(cinv, rp @ rp.T)


def test_pinv_factor_rejects_wide():
    with pytest.raises(ValueError, match="tall"):
        kernels.pinv_factor(np.zeros((3, 5)))


def test_pinv_factor_rejects_deficient():
    col = np.arange(1.0, 9.0).reshape(8, 1)
    _assert_cut_pinv(np.hstack([col, col]), 1)


def test_pinv_apply_is_left_inverse():
    l = core.gaussian(6, 40, 7)
    x = kernels.pinv_apply(l, l)
    assert np.allclose(x, np.eye(7), atol=1e-12)


def test_pinv_apply_matches_lstsq():
    # full column rank, and three numerically rank-deficient inputs whose
    # cut singular values the reference drops at the same PINV_RTOL
    rng = np.random.default_rng(7)
    col = np.arange(1.0, 9.0).reshape(8, 1)
    cases = {
        "gaussian": (core.gaussian_from(rng, 25, 6), core.gaussian_from(rng, 25, 3)),
        "rank-3": (_rank3(6, 50, 8), core.gaussian(8, 50, 3)),
        "cond-1e13": (_conditioned(7, 50, 8, 1e13), core.gaussian(8, 50, 3)),
        "duplicate-column": (np.hstack([col, col]), core.gaussian(8, 8, 3)),
    }
    for name, (l, m) in cases.items():
        expected = np.linalg.pinv(l, rcond=kernels.PINV_RTOL) @ m
        assert np.allclose(kernels.pinv_apply(l, m), expected, atol=1e-12), name


def test_pinv_transpose_apply_matches_pinv():
    rng = np.random.default_rng(8)
    l = core.gaussian_from(rng, 25, 6)
    m = core.gaussian_from(rng, 6, 4)
    expected = np.linalg.pinv(l.T) @ m
    assert np.allclose(kernels.pinv_transpose_apply(l, m), expected, atol=1e-12)


def test_tsvd_is_rank_k_optimum():
    rng = np.random.default_rng(10)
    a = core.gaussian_from(rng, 30, 20)
    f = tsvd(a, 4)
    full_s = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(f.S, full_s[:4], rtol=1e-13)
    err = core.fro_norm(a - (f.U * f.S) @ f.V.T)
    assert err == pytest.approx(np.sqrt((full_s[4:] ** 2).sum()), rel=1e-12)


def test_tsvd_rejects_bad_rank():
    with pytest.raises(ValueError):
        tsvd(np.eye(4), 5)
    with pytest.raises(ValueError):
        tsvd(np.eye(4), 0)
