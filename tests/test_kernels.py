import numpy as np
import pytest

from rlra import backend, core, kernels
from rlra.errors import IllPosedPseudoinverse


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


def test_plu_permutation_valid():
    f = kernels.plu(core.gaussian(2, 15, 6))
    core.check_perm(f.p, 15)


def test_plu_duplicate_columns_zero_pivot():
    rng = np.random.default_rng(4)
    col = rng.standard_normal((10, 1))
    a = np.hstack([col, 2.0 * col, rng.standard_normal((10, 2))])
    f = kernels.plu(a)
    # the duplicated direction surfaces as an exactly zero pivot
    assert f.U[1, 1] == 0.0
    assert np.allclose(a[f.p, :], f.L @ f.U, atol=1e-14 * core.fro_norm(a))


_rng = np.random.default_rng(3)
_col = _rng.standard_normal((12, 1))
# (matrix, indices of exactly zero pivots, leading pivot row)
DEGENERATE = [
    pytest.param(np.hstack([_col, _col, _rng.standard_normal((12, 3))]), [1], 9,
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
    assert np.flatnonzero(np.diag(f.U) == 0.0).tolist() == zero_pivots
    assert f.p[0] == p0


def test_plu_fallback_is_the_exact_elimination(monkeypatch):
    calls = []
    exact = backend._plu_exact
    monkeypatch.setattr(backend, "_plu_exact", lambda lu, piv: calls.append(1) or exact(lu, piv))
    a = DEGENERATE[0].values[0]
    f = kernels.plu(a)
    assert calls == [1]
    lu = np.array(a, order="F")
    piv = np.arange(a.shape[0], dtype=np.int64)
    exact(lu, piv)
    assert np.array_equal(f.p, piv)
    assert np.array_equal(f.L, np.tril(lu, -1) + np.eye(*a.shape))
    assert np.array_equal(f.U, np.triu(lu[: a.shape[1], :]))


def test_plu_well_posed_input_stays_on_getrf(monkeypatch):
    def refuse(lu, piv):
        raise AssertionError("exact elimination ran on a well-posed input")

    monkeypatch.setattr(backend, "_plu_exact", refuse)
    a = core.gaussian(12, 40, 9)
    f = kernels.plu(a)
    assert np.abs(a[f.p, :] - f.L @ f.U).max() <= 1e-14 * core.fro_norm(a)


def test_eqr_orthonormal():
    q, r = kernels.eqr(core.gaussian(5, 30, 8))
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-13)
    assert np.count_nonzero(np.tril(r, -1)) == 0


def test_pinv_factor_rejects_wide():
    with pytest.raises(ValueError, match="tall"):
        kernels.pinv_factor(np.zeros((3, 5)))


def test_pinv_factor_rejects_deficient():
    col = np.arange(1.0, 9.0).reshape(8, 1)
    with pytest.raises(IllPosedPseudoinverse):
        kernels.pinv_factor(np.hstack([col, col]))


def test_pinv_apply_is_left_inverse():
    l = core.gaussian(6, 40, 7)
    x = kernels.pinv_apply(l, l)
    assert np.allclose(x, np.eye(7), atol=1e-12)


def test_pinv_apply_matches_lstsq():
    rng = np.random.default_rng(7)
    l = core.gaussian_from(rng, 25, 6)
    m = core.gaussian_from(rng, 25, 3)
    expected = np.linalg.lstsq(l, m, rcond=None)[0]
    assert np.allclose(kernels.pinv_apply(l, m), expected, atol=1e-12)


def test_pinv_transpose_apply_matches_pinv():
    rng = np.random.default_rng(8)
    l = core.gaussian_from(rng, 25, 6)
    m = core.gaussian_from(rng, 6, 4)
    expected = np.linalg.pinv(l.T) @ m
    assert np.allclose(kernels.pinv_transpose_apply(l, m), expected, atol=1e-12)


def test_tsvd_is_rank_k_optimum():
    rng = np.random.default_rng(10)
    a = core.gaussian_from(rng, 30, 20)
    f = kernels.tsvd(a, 4)
    full_s = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(f.S, full_s[:4], rtol=1e-13)
    err = core.fro_norm(a - (f.U * f.S) @ f.V.T)
    assert err == pytest.approx(np.sqrt((full_s[4:] ** 2).sum()), rel=1e-12)


def test_tsvd_rejects_bad_rank():
    with pytest.raises(ValueError):
        kernels.tsvd(np.eye(4), 5)
    with pytest.raises(ValueError):
        kernels.tsvd(np.eye(4), 0)


def test_spec_norm_matches_numpy():
    a = core.gaussian(11, 15, 10)
    assert kernels.spec_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
