import numpy as np
import pytest

from rlra import core


def test_as_fmatrix_layout_and_dtype():
    a = core.as_fmatrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.flags.f_contiguous


def test_as_fmatrix_shares_float64_and_rejects_complex():
    a = np.asfortranarray(core.gaussian(1, 4, 3))
    assert core.as_fmatrix(a) is a
    with pytest.raises(ValueError, match="complex"):
        core.as_fmatrix(a + 1j)
    with pytest.raises(ValueError, match="complex"):
        core.as_fmatrix([[1, 2j]])


def test_as_fmatrix_rejects_non_2d():
    with pytest.raises(ValueError, match="2-d"):
        core.as_fmatrix(np.zeros(4))


def test_gaussian_reproducible():
    assert np.array_equal(core.gaussian(7, 20, 5), core.gaussian(7, 20, 5))
    assert not np.array_equal(core.gaussian(7, 20, 5), core.gaussian(8, 20, 5))


def test_gaussian_leading_columns_agree_across_widths():
    # widening the draw must not change the leading columns, or shared-seed
    # comparisons between algorithms with different sketch sizes fall apart
    wide = core.gaussian(3, 30, 12)
    narrow = core.gaussian(3, 30, 5)
    assert np.array_equal(wide[:, :5], narrow)


def test_gaussian_rejects_empty():
    with pytest.raises(ValueError):
        core.gaussian(0, 0, 3)
    with pytest.raises(ValueError):
        core.rademacher(0, 3, 0)


def test_rademacher_signs_layout_and_reproducible():
    x = core.rademacher(7, 203, 9)
    assert x.shape == (203, 9)
    assert x.dtype == np.float64
    assert x.flags.f_contiguous
    assert np.array_equal(np.abs(x), np.ones((203, 9)))
    assert 0.4 < np.mean(x > 0) < 0.6
    assert np.array_equal(x, core.rademacher(7, 203, 9))
    assert not np.array_equal(x, core.rademacher(8, 203, 9))


def test_rademacher_fills_columns_from_the_byte_stream():
    # entry (i, j) is bit j * m + i of the seeded generator's bytes: 1 -> +1
    m, n = 13, 5
    raw = np.random.default_rng(4).bytes(-(-m * n // 8))
    bits = [(byte >> (7 - b)) & 1 for byte in raw for b in range(8)]
    want = np.array([[2.0 * bits[j * m + i] - 1.0 for j in range(n)] for i in range(m)])
    assert np.array_equal(core.rademacher(4, m, n), want)


@pytest.mark.parametrize("width", [1, 7, 40])
def test_rademacher_leading_columns_agree_across_widths(width):
    # m = 1001 is not a multiple of 8, so columns start mid-byte
    wide = core.rademacher(3, 1001, 41)
    assert np.array_equal(core.rademacher(3, 1001, width), wide[:, :width])


def test_fro_norm_diag():
    assert core.fro_norm(np.diag([3.0, 4.0])) == 5.0


def test_rel_fro_error_diag():
    a = np.diag([10.0, 1.0])
    ak = np.diag([10.0, 0.0])
    expected = 1.0 / np.sqrt(101.0)
    assert core.rel_fro_error(a, ak) == pytest.approx(expected, rel=1e-15)
    assert core.rel_fro_error(a, a) == 0.0


def test_rel_fro_error_rejects_zero_and_mismatch():
    with pytest.raises(ValueError, match="zero matrix"):
        core.rel_fro_error(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        core.rel_fro_error(np.zeros((2, 2)), np.zeros((2, 3)))


def test_check_perm_accepts_valid():
    p = core.check_perm([2, 0, 1], 3)
    assert p.dtype == np.int64


@pytest.mark.parametrize("bad", [[0, 0, 1], [0, 1, 3], [0, 1]])
def test_check_perm_rejects_invalid(bad):
    with pytest.raises(ValueError):
        core.check_perm(bad, 3)


def test_invert_perm_round_trip():
    rng = np.random.default_rng(0)
    p = rng.permutation(17)
    inv = core.invert_perm(p)
    assert np.array_equal(p[inv], np.arange(17))
    assert np.array_equal(inv[p], np.arange(17))


def test_row_perm_round_trip():
    rng = np.random.default_rng(1)
    a = core.gaussian_from(rng, 9, 4)
    p = rng.permutation(9)
    assert np.array_equal(core.apply_inv_row_perm(p, core.apply_row_perm(p, a)), a)
    assert np.array_equal(core.apply_row_perm(p, core.apply_inv_row_perm(p, a)), a)


def test_apply_inv_row_perm_places_rows():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    p = np.array([2, 0, 1])
    out = core.apply_inv_row_perm(p, a)
    # out[p[i], :] = a[i, :]
    assert np.array_equal(out, np.array([[2.0, 2.0], [3.0, 3.0], [1.0, 1.0]]))


def test_apply_col_perm():
    a = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(core.apply_col_perm(a, [2, 1, 0]), np.array([[3.0, 2.0, 1.0]]))
