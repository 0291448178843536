import numpy as np
import pytest

from rlra import core, fixedrank, kernels, matgen, rangefinder
from rlra.accessors import DenseAccessor, InstrumentedAccessor
from rlra.errors import RankCollapse
from projection_identities import subspace_angle


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_basis_q_orthonormal_and_pass_count(p):
    acc = InstrumentedAccessor(core.gaussian(10 + p, 40, 25))
    basis = rangefinder.power_basis_q(acc, 8, p, seed=0)
    assert basis.V.shape == (40, 8)
    assert np.allclose(basis.V.T @ basis.V, np.eye(8), atol=1e-12)
    assert basis.passes_used == 2 * p + 1
    assert acc.product_count == 2 * p + 1


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_general_power_basis_v_orthonormal_and_pass_count(v):
    acc = InstrumentedAccessor(core.gaussian(20 + v, 40, 25))
    basis = rangefinder.general_power_basis_v(acc, 8, v, seed=0)
    assert basis.V.shape == (25, 8)
    assert np.allclose(basis.V.T @ basis.V, np.eye(8), atol=1e-12)
    assert basis.passes_used == v - 1
    assert acc.product_count == v - 1


def test_two_pass_basis_is_qr_of_transpose_sketch():
    acc = DenseAccessor(core.gaussian(31, 35, 28))
    basis = rangefinder.general_power_basis_v(acc, 6, 2, seed=9)
    om = core.gaussian(9, 35, 6)
    y = acc.rmatmul(om)
    assert np.array_equal(basis.V, kernels.eqr(y).Q)
    # the same basis as Householder QR, up to the sign of each column
    q, _ = np.linalg.qr(y)
    q *= np.sign(np.sum(q * basis.V, axis=0))
    assert np.abs(basis.V - q).max() <= 1e-13


def test_lu_sketch_p0_reproduces_sample_matrix():
    a = core.gaussian(40, 30, 20)
    acc = DenseAccessor(a)
    sk = rangefinder.power_basis_lu_l(acc, 7, 0, seed=1)
    om = core.gaussian(1, 20, 7)
    y = a @ om
    assert np.allclose(core.apply_inv_row_perm(sk.p, sk.L @ sk.U), y,
                       atol=1e-12 * core.fro_norm(y))


@pytest.mark.parametrize("p", [1, 2])
def test_lu_sketch_range_matches_raw_chain(p):
    # interior renormalizations change the matrix but must preserve the span
    sig = np.linspace(3.0, 1.0, 20)
    a, _ = matgen.gen_decay("custom", 30, 20, seed=2, sigma=sig)
    sk = rangefinder.power_basis_lu_l(a, 7, p, seed=5)
    om = core.gaussian(5, 20, 7)
    chain = om
    for _ in range(p):
        chain = a.T @ (a @ chain)
    raw = a @ chain
    assert subspace_angle(core.apply_inv_row_perm(sk.p, sk.L), raw) < 1e-8


def test_lu_sketch_pass_count():
    for p in (0, 1, 2):
        acc = InstrumentedAccessor(core.gaussian(50, 30, 20))
        rangefinder.power_basis_lu_l(acc, 6, p, seed=0)
        assert acc.product_count == 2 * p + 1


def test_rank_collapse_reports_achieved_width():
    a = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(RankCollapse) as exc:
        rangefinder.power_basis_q(a, 5, 0, seed=0)
    assert exc.value.achieved == 3
    assert exc.value.requested == 5


def test_rank_collapse_in_lu_path():
    a = np.diag([2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(RankCollapse):
        rangefinder.power_basis_lu_l(a, 5, 1, seed=0)


def test_near_deficiency_passes_through():
    # tiny but nonzero trailing singular values must not trip the collapse
    # detector: the basis stays full width and usable
    sig = np.concatenate([np.ones(5), np.full(15, 1e-13)])
    a, _ = matgen.gen_decay("custom", 30, 20, seed=3, sigma=sig)
    basis = rangefinder.power_basis_q(a, 10, 1, seed=0)
    assert basis.V.shape == (30, 10)
    assert np.allclose(basis.V.T @ basis.V, np.eye(10), atol=1e-12)


def test_width_validation():
    a = core.gaussian(6, 10, 8)
    with pytest.raises(ValueError):
        rangefinder.power_basis_q(a, 9, 0, seed=0)
    with pytest.raises(ValueError):
        rangefinder.power_basis_q(a, 0, 0, seed=0)
    with pytest.raises(ValueError):
        rangefinder.power_basis_q(a, 4, -1, seed=0)
    with pytest.raises(ValueError):
        rangefinder.general_power_basis_v(a, 4, 1, seed=0)


def test_mean_error_improves_with_pass_budget():
    # statistical: more passes may not help every draw, but the 20-seed mean
    # must be nonincreasing (slack 1.05) as the budget grows 2 -> 3 -> 4 -> 6
    a, _ = matgen.gen_decay("slow", 300, 300, seed=2)
    means = []
    for v in (2, 3, 4, 6):
        errs = []
        for seed in range(20):
            basis = rangefinder.general_power_basis_v(a, 30, v, seed)
            errs.append(core.fro_norm(a - a @ basis.V @ basis.V.T))
        means.append(np.mean(errs))
    for worse, better in zip(means, means[1:]):
        assert better <= 1.05 * worse



def _lu_l(x):
    f = kernels.plu(x)
    return core.apply_inv_row_perm(f.p, f.L)


def _q(x):
    return kernels.eqr(x).Q


def _chain_input(seed):
    a, _ = matgen.gen_decay("slow", 40, 30, seed=seed)
    return DenseAccessor(a)


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_general_power_basis_v_chain_order(v):
    # even v: A^T first from an m x l draw; odd v: A first from n x l; LU
    # between the v - 1 products, QR of the last
    acc = _chain_input(v)
    m, n = acc.shape
    x = core.gaussian(3, m if v % 2 == 0 else n, 8)
    for i in range(v - 1):
        if i:
            x = _lu_l(x)
        x = acc.rmatmul(x) if (i + v) % 2 == 0 else acc.matmul(x)
    assert np.array_equal(rangefinder.general_power_basis_v(acc, 8, v, seed=3).V, _q(x))


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_basis_chain_order(p):
    # A first, then A^T and A p times each: QR between products for the
    # column basis, row-unpermuted L for the LU sketch
    acc = _chain_input(p)
    om = core.gaussian(4, 30, 8)
    yq = ylu = acc.matmul(om)
    for _ in range(p):
        yq = acc.matmul(_q(acc.rmatmul(_q(yq))))
        ylu = acc.matmul(_lu_l(acc.rmatmul(_lu_l(ylu))))
    assert np.array_equal(rangefinder.power_basis_q(acc, 8, p, seed=4).V, _q(yq))
    sk = rangefinder.power_basis_lu_l(acc, 8, p, seed=4)
    f = kernels.plu(ylu)
    assert all(np.array_equal(x, y) for x, y in zip(sk, (f.L, f.U, f.p)))


@pytest.mark.parametrize("p", [0, 1, 2])
def test_randlu_noreorth_chain_order(p):
    # the raw chain A (A^T A)^p Omega with no renormalization, then the
    # same post-sketch assembly as randlu
    acc = _chain_input(p)
    y = core.gaussian(5, 30, 12)
    for _ in range(p):
        y = acc.rmatmul(acc.matmul(y))
    sk = rangefinder._final_sketch_lu(acc.matmul(y))
    want = fixedrank._assemble_from_sketch_lu(acc, sk, 6)
    got = fixedrank.randlu_noreorth(acc, 6, 6, p, seed=5)
    for name in ("p", "q", "L", "U"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
