import re

import numpy as np
import pytest

from rlra import core, fixedprec, fixedrank, kernels, matgen, rangefinder, singlepass
from rlra.accessors import DenseAccessor, InstrumentedAccessor
from projection_identities import subspace_angle


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_basis_q_orthonormal_and_pass_count(p):
    acc = InstrumentedAccessor(core.gaussian(10 + p, 40, 25))
    q = rangefinder.power_basis_q(acc, 8, p, seed=0)
    assert q.shape == (40, 8)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-12)
    assert acc.product_count == 2 * p + 1


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_general_power_basis_v_orthonormal_and_pass_count(v):
    acc = InstrumentedAccessor(core.gaussian(20 + v, 40, 25))
    basis = rangefinder.general_power_basis_v(acc, 8, v, seed=0)
    assert basis.shape == (25, 8)
    assert np.allclose(basis.T @ basis, np.eye(8), atol=1e-12)
    assert acc.product_count == v - 1


def test_two_pass_basis_is_qr_of_transpose_sketch():
    acc = DenseAccessor(core.gaussian(31, 35, 28))
    basis = rangefinder.general_power_basis_v(acc, 6, 2, seed=9)
    om = core.rademacher(9, 35, 6)
    y = acc.rmatmul(om)
    assert np.array_equal(basis, kernels.eqr(y).Q)
    # the same basis as Householder QR, up to the sign of each column
    q, _ = np.linalg.qr(y)
    q *= np.sign(np.sum(q * basis, axis=0))
    assert np.abs(basis - q).max() <= 1e-13


def test_lu_sketch_p0_reproduces_sample_matrix():
    a = core.gaussian(40, 30, 20)
    acc = DenseAccessor(a)
    sk = rangefinder.power_basis_lu_l(acc, 7, 0, seed=1)
    om = core.rademacher(1, 20, 7)
    y = a @ om
    assert np.allclose(core.apply_inv_row_perm(sk.p, sk.L @ sk.U), y,
                       atol=1e-12 * core.fro_norm(y))


@pytest.mark.parametrize("p", [1, 2])
def test_lu_sketch_range_matches_raw_chain(p):
    # interior renormalizations change the matrix but must preserve the span
    sig = np.linspace(3.0, 1.0, 20)
    a, _ = matgen.gen_decay("custom", 30, 20, seed=2, sigma=sig)
    sk = rangefinder.power_basis_lu_l(a, 7, p, seed=5)
    om = core.rademacher(5, 20, 7)
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


def test_rank_deficient_q_basis_spans_the_range():
    # rank 3 under a width-5 sketch: five orthonormal columns whose span
    # holds range(A), to rounding
    a = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = rangefinder.power_basis_q(a, 5, 0, seed=0)
    assert v.shape == (8, 5)
    assert np.allclose(v.T @ v, np.eye(5), atol=1e-14)
    assert core.fro_norm(a - v @ (v.T @ a)) <= 1e-14 * core.fro_norm(a)


def test_rank_deficient_lu_sketch_spans_the_range():
    a = np.diag([2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    sk = rangefinder.power_basis_lu_l(a, 5, 1, seed=0)
    assert sk.L.shape == (8, 5) and np.abs(sk.L).max() <= 1.0
    q = kernels.eqr(core.apply_inv_row_perm(sk.p, sk.L)).Q
    assert core.fro_norm(a - q @ (q.T @ a)) <= 1e-14 * core.fro_norm(a)


def test_near_deficiency_passes_through():
    # tiny but nonzero trailing singular values must not trip the collapse
    # detector: the basis stays full width and usable
    sig = np.concatenate([np.ones(5), np.full(15, 1e-13)])
    a, _ = matgen.gen_decay("custom", 30, 20, seed=3, sigma=sig)
    q = rangefinder.power_basis_q(a, 10, 1, seed=0)
    assert q.shape == (30, 10)
    assert np.allclose(q.T @ q, np.eye(10), atol=1e-12)


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


# every entry point that draws a sketch, on a 30 x 25 source (an
# instrumented accessor, or a column stream) with a bad width: k + q_os,
# PrecisionParams.l or stream_sketch's k
ACC, STREAM = InstrumentedAccessor, singlepass.DenseColumnStream
BAD_WIDTH = [
    pytest.param(ACC, lambda a: fixedrank.randsvd(a, 20, q_os=6), 26, id="randsvd"),
    pytest.param(ACC, lambda a: fixedrank.randlu(a, 20, q_os=6), 26, id="randlu"),
    pytest.param(ACC, lambda a: fixedrank.randlu_noreorth(a, 20, q_os=6), 26,
                 id="randlu_noreorth"),
    pytest.param(ACC, lambda a: fixedrank.powerlu(a, 25, q_os=1, v=2), 26, id="powerlu"),
    pytest.param(ACC, lambda a: fixedprec.powerlu_fp(
        a, fixedprec.PrecisionParams(1e-2, 10, 30, 4), 0), 30, id="powerlu_fp"),
    pytest.param(STREAM, lambda s: singlepass.single_pass_lu(s, 20, 0, q_os=6), 26,
                 id="single_pass_lu"),
    pytest.param(STREAM, lambda s: singlepass.stream_sketch(s, 26, 0), 26,
                 id="stream_sketch-wide"),
    pytest.param(STREAM, lambda s: singlepass.stream_sketch(s, 0, 0), 0,
                 id="stream_sketch-zero"),
]


@pytest.mark.parametrize("wrap,call,width", BAD_WIDTH)
def test_bad_width_is_one_message_before_any_read(wrap, call, width):
    source = wrap(core.gaussian(7, 30, 25))
    message = f"sketch width {width} outside 1..min(30, 25)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(source)
    reads = source.columns_pulled if wrap is STREAM else source.product_count
    assert reads == 0


def test_mean_error_improves_with_pass_budget():
    # statistical: more passes may not help every draw, but the 20-seed mean
    # must be nonincreasing (slack 1.05) as the budget grows 2 -> 3 -> 4 -> 6
    a, _ = matgen.gen_decay("slow", 300, 300, seed=2)
    means = []
    for v in (2, 3, 4, 6):
        errs = []
        for seed in range(20):
            basis = rangefinder.general_power_basis_v(a, 30, v, seed)
            errs.append(core.fro_norm(a - a @ basis @ basis.T))
        means.append(np.mean(errs))
    for worse, better in zip(means, means[1:]):
        assert better <= 1.05 * worse



def _lu_l(x):
    # the interior renormalization is the row-unpermuted L of plu; the
    # chain goes on with the library's array, whose layout sets the next
    # product's rounding.  _lu_basis may factor its input in place, so it
    # gets a copy
    f = kernels.plu(x)
    basis = rangefinder._lu_basis(x.copy())
    assert np.array_equal(basis, core.apply_inv_row_perm(f.p, f.L))
    return basis


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
    x = core.rademacher(3, m if v % 2 == 0 else n, 8)
    for i in range(v - 1):
        if i:
            x = _lu_l(x)
        x = acc.rmatmul(x) if (i + v) % 2 == 0 else acc.matmul(x)
    assert np.array_equal(rangefinder.general_power_basis_v(acc, 8, v, seed=3), _q(x))


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_row_chain_cuts_after_lu_products_and_the_last(v):
    # keep runs after every product whose input is an LU basis, and after
    # the last: here it drops one column each time, and the next LU and
    # product run on what is left
    acc = _chain_input(v)
    m, n = acc.shape
    x = core.rademacher(3, m if v % 2 == 0 else n, 8)
    for i in range(v - 1):
        if i:
            x = _lu_l(x)
        y = acc.rmatmul(x) if (i + v) % 2 == 0 else acc.matmul(x)
        x = y[:, :-1] if i or i == v - 2 else y
    calls = []

    def keep(y, x):
        calls.append((y.shape[1], x.shape[1]))
        return y.shape[1] - 1

    z = rangefinder.row_chain(acc, 8, v, seed=3, keep=keep)
    assert np.array_equal(z, x)
    cut = [(8, 8)] if v == 2 else [(8 - j, 8 - j) for j in range(v - 2)]
    assert calls == cut
    # a keep that cuts nothing leaves the chain bitwise unchanged
    full = rangefinder.row_chain(acc, 8, v, seed=3, keep=lambda y, x: y.shape[1])
    plain = rangefinder.row_chain(acc, 8, v, seed=3)
    assert np.array_equal(full, plain)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_basis_chain_order(p):
    # one chain for both: A first, then A^T and A p times each, with the
    # row-unpermuted L between products; QR of its last product is the
    # column basis, pivoted LU of it the LU sketch
    acc = _chain_input(p)
    y = acc.matmul(core.rademacher(4, 30, 8))
    for _ in range(p):
        y = acc.matmul(_lu_l(acc.rmatmul(_lu_l(y))))
    assert np.array_equal(rangefinder.power_basis_q(acc, 8, p, seed=4), _q(y))
    sk = rangefinder.power_basis_lu_l(acc, 8, p, seed=4)
    f = kernels.plu(y)
    assert all(np.array_equal(got, want) for got, want in zip(sk, (f.L, f.U, f.p)))


@pytest.mark.parametrize("p", [0, 1, 2])
def test_column_basis_is_row_basis_of_the_transpose(p):
    # one chain seen from either side: the 2p + 1 products A, A^T, ... from
    # an n x l start are general_power_basis_v's chain on A^T at the even
    # budget 2p + 2, which starts with (A^T)^T = A from the same draw
    a, _ = matgen.gen_decay("slow", 40, 30, seed=6)
    q = rangefinder.power_basis_q(a, 8, p, seed=2)
    v = rangefinder.general_power_basis_v(a.T, 8, 2 * p + 2, seed=2)
    assert v.shape == q.shape == (40, 8)
    assert subspace_angle(q, v) <= 1e-12


@pytest.mark.parametrize("p", [0, 1, 2])
def test_randlu_noreorth_chain_order(p):
    # the raw k-wide chain A (A^T A)^p Omega with no renormalization, then
    # the same post-sketch assembly as randlu
    acc = _chain_input(p)
    y = core.rademacher(5, 30, 6)
    for _ in range(p):
        y = acc.rmatmul(acc.matmul(y))
    sk = kernels.plu(acc.matmul(y))
    want = fixedrank._assemble_from_sketch_lu(acc, sk)
    got = fixedrank.randlu_noreorth(acc, 6, 6, p, seed=5)
    for name in ("p", "q", "L", "U"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", ["slow", "fast", "sshaped"])
@pytest.mark.parametrize("k", [10, 30])
def test_renormalizations_are_column_prefix_maps(kind, k):
    # why the LU drivers sketch at width k: the first k columns of a
    # renormalized 40-wide sketch are the renormalized k-column prefix
    a, _ = matgen.gen_decay(kind, 400, 300, seed=1)
    y = a @ core.gaussian(1, 300, 40)

    def rel(x, y):
        return core.fro_norm(x - y) / core.fro_norm(y)

    # _lu_basis may factor its input in place: each call gets a copy
    assert rel(rangefinder._lu_basis(y.copy())[:, :k], rangefinder._lu_basis(y[:, :k].copy())) <= 1e-13
    assert rel(kernels.eqr(y).Q[:, :k], kernels.eqr(y[:, :k]).Q) <= 1e-13

