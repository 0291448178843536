import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from rlra import accessors, backend, core, fixedprec, fixedrank, kernels, matgen, rangefinder, singlepass
from rlra.accessors import DenseAccessor, InstrumentedAccessor, SparseAccessor
from rlra.errors import NonFiniteInput
from projection_identities import duplicated_rows, range_agreement


def exact_rank_matrix(m, n, r, seed, best=2.0, worst=1.0):
    sig = np.concatenate([np.linspace(best, worst, r), np.zeros(min(m, n) - r)])
    a, _ = matgen.gen_decay("custom", m, n, seed=seed, sigma=sig)
    return a


def lu_structure_ok(f):
    return (
        np.count_nonzero(np.triu(f.L, 1)) == 0
        and np.count_nonzero(np.tril(f.U, -1)) == 0
    )


def test_randsvd_shapes_and_truncation():
    a = core.gaussian(0, 40, 30)
    f = fixedrank.randsvd(a, 5, q_os=3, p=1, seed=1)
    assert f.U.shape == (40, 8) and f.S.shape == (8,) and f.V.shape == (30, 8)
    ft = fixedrank.randsvd(a, 5, q_os=3, p=1, seed=1, truncate=True)
    assert ft.U.shape == (40, 5) and ft.V.shape == (30, 5)
    assert np.array_equal(ft.S, f.S[:5])
    assert np.allclose(ft.U, f.U[:, :5], rtol=0, atol=1e-14)
    assert np.allclose(ft.V, f.V[:, :5], rtol=0, atol=1e-14)
    assert np.all(np.diff(f.S) <= 0)
    assert np.allclose(f.U.T @ f.U, np.eye(8), atol=1e-12)


def test_randsvd_recovers_exact_rank():
    a = exact_rank_matrix(50, 35, 8, seed=4)
    f = fixedrank.randsvd(a, 8, q_os=4, p=1, seed=0, truncate=True)
    assert core.rel_fro_error(a, (f.U * f.S) @ f.V.T) < 1e-12
    assert np.allclose(f.S, np.linspace(2.0, 1.0, 8), rtol=1e-10)


def test_randlu_recovers_exact_rank():
    a = exact_rank_matrix(50, 35, 8, seed=5)
    f = fixedrank.randlu(a, 8, q_os=4, p=1, seed=0)
    assert core.rel_fro_error(a, fixedrank.reconstruct(f)) < 1e-12
    assert f.rank == 8
    assert lu_structure_ok(f)
    core.check_perm(f.p, 50)
    core.check_perm(f.q, 35)


def test_powerlu_recovers_exact_rank_all_parities():
    a = exact_rank_matrix(50, 35, 8, seed=6)
    for v in (2, 3, 4, 5):
        f = fixedrank.powerlu(a, 8, q_os=4, v=v, seed=0)
        assert core.rel_fro_error(a, fixedrank.reconstruct(f)) < 1e-12
        assert lu_structure_ok(f)


def test_powerlu_tracks_optimum_on_decay():
    a, sigma = matgen.gen_decay("fast", 200, 200, seed=7)
    opt = matgen.oracle_error(sigma, 30)[0] / core.fro_norm(sigma)
    errs = []
    for seed in range(5):
        f = fixedrank.powerlu(a, 30, q_os=10, v=4, seed=seed)
        errs.append(core.rel_fro_error(a, fixedrank.reconstruct(f)))
    assert np.mean(errs) <= 2.0 * opt


def test_reconstruct_places_entries_by_permutation():
    a = exact_rank_matrix(20, 15, 6, seed=8)
    f = fixedrank.powerlu(a, 6, q_os=3, v=3, seed=2)
    r = fixedrank.reconstruct(f)
    assert np.array_equal(r[np.ix_(f.p, f.q)], f.L @ f.U)


@pytest.mark.parametrize("order", ["C", "F"])
def test_assemblies_leave_their_inputs_unchanged(order):
    # the public assembly copies what it factors; only the arrays it makes
    # itself are factored in their own buffers
    rng = np.random.default_rng(4)
    a = core.gaussian_from(rng, 30, 25)
    vk = np.asarray(np.linalg.qr(core.gaussian_from(rng, 25, 6))[0], order=order)
    g = np.asarray(a @ vk, order=order)
    inputs = (vk, g)
    before = [x.copy() for x in inputs]
    fixedrank.lu_from_projection(g, vk)
    assert all(np.array_equal(x, c) and x.flags[order + "_CONTIGUOUS"] for x, c in zip(inputs, before))


def test_lu_from_projection_matches_projected_matrix():
    # the assembly is exact: L U must equal (A V V^T)[p, :][:, q] to roundoff
    rng = np.random.default_rng(9)
    a = core.gaussian_from(rng, 30, 25)
    vk, _ = np.linalg.qr(core.gaussian_from(rng, 25, 6))
    f = fixedrank.lu_from_projection(a @ vk, vk)
    projected = (a @ vk) @ vk.T
    assert np.allclose(
        f.L @ f.U, projected[f.p, :][:, f.q], atol=1e-13 * core.fro_norm(a)
    )
    assert lu_structure_ok(f)


def test_pass_budgets_exact():
    a = core.gaussian(10, 60, 45)
    for v in (2, 3, 4, 5):
        acc = InstrumentedAccessor(a)
        fixedrank.powerlu(acc, 8, q_os=4, v=v, seed=0)
        assert acc.product_count == v
    for p in (0, 1, 2):
        for fn in (fixedrank.randlu, fixedrank.randlu_noreorth, fixedrank.randsvd):
            acc = InstrumentedAccessor(a)
            fn(acc, 8, 4, p, 0)
            assert acc.product_count == 2 * p + 2


def test_noreorth_equals_randlu_at_p0():
    # with no interior renormalization steps the two are the same algorithm
    a = core.gaussian(11, 40, 30)
    f1 = fixedrank.randlu(a, 6, q_os=4, p=0, seed=3)
    f2 = fixedrank.randlu_noreorth(a, 6, q_os=4, p=0, seed=3)
    assert np.array_equal(f1.L, f2.L)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.p, f2.p)
    assert np.array_equal(f1.q, f2.q)


def test_reorthogonalization_beats_raw_chain():
    a, _ = matgen.gen_decay("slow", 300, 300, seed=12)
    re, raw = [], []
    for seed in range(10):
        f = fixedrank.randlu(a, 80, q_os=10, p=2, seed=seed)
        re.append(core.rel_fro_error(a, fixedrank.reconstruct(f)))
        f = fixedrank.randlu_noreorth(a, 80, q_os=10, p=2, seed=seed)
        raw.append(core.rel_fro_error(a, fixedrank.reconstruct(f)))
    assert np.mean(re) <= np.mean(raw)


def test_shared_seed_ranges_agree_odd_pairing():
    # k = l on a full-rank matrix: the sketches before truncation span the
    # same subspace, so the factor ranges must coincide to roundoff
    sig = np.linspace(2.0, 1.0, 80)
    a, _ = matgen.gen_decay("custom", 100, 80, seed=13, sigma=sig)
    for seed in range(5):
        f1 = fixedrank.randlu(a, 15, q_os=0, p=1, seed=seed)
        f2 = fixedrank.powerlu(a, 15, q_os=0, v=3, seed=seed)
        assert range_agreement(f1, f2) < 1e-8


def test_range_agreement_extremes():
    ident = np.eye(10)
    perm = np.arange(10)

    def as_lu(cols):
        return fixedrank.LowRankLU(
            p=perm, q=np.arange(2), L=ident[:, cols], U=np.zeros((2, 2)), rank=2
        )

    same = range_agreement(as_lu([0, 1]), as_lu([0, 1]))
    assert same < 1e-12
    orth = range_agreement(as_lu([0, 1]), as_lu([2, 3]))
    assert orth == pytest.approx(np.pi / 2, rel=1e-12)


def test_range_agreement_rejects_mismatch():
    f = fixedrank.powerlu(core.gaussian(14, 20, 15), 4, q_os=2, v=3, seed=0)
    g = fixedrank.powerlu(core.gaussian(15, 20, 15), 5, q_os=2, v=3, seed=0)
    with pytest.raises(ValueError, match="rank"):
        range_agreement(f, g)
    h = fixedrank.powerlu(core.gaussian(16, 25, 15), 4, q_os=2, v=3, seed=0)
    with pytest.raises(ValueError, match="row dim"):
        range_agreement(f, h)


def _svd_product(f):
    return (f.U * f.S) @ f.V.T


# (driver, reconstruction) pairs for every fixed-rank driver
FIXED_RANK = [
    pytest.param(lambda a, k: fixedrank.powerlu(a, k, v=4, seed=0), fixedrank.reconstruct,
                 id="powerlu"),
    pytest.param(lambda a, k: fixedrank.randlu(a, k, p=1, seed=0), fixedrank.reconstruct,
                 id="randlu"),
    pytest.param(lambda a, k: fixedrank.randsvd(a, k, p=1, seed=0, truncate=True),
                 _svd_product, id="randsvd"),
    pytest.param(lambda a, k: singlepass.single_pass_lu(singlepass.DenseColumnStream(a), k, seed=0),
                 fixedrank.reconstruct, id="single_pass"),
]


@pytest.mark.parametrize("driver,product", FIXED_RANK)
@pytest.mark.parametrize("r", [3, 7, 20])
def test_exact_rank_from_the_factors(driver, product, r):
    # at k >= r every sketch is at least as wide as rank r and the factors
    # are exact to rounding; at k = r - 1 they are still returned, finite
    a = duplicated_rows(120, 90, r, seed=6)
    for k in (r, r + 2):
        assert core.rel_fro_error(a, product(driver(a, k))) <= 1e-13
    assert np.isfinite(product(driver(a, r - 1))).all()


@pytest.mark.parametrize("driver,product", FIXED_RANK + [
    pytest.param(lambda a, k: fixedrank.randlu_noreorth(a, k, p=1, seed=0),
                 fixedrank.reconstruct, id="randlu_noreorth"),
])
def test_zero_matrix_gives_zero_factors(driver, product):
    f = product(driver(np.zeros((30, 20)), 5))
    assert f.shape == (30, 20) and np.isfinite(f).all() and not f.any()


def test_validation_errors():
    a = core.gaussian(18, 20, 10)
    with pytest.raises(ValueError):
        fixedrank.powerlu(a, 0, q_os=2, v=3, seed=0)
    with pytest.raises(ValueError):
        fixedrank.powerlu(a, 8, q_os=5, v=3, seed=0)  # width 13 > 10
    with pytest.raises(ValueError):
        fixedrank.powerlu(a, 4, q_os=2, v=1, seed=0)
    with pytest.raises(ValueError):
        fixedrank.randlu(a, 4, q_os=-1, p=1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("driver", [
    pytest.param(lambda a: fixedrank.powerlu(a, 5, v=4), id="powerlu"),
    pytest.param(lambda a: fixedrank.randlu(a, 5), id="randlu"),
    pytest.param(lambda a: fixedrank.randsvd(sp.csc_matrix(a), 5), id="randsvd-sparse"),
    pytest.param(lambda a: fixedprec.powerlu_fp(
        a, fixedprec.PrecisionParams(eps=1e-3, b=5, l=15, v=4), 0), id="powerlu_fp"),
    pytest.param(lambda a: singlepass.single_pass_lu(
        singlepass.DenseColumnStream(a), 5, 0, panel=8), id="single_pass_lu"),
])
def test_non_finite_input_raises(driver, bad):
    a = core.gaussian(19, 40, 30)
    a[17, 11] = bad
    with pytest.raises(NonFiniteInput, match="NaN or infinite"):
        driver(a)


class WidthRecorder(InstrumentedAccessor):
    """Counts products and records the width of each one, and the last
    one's input."""

    def __init__(self, inner):
        super().__init__(inner)
        self.widths = []
        self.last = None

    def matmul(self, x):
        self.widths.append(x.shape[1])
        self.last = x.copy()
        return super().matmul(x)

    def rmatmul(self, x):
        self.widths.append(x.shape[1])
        self.last = x.copy()
        return super().rmatmul(x)


LU_DRIVERS = (
    [pytest.param(lambda a, k, q, v=v: fixedrank.powerlu(a, k, q, v=v, seed=3), v,
                  id=f"powerlu-v{v}") for v in (2, 3, 4, 5)]
    + [pytest.param(lambda a, k, q, fn=fn, p=p: fn(a, k, q, p=p, seed=3), 2 * p + 2,
                    id=f"{fn.__name__}-p{p}")
       for fn in (fixedrank.randlu, fixedrank.randlu_noreorth) for p in (0, 1, 2)]
)


@pytest.mark.parametrize("call,passes", LU_DRIVERS)
def test_lu_drivers_sketch_only_k_columns(call, passes):
    # every product is k wide whatever q_os, and oversampling leaves the
    # factors bitwise as they are without it
    a, _ = matgen.gen_decay("slow", 60, 50, seed=1)
    k = 8
    got = {}
    for q_os in (0, 10):
        acc = WidthRecorder(a)
        got[q_os] = call(acc, k, q_os)
        assert acc.widths == [k] * passes
    for name in ("p", "q", "L", "U"):
        assert np.array_equal(getattr(got[10], name), getattr(got[0], name))


@pytest.fixture
def qr_calls(monkeypatch):
    """How often kernels.eqr and kernels.pinv_factor are called."""
    counts = {"eqr": 0, "pinv_factor": 0}
    for name in counts:
        fn = getattr(kernels, name)

        def spy(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(kernels, name, spy)
    return counts


@pytest.mark.parametrize("call,qr", [
    pytest.param(lambda a, v=v: fixedrank.powerlu(a, 8, v=v, seed=1), 0, id=f"powerlu-v{v}")
    for v in (2, 3, 4, 5)
] + [
    pytest.param(lambda a, fn=fn, p=p: fn(a, 8, p=p, seed=1), 0, id=f"{fn.__name__}-p{p}")
    for fn in (fixedrank.randlu, fixedrank.randlu_noreorth) for p in (0, 1, 2)
] + [
    pytest.param(lambda a: fixedrank.randsvd(a, 8, p=1, seed=1), 2, id="randsvd"),
    pytest.param(lambda a: fixedprec.powerlu_fp(a, fixedprec.PrecisionParams(1e-2, 2, 20, 4), 1),
                 1, id="powerlu_fp"),
])
def test_lu_drivers_take_no_qr(qr_calls, call, qr):
    # the LU drivers solve against their own LU basis through one Gram;
    # randsvd and powerlu_fp still need orthonormal bases
    call(matgen.gen_decay("slow", 60, 50, seed=1)[0])
    assert qr_calls == {"eqr": qr, "pinv_factor": 0}


@pytest.mark.parametrize("kind", ["fast", "slow"])
@pytest.mark.parametrize("call,rows", [
    pytest.param(lambda a, v=v: fixedrank.powerlu(a, 12, v=v, seed=2), False, id=f"powerlu-v{v}")
    for v in (2, 3, 4, 5)
] + [
    pytest.param(lambda a, p=p: fixedrank.randlu(a, 12, p=p, seed=2), True, id=f"randlu-p{p}")
    for p in (0, 1, 2)
])
def test_lu_factors_are_a_projected_onto_the_basis(kind, call, rows):
    # the factors are exactly A projected onto span X, X the basis that the
    # last product multiplied: P_X A for randlu (its last product is
    # A^T X), A P_X for powerlu
    a, _ = matgen.gen_decay(kind, 90, 70, seed=4)
    acc = WidthRecorder(a)
    f = call(acc)
    q = np.linalg.qr(acc.last)[0]
    projected = q @ (q.T @ a) if rows else (a @ q) @ q.T
    assert core.fro_norm(fixedrank.reconstruct(f) - projected) <= 1e-13 * core.fro_norm(a)


@pytest.fixture
def draws(monkeypatch):
    """The (seed, m, n) of every core.gaussian and core.rademacher call."""
    log = {"gaussian": [], "rademacher": []}
    for name, calls in log.items():
        draw = getattr(core, name)
        monkeypatch.setattr(core, name, lambda s, m, n, d=draw, c=calls: c.append((s, m, n)) or d(s, m, n))
    return log


DRAWS = [
    pytest.param(lambda a: fixedrank.randsvd(a, 5, q_os=3, p=1, seed=2), (30, 8), id="randsvd"),
    pytest.param(lambda a: fixedrank.randlu(a, 5, p=1, seed=2), (30, 5), id="randlu"),
    pytest.param(lambda a: fixedrank.randlu_noreorth(a, 5, p=1, seed=2), (30, 5),
                 id="randlu_noreorth"),
    pytest.param(lambda a: fixedrank.powerlu(a, 5, v=3, seed=2), (30, 5), id="powerlu-v3"),
    pytest.param(lambda a: fixedrank.powerlu(a, 5, v=4, seed=2), (40, 5), id="powerlu-v4"),
    pytest.param(lambda a: fixedprec.powerlu_fp(a, fixedprec.PrecisionParams(0.5, 1, 6, 3), 2),
                 (30, 6), id="powerlu_fp"),
]


@pytest.mark.parametrize("call,shape", DRAWS)
def test_multi_pass_drivers_draw_random_signs(draws, call, shape):
    call(matgen.gen_decay("slow", 40, 30, seed=1)[0])
    assert draws == {"gaussian": [], "rademacher": [(2, *shape)]}


def test_single_pass_draws_gaussian(draws):
    a, _ = matgen.gen_decay("slow", 40, 30, seed=1)
    singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 5, 2, q_os=2)
    assert draws == {"gaussian": [(2, 40, 7)], "rademacher": []}


class KeepingAccessor(DenseAccessor):
    """Keeps every product it hands out, beside a copy of it.  With
    read_only it hands out read-only views, as the accessor contract asks
    of an accessor that keeps its products; without, the products
    themselves, which the drivers may overwrite."""

    def __init__(self, a, read_only=True):
        super().__init__(a)
        self.read_only = read_only
        self.kept = []

    def _keep(self, y):
        self.kept.append((y, y.copy()))
        if not self.read_only:
            return y
        view = y.view()
        view.flags.writeable = False
        return view

    def matmul(self, x):
        return self._keep(super().matmul(x))

    def rmatmul(self, x):
        return self._keep(super().rmatmul(x))


def result_arrays(result):
    """Every field of a driver result, a tuple of results included."""
    if dataclasses.is_dataclass(result):
        return [np.asarray(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if hasattr(result, "_fields"):
        return [np.asarray(x) for x in result]
    return [x for part in result for x in result_arrays(part)]


KEEPING_CALLS = (
    [pytest.param(lambda a, v=v: fixedrank.powerlu(a, 6, v=v, seed=1), id=f"powerlu-v{v}")
     for v in (2, 3, 4, 5, 6)]
    + [pytest.param(lambda a, fn=fn, p=p: fn(a, 6, 3, p=p, seed=1), id=f"{fn.__name__}-p{p}")
       for fn in (fixedrank.randlu, fixedrank.randlu_noreorth, fixedrank.randsvd) for p in (0, 1, 2)]
    + [pytest.param(lambda a, v=v: fixedprec.adaptive_rank(a, fixedprec.PrecisionParams(1e-2, 2, 20, v), 1),
                    id=f"adaptive_rank-v{v}") for v in (2, 3, 4, 5, 6)]
    + [pytest.param(lambda a: fixedprec.powerlu_fp(a, fixedprec.PrecisionParams(1e-2, 2, 20, 4), 1),
                    id="powerlu_fp")]
)


@pytest.mark.parametrize("call", KEEPING_CALLS)
def test_read_only_products_are_read_not_written(call):
    # an accessor that keeps its products gets them back untouched, and the
    # factors are bitwise those from products the drivers may overwrite
    a, _ = matgen.gen_decay("slow", 60, 50, seed=1)
    acc = KeepingAccessor(a)
    got = call(acc)
    assert acc.kept and all(np.array_equal(y, c) for y, c in acc.kept)
    want = call(DenseAccessor(a))
    assert all(np.array_equal(x, w) for x, w in zip(result_arrays(got), result_arrays(want), strict=True))


@pytest.mark.parametrize("operand", ["dense", "sparse-bands"])
def test_powerlu_fp_leaves_the_outcomes_g(monkeypatch, operand):
    # powerlu_fp hands G to lu_from_projection, which copies it: the
    # outcome's G is still A @ V, bitwise adaptive_rank's
    monkeypatch.setattr(accessors, "BAND_ROWS", 16)
    a, _ = matgen.gen_decay("fast", 150, 100, seed=2)
    if operand == "dense":
        acc = DenseAccessor(a)
    else:
        a[np.abs(a) < 0.5 * np.abs(a).mean()] = 0.0
        acc = SparseAccessor(sp.csc_matrix(a))
    params = fixedprec.PrecisionParams(1e-2, 2, 100, 4)
    _, out = fixedprec.powerlu_fp(acc, params, seed=3)
    assert out.G.base is not None  # a view of the last product
    assert np.array_equal(out.G, fixedprec.adaptive_rank(acc, params, seed=3).G)
    assert np.allclose(out.G, a @ out.V, rtol=0, atol=1e-13 * core.fro_norm(a))


@pytest.mark.parametrize("v", [2, 3, 4, 5])
def test_products_are_factored_in_their_own_buffers(v):
    # powerlu's chain renormalizes each product but its last by LU in the
    # product's own F-ordered buffer; G = A X is read, into the array
    # G C^{-1} that is factored
    acc = KeepingAccessor(matgen.gen_decay("slow", 40, 30, seed=v)[0], read_only=False)
    fixedrank.powerlu(acc, 8, 0, v=v, seed=2)
    written = [not np.array_equal(y, c) for y, c in acc.kept]
    assert written == [True] * (v - 1) + [False]


class SwappedAccessor:
    """A^T through A's accessor: shape reversed, matmul and rmatmul swapped."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def shape(self):
        return self.inner.shape[::-1]

    def matmul(self, x):
        return self.inner.rmatmul(x)

    def rmatmul(self, x):
        return self.inner.matmul(x)


@pytest.mark.parametrize("operand", ["dense", "sparse-bands"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_powerlu_is_randlu_of_the_transpose(monkeypatch, operand, p):
    # the paper's relationship: powerlu at v = 2p + 2 projects A onto the
    # LU basis that randlu at exponent p builds for A^T, so its factors are
    # bitwise those of randlu on A^T, transposed
    monkeypatch.setattr(accessors, "BAND_ROWS", 16)
    a, _ = matgen.gen_decay("slow", 90, 70, seed=5)
    if operand == "dense":
        acc = DenseAccessor(a)
    else:
        a[np.abs(a) < 0.5 * np.abs(a).mean()] = 0.0
        acc = SparseAccessor(sp.csc_matrix(a))
    got = fixedrank.powerlu(acc, 8, v=2 * p + 2, seed=4)
    ft = fixedrank.randlu(SwappedAccessor(acc), 8, p=p, seed=4)
    assert np.array_equal(got.p, ft.q) and np.array_equal(got.q, ft.p)
    assert np.array_equal(got.L, ft.U.T) and np.array_equal(got.U, ft.L.T)


@pytest.mark.parametrize("call,lus", [
    pytest.param(lambda a, v=v: fixedrank.powerlu(a, 8, v=v, seed=1), v, id=f"powerlu-v{v}")
    for v in (2, 3, 4, 5)
] + [
    pytest.param(lambda a, p=p: fixedrank.randlu(a, 8, p=p, seed=1), 2 * p + 2, id=f"randlu-p{p}")
    for p in (0, 1, 2)
])
def test_lu_drivers_run_one_lu_per_pass(monkeypatch, call, lus):
    # one LU per interior renormalization, one of the basis-side product,
    # one of the column-pivoted step
    calls = []
    plu_inplace = backend.plu_inplace
    monkeypatch.setattr(backend, "plu_inplace", lambda lu, piv: calls.append(1) or plu_inplace(lu, piv))
    call(matgen.gen_decay("slow", 60, 50, seed=1)[0])
    assert len(calls) == lus
