import numpy as np
import pytest

from rlra import core, fixedprec, fixedrank, kernels, matgen, rangefinder
from rlra.accessors import InstrumentedAccessor, as_accessor
from rlra.errors import NotConverged, Unsatisfiable
from projection_identities import (
    OverstatedNorm,
    duplicated_rows,
    error_indicator_check,
    projection_decomposition_check,
    spec_norm,
)


def unit_cols(weights):
    """Columns with prescribed squared norms, for exact energy bookkeeping."""
    g = np.zeros((len(weights), len(weights)))
    for j, w in enumerate(weights):
        g[j, j] = np.sqrt(w)
    return g


def test_params_validation():
    good = fixedprec.PrecisionParams(eps=1e-3, b=5, l=20, v=4)
    assert good.l == 20
    fixedprec.PrecisionParams(eps=1.0, b=1, l=1, v=2)  # boundaries are legal
    # b does not constrain l: any positive width is legal
    assert fixedprec.PrecisionParams(1e-3, 6, 20, 4).l == 20
    assert fixedprec.PrecisionParams(1e-3, 25, 20, 4).l == 20
    for bad in (
        dict(eps=0.0, b=5, l=20, v=4),
        dict(eps=1.5, b=5, l=20, v=4),
        dict(eps=1e-3, b=0, l=20, v=4),
        dict(eps=1e-3, b=5, l=0, v=4),
        dict(eps=1e-3, b=5, l=20, v=1),
    ):
        with pytest.raises(ValueError):
            fixedprec.PrecisionParams(**bad)


def test_params_reject_eps_below_indicator_floor():
    assert fixedprec.EPS_FLOOR == np.sqrt(np.finfo(np.float64).eps)
    fixedprec.PrecisionParams(eps=fixedprec.EPS_FLOOR, b=5, l=20, v=4)
    with pytest.raises(ValueError, match="floor 1.49e-08"):
        fixedprec.PrecisionParams(eps=1e-9, b=5, l=20, v=4)


def test_powerlu_fp_converges_above_floor():
    # eps = 1e-9 on this matrix used to end in NotConverged at any width
    a, _ = matgen.gen_decay("fast", 600, 400, seed=0)
    params = fixedprec.PrecisionParams(eps=1e-6, b=10, l=300, v=4)
    fac, out = fixedprec.powerlu_fp(a, params, seed=0)
    assert out.converged
    assert core.rel_fro_error(a, fixedrank.reconstruct(fac)) <= params.eps


def test_default_width():
    assert fixedprec.default_width(10, 500, 1000) == 500
    assert fixedprec.default_width(7, 100, 50) == 50
    assert fixedprec.default_width(1, 2000, 2000) == 50
    assert fixedprec.default_width(50, 50, 50) == 50
    # a block wider than the matrix only caps the width, like any other b
    assert fixedprec.default_width(60, 50, 50) == 50
    assert fixedprec.default_width(10, 8, 200) == 8


def test_refine_rank_frozen():
    g = unit_cols([4.0, 3.0, 2.0, 1.0])
    # energy 10, target 3.5: two columns bring it to 3 (up to squaring noise)
    rank, e = fixedprec.refine_rank(g, 10.0, 3.5)
    assert rank == 2 and e == pytest.approx(3.0, abs=1e-13)
    # target below what the columns deliver: consume them all
    rank, e = fixedprec.refine_rank(g, 10.0, -1.0)
    assert rank == 4 and e == pytest.approx(0.0, abs=1e-13)


def test_refine_rank_offset_block():
    g = unit_cols([5.0, 3.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0])
    # energy 12, target 1.5: the zero columns 2..3 hold the energy at 4,
    # and the scan stops at column 5 with 1 left
    rank, e = fixedprec.refine_rank(g, 12.0, 1.5)
    assert rank == 6 and e == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_refine_rank_reads_any_layout_alike(seed):
    # the energies are summed in one order whatever G's layout, so C- and
    # F-ordered copies of one G (and a column slice of a C-ordered one) give
    # the same bits
    g = core.gaussian(seed, 3000, 41)
    total = 1.01 * float((g * g).sum())
    want = fixedprec.refine_rank(np.asfortranarray(g[:, :40]), total, 0.0)
    assert fixedprec.refine_rank(np.ascontiguousarray(g[:, :40]), total, 0.0) == want
    assert fixedprec.refine_rank(np.ascontiguousarray(g)[:, :40], total, 0.0) == want


def test_block_size_does_not_shape_the_search():
    a, _ = matgen.gen_decay("fast", 150, 120, seed=10)
    eps, l, v = 1e-3, 60, 4
    outs = [fixedprec.adaptive_rank(a, fixedprec.PrecisionParams(eps, b, l, v), seed=2)
            for b in (1, 3, 7, l)]
    assert outs[0].converged and 1 < outs[0].rank < l
    for out in outs[1:]:
        assert out.rank == outs[0].rank
        assert np.array_equal(out.V, outs[0].V)
        assert np.array_equal(out.G, outs[0].G)
        assert out.residual_energy == outs[0].residual_energy


def test_adaptive_rank_invariants():
    a, _ = matgen.gen_decay("fast", 150, 150, seed=1)
    params = fixedprec.PrecisionParams(eps=1e-3, b=5, l=60, v=4)
    out = fixedprec.adaptive_rank(a, params, seed=0)
    assert out.converged
    acc = params.eps**2 * core.fro_norm(a) ** 2

    v = out.V
    assert v.shape == (150, out.rank)
    assert np.allclose(v.T @ v, np.eye(out.rank), atol=1e-12)
    assert np.allclose(out.G, a @ v, atol=1e-12)

    # the tracked energy is the true residual of the projection
    direct = core.fro_norm(a - a @ v @ v.T) ** 2
    assert abs(out.residual_energy - direct) <= 1e-9 * core.fro_norm(a) ** 2
    assert direct <= acc * (1.0 + 1e-9)

    # minimality: one column fewer must violate the tolerance
    v1 = v[:, : out.rank - 1]
    short = core.fro_norm(a - a @ v1 @ v1.T) ** 2
    assert short > acc


def test_adaptive_rank_pass_budget():
    a, _ = matgen.gen_decay("fast", 150, 150, seed=2)
    for v in (2, 3, 4, 6):
        acc = InstrumentedAccessor(a)
        fixedprec.adaptive_rank(acc, fixedprec.PrecisionParams(1e-3, 5, 60, v), seed=0)
        assert acc.product_count == v


def test_adaptive_rank_eps_one_stops_immediately():
    a, _ = matgen.gen_decay("slow", 60, 60, seed=3)
    out = fixedprec.adaptive_rank(a, fixedprec.PrecisionParams(1.0, 5, 20, 4), seed=0)
    assert out.converged
    assert out.rank == 1


def test_adaptive_rank_not_converged_keeps_full_outcome():
    a, _ = matgen.gen_decay("slow", 120, 120, seed=4)
    params = fixedprec.PrecisionParams(eps=1e-6, b=10, l=20, v=4)
    out = fixedprec.adaptive_rank(a, params, seed=0)
    assert not out.converged
    assert out.rank == out.width == 20
    assert out.V.shape == (120, 20)
    assert out.residual_energy > params.eps**2 * core.fro_norm(a) ** 2


def test_error_indicator_identity_and_guard():
    rng = np.random.default_rng(5)
    a = core.gaussian_from(rng, 30, 25)
    v, _ = np.linalg.qr(core.gaussian_from(rng, 25, 6))
    lhs, rhs = error_indicator_check(a, v)
    assert abs(lhs - rhs) <= 1e-10 * core.fro_norm(a) ** 2
    with pytest.raises(ValueError, match="orthonormal"):
        error_indicator_check(a, core.gaussian_from(rng, 25, 6))


def test_spec_norm_matches_numpy():
    a = core.gaussian(11, 15, 10)
    assert spec_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_projection_decomposition_defect_small():
    rng = np.random.default_rng(6)
    a = core.gaussian_from(rng, 40, 40)
    q, _ = np.linalg.qr(core.gaussian_from(rng, 40, 20))
    blocks = [q[:, 4 * i : 4 * i + 4] for i in range(5)]
    assert projection_decomposition_check(a, blocks) < 1e-9


def test_powerlu_fp_meets_tolerance():
    a, _ = matgen.gen_decay("fast", 200, 160, seed=7)
    params = fixedprec.PrecisionParams(eps=1e-3, b=10, l=80, v=4)
    fac, out = fixedprec.powerlu_fp(a, params, seed=0)
    assert out.converged
    assert fac.rank == out.rank
    assert core.rel_fro_error(a, fixedrank.reconstruct(fac)) <= params.eps


def test_powerlu_fp_raises_with_partial_outcome():
    a, _ = matgen.gen_decay("slow", 120, 120, seed=8)
    params = fixedprec.PrecisionParams(eps=1e-6, b=10, l=20, v=4)
    with pytest.raises(NotConverged) as exc:
        fixedprec.powerlu_fp(a, params, seed=0)
    assert exc.value.outcome.rank == 20
    assert not exc.value.outcome.converged


def test_not_converged_message_names_the_width():
    out = fixedprec.AdaptiveOutcome(
        rank=12, V=np.zeros((30, 12)), G=np.zeros((40, 12)),
        residual_energy=0.25, converged=False, width=17)
    assert str(NotConverged(out)) == (
        "residual energy 2.500000e-01 above tolerance at full sketch width 17")


def record_attempts(monkeypatch, acc):
    """Spy on the driver's attempts: (l, seed, products spent) for each."""
    attempts = []
    attempt = fixedprec.powerlu_fp

    def spy(a, params, seed):
        before = acc.product_count
        try:
            return attempt(a, params, seed)
        finally:
            attempts.append((params.l, seed, acc.product_count - before))

    monkeypatch.setattr(fixedprec, "powerlu_fp", spy)
    return attempts


def test_restarting_widens_to_the_cap(monkeypatch):
    a, _ = matgen.gen_decay("slow", 120, 120, seed=9)
    acc = InstrumentedAccessor(a)
    attempts = record_attempts(monkeypatch, acc)
    params = fixedprec.PrecisionParams(eps=1e-6, b=10, l=20, v=4)
    fac, out = fixedprec.powerlu_fp_restarting(acc, params, seed=3)
    # l doubles from 20 until 2 * 80 is cut back to the cap min(m, n) = 120;
    # every attempt draws a fresh seed and spends exactly v passes
    assert attempts == [(20, 3, 4), (40, 4, 4), (80, 5, 4), (120, 6, 4)]
    assert acc.product_count == 16
    assert out.converged and fac.rank == out.rank
    assert core.rel_fro_error(a, fixedrank.reconstruct(fac)) <= params.eps


def test_restarting_converges_at_unfloored_cap(monkeypatch):
    # the width doubles 20 -> 40 -> 80, then stops at the cap min(m, n) =
    # 85, whatever the block size
    a, _ = matgen.gen_decay("slow", 85, 85, seed=5)
    acc = InstrumentedAccessor(a)
    attempts = record_attempts(monkeypatch, acc)
    params = fixedprec.PrecisionParams(eps=1e-5, b=10, l=20, v=4)
    fac, out = fixedprec.powerlu_fp_restarting(acc, params, seed=0)
    assert attempts == [(20, 0, 4), (40, 1, 4), (80, 2, 4), (85, 3, 4)]
    assert out.converged and out.rank == 85
    assert core.rel_fro_error(a, fixedrank.reconstruct(fac)) <= params.eps


def test_restarting_unsatisfiable_at_cap(monkeypatch):
    a, _ = matgen.gen_decay("slow", 85, 85, seed=5)
    acc = OverstatedNorm(a)
    attempts = record_attempts(monkeypatch, acc)
    params = fixedprec.PrecisionParams(eps=1e-5, b=10, l=20, v=4)
    with pytest.raises(Unsatisfiable, match="sketch width 85 already at cap 85"):
        fixedprec.powerlu_fp_restarting(acc, params, seed=0)
    assert attempts == [(20, 0, 4), (40, 1, 4), (80, 2, 4), (85, 3, 4)]


@pytest.mark.parametrize("r, b, l", [
    (3, 5, 20), (3, 10, 50), (7, 5, 20), (7, 10, 50), (20, 6, 90), (20, 25, 75),
])
def test_restarting_exact_rank_converges(monkeypatch, r, b, l):
    # exact rank r below l, whatever its relation to b: the energy scan
    # stops at r in the first attempt of v products
    a = duplicated_rows(120, 90, r, seed=6)
    acc = InstrumentedAccessor(a)
    attempts = record_attempts(monkeypatch, acc)
    params = fixedprec.PrecisionParams(eps=1e-6, b=b, l=l, v=4)
    fac, out = fixedprec.powerlu_fp_restarting(acc, params, seed=0)
    assert out.converged and out.rank == r
    assert r <= out.width <= l
    assert core.rel_fro_error(a, fixedrank.reconstruct(fac)) <= params.eps
    assert attempts == [(l, 0, 4)]


def test_restarting_zero_matrix_is_one_attempt(monkeypatch):
    acc = InstrumentedAccessor(np.zeros((30, 20)))
    attempts = record_attempts(monkeypatch, acc)
    params = fixedprec.PrecisionParams(eps=1e-5, b=10, l=20, v=4)
    fac, out = fixedprec.powerlu_fp_restarting(acc, params, seed=0)
    assert out.converged and out.residual_energy == 0.0
    product = fixedrank.reconstruct(fac)
    assert np.isfinite(product).all() and not product.any()
    assert attempts == [(20, 0, 4)]


def test_width_exceeding_matrix_rejected():
    a = core.gaussian(11, 30, 25)
    with pytest.raises(ValueError, match="width"):
        fixedprec.adaptive_rank(a, fixedprec.PrecisionParams(1e-2, 10, 30, 4), seed=0)


ALLOWANCE = np.finfo(np.float64).eps  # per column, times ||A||_F^2


def operand(kind, m, n, seed=0):
    """A dense decay matrix, or for kind "sparse" a sparse operand at
    density 0.02, with its squared Frobenius norm."""
    if kind == "sparse":
        a = matgen.gen_sparse(m, n, 0.02, seed).sparse
    else:
        a, _ = matgen.gen_decay(kind, m, n, seed)
    return a, as_accessor(a).fro_norm() ** 2


def prefix_residuals(a, basis, side):
    """||A - A V_j V_j^T||_F^2 (side "row", V = basis) or ||A - Q_j Q_j^T
    A||_F^2 (side "col", Q = basis) for every prefix j, each formed directly."""
    a = a.toarray() if hasattr(a, "toarray") else a
    out = []
    for j in range(1, basis.shape[1] + 1):
        b = basis[:, :j]
        r = a - (a @ b) @ b.T if side == "row" else a - b @ (b.T @ a)
        out.append(core.fro_norm(r) ** 2)
    return np.array(out)


def chain_products(a, l, v, seed, target=None):
    """Every product of row_chain that keep sees, in chain order, as (Y, X,
    side): side "row" for Y = A X, "col" for Y = A^T X, the side of
    prefix_residuals that gives Y's residual.  With a target, each is then
    cut by certified_width, as adaptive_rank cuts it; the last Y is the
    returned Z.  Y and X are stored as copies: the chain factors each
    product in its own buffer once keep has read it."""
    seen = []
    total = as_accessor(a).fro_norm() ** 2

    def keep(y, x):
        seen.append((y.copy(), x.copy()))
        return y.shape[1] if target is None else fixedprec.certified_width(y, x, total, target)

    z = rangefinder.row_chain(a, l, v, seed, keep=keep)
    # the last product is A^T X; the sides alternate before it
    sides = ["col" if (len(seen) - 1 - j) % 2 == 0 else "row" for j in range(len(seen))]
    return [(y, x, side) for (y, x), side in zip(seen, sides)], z


@pytest.mark.parametrize("kind, m, n", [
    ("fast", 120, 90), ("slow", 90, 120), ("sshaped", 120, 120), ("sparse", 150, 100),
])
@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_previous_pass_bounds_every_prefix(kind, m, n, v):
    # E_Y(i), the residual of the basis X that a product Y multiplied, never
    # grows (beyond the allowance) from one product to the next, on either
    # side, down to the last pass's V = qr(Z).Q, at every prefix i; and
    # certified_width is the first prefix where E_Y meets its target
    a, total = operand(kind, m, n, seed=v)
    l = 40
    slack = l * ALLOWANCE * total
    products, z = chain_products(a, l, v, seed=1)
    assert len(products) == max(v - 2, 1)
    bounds = [prefix_residuals(a, np.linalg.qr(x)[0], side) for _, x, side in products]
    bounds.append(prefix_residuals(a, kernels.eqr(z).Q, "row"))
    for before, after in zip(bounds, bounds[1:]):
        assert np.all(after <= before + slack)
    for (y, x, _), e in zip(products, bounds):
        for target in total * np.array([1e-1, 1e-2, 1e-4, 1e-8]) - slack:
            w = fixedprec.certified_width(y, x, total, target)
            if w < l or e[-1] <= target - slack:
                assert e[w - 1] <= target + slack
            assert w == 1 or e[w - 2] > target - slack
    # the cut chain: each product is as wide as the one before it certified
    # and still bounds the prefixes it keeps
    target = 1e-2 * total - slack
    products, z = chain_products(a, l, v, seed=1, target=target)
    widths = [y.shape[1] for y, _, _ in products] + [z.shape[1]]
    assert widths == sorted(widths, reverse=True)
    bounds = [prefix_residuals(a, np.linalg.qr(x)[0], side) for _, x, side in products]
    bounds.append(prefix_residuals(a, kernels.eqr(z).Q, "row"))
    for before, after in zip(bounds, bounds[1:]):
        assert np.all(after <= before[: after.size] + slack)


def test_certified_width_full_without_cholesky_or_target():
    a, total = operand("fast", 80, 60)
    z, x, _ = chain_products(a, 30, 4, seed=0)[0][-1]
    assert fixedprec.certified_width(z, x, total, 1e-2 * total) < 30
    # a singular X fails the Cholesky
    assert fixedprec.certified_width(z, np.zeros_like(x), total, 1e-2 * total) == 30
    # no positive target, no cut
    assert fixedprec.certified_width(z, x, total, 0.0) == 30
    assert fixedprec.certified_width(z, x, total, -total) == 30
    assert fixedprec.certified_width(z, x, 0.0, 0.0) == 30


def operand_product(a, basis):
    return as_accessor(a).matmul(basis)


GRID_EPS = (0.5, 1e-2, 1e-4, 1e-6, 1e-7, 1.01 * fixedprec.EPS_FLOOR)


def test_rank_and_converged_equal_the_full_width_scan():
    # adaptive_rank, every product cut to its certified width, gives the
    # rank and verdict of the reference scan (the uncut chain, the QR of
    # its whole last product, the whole G, then the column scan) on every
    # case of the grid
    operands = [operand(kind, m, n) for kind in matgen.DECAY_KINDS
                for m, n in ((300, 200), (600, 400), (200, 500))]
    operands += [operand("sparse", 600, 400, seed=1), operand("sparse", 300, 500, seed=2)]
    cases = narrowed = interior = 0
    for a, total in operands:
        for l in (20, 60, 150):
            for v in range(2, 7):
                for seed in range(3):
                    z = rangefinder.row_chain(a, l, v, seed)
                    g = operand_product(a, kernels.eqr(z).Q)
                    for eps in GRID_EPS:
                        acc = eps**2 * total
                        spy = WidthSpy(a)
                        out = fixedprec.adaptive_rank(spy, fixedprec.PrecisionParams(eps, 10, l, v), seed)
                        ref_rank, ref_e = fixedprec.refine_rank(g, total, acc)
                        assert (out.rank, out.converged) == (ref_rank, ref_e <= acc), (l, v, seed, eps)
                        assert spy.product_count == v
                        cases += 1
                        narrowed += out.width < l
                        # the input of the chain's last product is narrower
                        # than l only when an interior product was cut
                        interior += spy.widths[v - 2] < l
    assert cases == 2970
    # v = 2, eps^2 <= l u and the unconverged cases keep all l columns
    assert narrowed > cases // 6
    assert interior > 400


@pytest.mark.parametrize("eps", [1e-3, 1.01 * fixedprec.EPS_FLOOR])
def test_adaptive_rank_is_the_narrowed_scan(eps):
    # adaptive_rank is the chain with every product cut by certified_width
    # at target eps^2 ||A||_F^2 - l u ||A||_F^2, the QR of its last product
    # and the scan; at eps^2 <= l u it is the full-width chain bitwise
    a, total = operand("fast", 300, 200)
    params = fixedprec.PrecisionParams(eps, 10, 150, 4)
    out = fixedprec.adaptive_rank(a, params, seed=4)
    target = (eps**2 - 150 * ALLOWANCE) * total
    products, z = chain_products(a, 150, 4, seed=4, target=target)
    assert out.width == z.shape[1]
    basis = kernels.eqr(z).Q
    assert np.array_equal(out.V, basis[:, :out.rank])
    assert np.array_equal(out.G, operand_product(a, basis)[:, :out.rank])
    if eps**2 <= 150 * ALLOWANCE:
        full = rangefinder.row_chain(a, 150, 4, seed=4)
        assert out.width == 150 and np.array_equal(out.V, kernels.eqr(full).Q[:, :out.rank])
    else:
        # the third product already runs narrower than l
        assert products[1][0].shape[1] < 150


class WidthSpy(InstrumentedAccessor):
    """Counts products and records the width, and copies of the input and
    output, of each: the chain factors its products in their own buffers."""

    def __init__(self, inner):
        super().__init__(inner)
        self.widths = []
        self.products = []

    def _record(self, x, y):
        self.widths.append(x.shape[1])
        self.products.append((x.copy(), y.copy()))
        return y

    def matmul(self, x):
        return self._record(x, super().matmul(x))

    def rmatmul(self, x):
        return self._record(x, super().rmatmul(x))


@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eps, converges", [(1e-2, True), (1e-7, False)])
def test_last_pass_is_width_columns_wide(v, eps, converges):
    # the first product is l wide, and so is the second unless it is the
    # last pass; widths never grow, and each product's width is the
    # certificate of the product before it (the first product is cut only
    # when it is the chain's last, at v = 2)
    a, total = operand("slow", 150, 120, seed=11)
    acc = WidthSpy(a)
    out = fixedprec.adaptive_rank(acc, fixedprec.PrecisionParams(eps, 10, 40, v), seed=0)
    assert out.converged == converges
    assert acc.product_count == v == len(acc.widths)
    assert acc.widths[: min(2, v - 1)] == [40] * min(2, v - 1)
    assert acc.widths == sorted(acc.widths, reverse=True)
    assert acc.widths[-1] == out.width
    target = (eps**2 - 40 * ALLOWANCE) * total
    for j, (x, y) in enumerate(acc.products[: v - 1]):
        if j or v == 2:
            assert acc.widths[j + 1] == fixedprec.certified_width(y, x, total, target)
    assert out.rank <= out.width <= 40
    assert out.V.shape == (120, out.rank) and out.G.shape == (150, out.rank)
    # at v = 2, X is the random start, whose residual bounds nothing useful
    if converges and v > 2:
        assert out.width < 40
    if not converges:
        assert out.width == 40
