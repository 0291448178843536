import numpy as np
import pytest

from rlra import core, fixedprec, fixedrank, matgen
from rlra.accessors import InstrumentedAccessor
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
    assert out.rank == 20
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
