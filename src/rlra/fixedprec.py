"""Fixed-precision driver: blocked adaptive rank determination and the
LU factorization built on it.

The residual energy E = ||A||_F^2 - sum_j ||A v_j||_F^2 is tracked by
subtraction only; A is never updated or copied, and the whole search costs
exactly v passes.  Once the stopping block is found, the rank is refined
column by column inside it.  powerlu_fp_restarting reruns the search with a
wider or narrower sketch until it converges.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import core, fixedrank, rangefinder
from .accessors import as_accessor
from .errors import NotConverged, RankCollapse, Unsatisfiable


@dataclass
class AdaptiveOutcome:
    rank: int
    V: np.ndarray  # n x rank, orthonormal
    G: np.ndarray  # m x rank, G = A @ V
    residual_energy: float  # final E, clamped at 0
    converged: bool


# smallest resolvable tolerance: E is a difference of energies of size
# ||A||_F^2, so it carries an error of about u ||A||_F^2 (u the unit roundoff),
# and eps^2 ||A||_F^2 must stay above that
EPS_FLOOR = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class PrecisionParams:
    """Tolerance eps in [EPS_FLOOR, 1], block size b, sketch width l (a
    multiple of b), passes v."""

    eps: float
    b: int
    l: int
    v: int

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps={self.eps} outside (0, 1]")
        if self.eps < EPS_FLOOR:
            raise ValueError(
                f"eps={self.eps} below the residual indicator's floor "
                f"{EPS_FLOOR:.3g} (sqrt of float64 machine epsilon)"
            )
        if self.b < 1:
            raise ValueError("block size must be >= 1")
        if self.l < self.b or self.l % self.b:
            raise ValueError(f"sketch width {self.l} is not a positive multiple of {self.b}")
        if self.v < 2:
            raise ValueError("pass budget v must be >= 2")


def default_width(b, m, n):
    """Default sketch width: 50 blocks, floored to a multiple of b within min(m, n)."""
    w = min(50 * b, min(m, n))
    w -= w % b
    if w < b:
        raise ValueError(f"block size {b} exceeds min{(m, n)}")
    return w


def adaptive_rank(a, params, seed):
    """Find the rank where the projection residual drops below eps * ||A||_F.

    Builds the basis with v - 1 passes, spends one pass on G = A V, then
    scans G block by block, decrementing E by each block's squared norm.
    The first block that sends E to or below eps^2 ||A||_F^2 is refined per
    column.  Never converging within width l returns the full outcome with
    converged=False.
    """
    a = as_accessor(a)
    m, n = a.shape
    if params.l > min(m, n):
        raise ValueError(f"sketch width {params.l} exceeds min{(m, n)}")
    basis = rangefinder.general_power_basis_v(a, params.l, params.v, seed)
    g = a.matmul(basis.V)
    total = a.fro_norm() ** 2
    acc = params.eps**2 * total
    e = total
    for t1 in range(0, params.l, params.b):
        block = g[:, t1 : t1 + params.b]
        e_before = e
        e -= core.fro_norm(block) ** 2
        if e <= acc:
            rank, e_out = refine_rank(g, e_before, acc, t1, params.b)
            return AdaptiveOutcome(
                rank=rank,
                V=basis.V[:, :rank],
                G=g[:, :rank],
                residual_energy=max(e_out, 0.0),
                converged=True,
            )
    return AdaptiveOutcome(
        rank=params.l,
        V=basis.V,
        G=g,
        residual_energy=max(e, 0.0),
        converged=False,
    )


def refine_rank(g, e_in, acc, block_start, b):
    """Per-column refinement inside the stopping block.

    e_in is the energy before the block; columns are consumed starting at
    0-based index block_start until the running energy reaches acc.  Returns
    (rank, energy) where rank counts all columns through the last consumed.
    """
    e = e_in
    for j in range(b):
        col = g[:, block_start + j]
        e -= float(col @ col)
        if e <= acc:
            return block_start + j + 1, e
    return block_start + b, e


def powerlu_fp(a, params, seed):
    """Fixed-precision LU: adaptive rank search, then the exact LU assembly.

    Returns (LowRankLU, AdaptiveOutcome).  When the search converges, the
    factorization error equals the basis residual, so the relative error is
    at most eps.  Raises NotConverged (carrying the partial outcome) when
    width l is not enough.
    """
    out = adaptive_rank(a, params, seed)
    if not out.converged:
        raise NotConverged(out)
    return fixedrank.lu_from_projection(out.G, out.V), out


def powerlu_fp_restarting(a, params, seed):
    """powerlu_fp, rerun until it converges: widen on NotConverged, narrow
    on RankCollapse.

    Not converged: l doubles, capped at min(m, n) floored to a multiple of
    b; Unsatisfiable once l is at the cap.  Sketch collapse (A has rank
    below l): l narrows to the achieved width floored to b (at least b),
    which also becomes the cap, since wider sketches would collapse again;
    the collapse is re-raised when that does not shrink l.  Rerun i draws
    with seed + i, a fresh basis rather than a grown one.  Every attempt
    spends up to v passes.  Returns (LowRankLU, AdaptiveOutcome).
    """
    a = as_accessor(a)
    cap = min(a.shape)
    cap -= cap % params.b
    while True:
        try:
            return powerlu_fp(a, params, seed)
        except NotConverged:
            if params.l >= cap:
                raise Unsatisfiable(
                    f"sketch width {params.l} already at cap {cap} without converging"
                )
            params = replace(params, l=min(2 * params.l, cap))
        except RankCollapse as exc:
            cap = max(params.b, exc.achieved - exc.achieved % params.b)
            if cap >= params.l:
                raise
            params = replace(params, l=cap)
        seed += 1
