"""Fixed-precision driver: adaptive rank determination and the LU
factorization built on it.

The residual energy E = ||A||_F^2 - sum_j ||A v_j||_F^2 is tracked by
subtraction only; A is never updated or copied, and the whole search costs
exactly v passes.  G = A V is formed in one pass, so the rank comes from
one scan over its column energies.  The block size b of the paper's
blocked search only sets the default sketch width (default_width, 50
blocks): the scan returns the same rank, V and G for every b.
powerlu_fp_restarting reruns the search with a wider sketch until it
converges.

Every pass from the third on, and the last, is only as wide as the
product before it shows it must be.  Let Y = A^T X be a chain product of
an m x w basis X = Q R (R = chol(X^T X)).  Then Y R^{-1} = A^T Q, so for
every column prefix i, E_Y(i) = ||A||_F^2 - ||(Y R^{-1})[:, :i]||_F^2 =
||A - Q_i Q_i^T A||_F^2.  E_Y(i) bounds the residual of the same prefix
of whatever the chain makes of Y.  The next basis X' = lu(Y).L keeps
column prefixes, so span X'_i = span Y_i = span(A^T Q_i): Q_i Q_i^T A has
its rows in span X'_i, and A P_i (P_i the projector onto span X'_i) is
the nearest such matrix to A, so E_{Y'}(i) = ||A - A P_i||_F^2 <= E_Y(i)
for the next product Y' = A X'.  The same holds with A and A^T swapped,
and for the last pass's V = qr(Z).Q in place of X'.  So the bound never
grows from one product to the next at any prefix, and the chain may cut
each product to the columns up to the first i where E_Y(i) reaches the
tolerance (certified_width): the scan over G = A V returns the rank and
verdict of the full-width chain's.  The first product multiplies the
random start, whose residual bounds little, so it is cut only when it is
the last (v = 2).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import fixedrank, kernels, rangefinder
from .accessors import as_accessor
from .errors import NotConverged, Unsatisfiable


@dataclass
class AdaptiveOutcome:
    rank: int
    V: np.ndarray  # n x rank, orthonormal
    G: np.ndarray  # m x rank, G = A @ V
    residual_energy: float  # final E, clamped at 0
    converged: bool
    width: int  # columns of the last pass, rank <= width <= l


# smallest resolvable tolerance: E is a difference of energies of size
# ||A||_F^2, so it carries an error of about u ||A||_F^2 (u the unit roundoff),
# and eps^2 ||A||_F^2 must stay above that
EPS_FLOOR = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class PrecisionParams:
    """Tolerance eps in [EPS_FLOOR, 1], block size b, sketch width l,
    passes v.

    b does not shape the search.  It is the unit of default_width's l (50
    blocks), and stays a field so that params built positionally keep
    their meaning.
    """

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
        if self.l < 1:
            raise ValueError(f"sketch width {self.l} is not positive")
        if self.v < 2:
            raise ValueError("pass budget v must be >= 2")


def default_width(b, m, n):
    """Default sketch width: 50 blocks of b, at most min(m, n)."""
    return min(50 * b, m, n)


def adaptive_rank(a, params, seed):
    """Find the rank where the projection residual drops below eps * ||A||_F.

    Runs the v - 1 passes of rangefinder.row_chain, each product cut to the
    columns that certified_width shows the rest of the chain needs, spends
    the last pass on G = A V with V the QR of the chain's last product,
    then scans the columns of G (refine_rank).  Since the cuts keep column
    prefixes and the bound only falls along the chain, the rank and
    converged equal those of the chain at full width l (to rounding, which
    the l u ||A||_F^2 allowance covers), and the scan's own energy still
    decides converged.  Never converging within width l returns the full
    outcome with converged=False.
    """
    a = as_accessor(a)
    total = a.fro_norm() ** 2
    acc = params.eps**2 * total
    # each energy is a difference of sums of size total, off by up to about
    # l u total; no cut is made where that leaves nothing of acc
    target = (params.eps**2 - params.l * np.finfo(np.float64).eps) * total
    z = rangefinder.row_chain(
        a, params.l, params.v, seed, keep=lambda y, x: certified_width(y, x, total, target)
    )
    basis = kernels.eqr(z).Q
    g = a.matmul(basis)
    rank, e = refine_rank(g, total, acc)
    return AdaptiveOutcome(
        rank=rank,
        V=basis[:, :rank],
        G=g[:, :rank],
        residual_energy=max(e, 0.0),
        converged=e <= acc,
        width=z.shape[1],
    )


def certified_width(y, x, total, target):
    """Columns of the product Y = A X (or A^T X) that the rest of the chain
    needs: the least i with E_Y(i) = total - ||(Y R^{-1})[:, :i]||_F^2 <=
    target, R = chol(X^T X) (see the module docstring).

    All columns when no i reaches it, when target <= 0, or when the
    Cholesky fails.
    """
    w = y.shape[1]
    if not target > 0:
        return w
    # an overflowing Gram is a failed Cholesky, as in kernels.eqr
    with np.errstate(over="ignore", invalid="ignore"):
        factor = kernels._chol_inv(x.T @ x)
    if factor is None:
        return w
    return refine_rank(y @ factor[1], total, target)[0]


def refine_rank(g, total, acc):
    """Scan the columns of g: subtract their energies from total, in order,
    until the running energy reaches acc.

    Returns (rank, energy): rank counts the columns consumed, all of them
    when the energy stays above acc.
    """
    energies = np.einsum("ij,ij->j", g, g)
    running = np.subtract.accumulate(np.concatenate(([total], energies)))[1:]
    hits = np.flatnonzero(running <= acc)
    rank = int(hits[0]) + 1 if hits.size else g.shape[1]
    return rank, float(running[rank - 1])


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
    """powerlu_fp, rerun with a wider sketch until it converges.

    Not converged: l doubles, capped at min(m, n); Unsatisfiable once l is
    at the cap.  Rerun i draws with seed + i, a fresh basis rather than a
    grown one, and every attempt spends exactly v passes.  A of rank below
    l needs no rerun: the energy scan stops at its rank.  Returns
    (LowRankLU, AdaptiveOutcome).
    """
    a = as_accessor(a)
    cap = min(a.shape)
    while True:
        try:
            return powerlu_fp(a, params, seed)
        except NotConverged:
            if params.l >= cap:
                raise Unsatisfiable(
                    f"sketch width {params.l} already at cap {cap} without converging"
                )
            params = replace(params, l=min(2 * params.l, cap))
        seed += 1
