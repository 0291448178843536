"""Fixed-rank drivers: randomized SVD and the randomized LU factorizations.

Every driver sketches with rangefinder's one power chain (pivoted LU
between products; randlu_noreorth's chain is raw) and consumes a strict
pass budget: 2p + 2 products for the SVD and LU drivers at exponent p, and
exactly v products for the pass-parameterized LU driver.  Every sketch
starts from a random-sign test matrix (core.rademacher), not the paper's
Gaussian one.  The LU drivers sketch at width k, since their factors use
only the first k sketch columns; the oversampling q_os widens randsvd's
sketch alone.
"""

from dataclasses import dataclass

import numpy as np

from . import core, kernels, rangefinder
from .accessors import as_accessor
from .kernels import LowRankSVD


@dataclass
class LowRankLU:
    """Rank-k factorization A[p, :][:, q] ~ L @ U.

    L is m x k lower trapezoidal, U is k x n upper trapezoidal, p and q are
    row and column index permutations.
    """

    p: np.ndarray
    q: np.ndarray
    L: np.ndarray
    U: np.ndarray
    rank: int


def _validate_rank(a, k, q_os):
    """Every driver's argument check, before any product or column read:
    k >= 1, q_os >= 0, then the width k + q_os against a's shape
    (rangefinder.check_width)."""
    if k < 1:
        raise ValueError("target rank must be >= 1")
    if q_os < 0:
        raise ValueError("oversampling must be >= 0")
    rangefinder.check_width(a, k + q_os)


def randsvd(a, k, q_os=10, p=1, seed=0, truncate=False):
    """Randomized SVD with LU-reorthogonalized power iteration.

    The column basis Q is the QR of the last product of rangefinder's
    power chain (power_basis_q), with pivoted LU between its products.

    Parameters
    ----------
    a : array or accessor
    k : target rank
    q_os : oversampling columns on top of k
    p : power iteration exponent (2p + 2 passes total)
    seed : seed of the random-sign test matrix (core.rademacher)
    truncate : return only the leading k triplets instead of the full
        sketch width l = k + q_os

    Returns
    -------
    LowRankSVD with orthonormal U (m x l), S nonincreasing, V (n x l).
    """
    a = as_accessor(a)
    _validate_rank(a, k, q_os)
    q = rangefinder.power_basis_q(a, k + q_os, p, seed)
    # B^T = A^T Q in one pass; B^T = Q_B R_B and R_B^T = U_r S V_r^T give
    # B = U_r S (Q_B V_r)^T from an l x l SVD instead of one of the wide B
    qb, rb = kernels.eqr(a.rmatmul(q))
    ur, s, vrt = np.linalg.svd(rb.T)
    vr = vrt.T
    if truncate:
        ur, s, vr = ur[:, :k], s[:k], vr[:, :k]
    return LowRankSVD(q @ ur, s, qb @ vr)


def randlu(a, k, q_os=10, p=1, seed=0):
    """Randomized LU: LU-stabilized sketch of width k, pivoted assembly.

    The sketch's L factor L_y is m x k; B = L_y^+ P A is formed through the
    accessor (one transpose product); the column-pivoted step is a
    partial-pivot LU of B^T.  2p + 2 passes total, every product k wide.

    q_os is validated, and k + q_os checked against A's shape, but it
    changes neither the factors nor the cost: the test matrix's first k
    columns do not depend on its width (core.rademacher) and partial-pivot
    LU is a column prefix map (the row-unpermuted L[:, :k] depends only on
    the first k columns of its input), so oversampling columns would never
    reach L_y.

    A of rank below k still gets its factors: the sketch's L is unit lower
    with entries at most 1 whatever the sketch's rank, and at k >= rank(A)
    the error is at rounding level.
    """
    a = as_accessor(a)
    _validate_rank(a, k, q_os)
    return _assemble_from_sketch_lu(a, rangefinder.power_basis_lu_l(a, k, p, seed))


def randlu_noreorth(a, k, q_os=10, p=1, seed=0):
    """randlu with the raw sketch A (A^T A)^p Omega, no stabilization.

    The baseline variant: round-off drowns the small singular directions as
    p grows, which is what reorthogonalization prevents.  Same pass budget,
    same k-wide sketch, same q_os handling and same post-sketch assembly as
    randlu.
    """
    a = as_accessor(a)
    _validate_rank(a, k, q_os)
    return _assemble_from_sketch_lu(
        a, rangefinder.power_basis_lu_l(a, k, p, seed, _reorth=False))


def _assemble_from_sketch_lu(a, sk):
    qy, _, rp = kernels.pinv_factor(sk.L)
    # B = L_y^+ P A = R^+ (P^T Q)^T A; B^T = C (R^+)^T from one transpose
    # product C = A^T (P^T Q)
    c = a.rmatmul(core.apply_inv_row_perm(sk.p, qy))
    return column_pivot_assembly(sk.L, sk.p, c @ rp.T)


def powerlu(a, k, q_os=10, v=3, seed=0):
    """Pass-parameterized randomized LU.

    Builds a k-wide row-space basis V with v - 1 products, spends the last
    pass on Y = A V, and assembles the factorization from two small pivoted
    LUs.  Works for any pass budget v >= 2.

    q_os is validated, and k + q_os checked against A's shape, but it
    changes neither the factors nor the cost: the test matrix's first k
    columns do not depend on its width (core.rademacher) and the interior
    LUs and the final QR are column prefix maps,
    so the first k columns of a wider basis equal this basis up to
    rounding, and oversampling columns would never reach the factors.
    """
    a = as_accessor(a)
    _validate_rank(a, k, q_os)
    vk = rangefinder.general_power_basis_v(a, k, v, seed)
    # G = A V is this call's own: it is factored in its own buffer
    return _assemble_from_projection(kernels._plu_in_place(a.matmul(vk)), vk)


def lu_from_projection(g, vk):
    """Exact pivoted-LU factorization of G V^T given G = A V.

    lu(G) -> (L1, U1, p), then the column-pivot assembly of T = (U1 V^T)^T.
    The only approximation in the caller is A ~ A V V^T; these steps are
    exact.  g and vk are left unchanged.
    """
    return _assemble_from_projection(kernels.plu(g), vk)


def _assemble_from_projection(f, vk):
    """lu_from_projection from f = lu(G).  T = (U1 V^T)^T is made here,
    F-ordered, so it is factored in its own buffer."""
    l1, u1, perm = f
    return _assemble(l1, perm, kernels._plu_in_place((u1 @ vk.T).T))


def column_pivot_assembly(l1, p, t):
    """Column-pivoted step shared by every LU driver.

    Given the row side L1 (m x r, rows permuted by p) and T (n x r), where
    the factorization sought is A[p, :] ~ L1 T^T: lu(T) -> (L2, U2, q),
    L = L1 U2^T, U = L2^T.  The rank is the width r of L1.  t is left
    unchanged.
    """
    return _assemble(l1, p, kernels.plu(t))  # column pivoting via the transpose


def _assemble(l1, p, f):
    """column_pivot_assembly from f = lu(T)."""
    l2, u2, q = f
    return LowRankLU(p=p, q=q, L=l1 @ u2.T, U=l2.T, rank=l1.shape[1])


def reconstruct(f):
    """Undo the permutations: returns the m x n matrix with (L U)[i, j]
    placed at row f.p[i], column f.q[j]."""
    r = f.L @ f.U
    out = np.empty_like(r)
    out[np.ix_(f.p, f.q)] = r
    return out
