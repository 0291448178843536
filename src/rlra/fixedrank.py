"""Fixed-rank drivers: randomized SVD and the randomized LU factorizations.

Every driver sketches with rangefinder's one power chain (pivoted LU
between products; randlu_noreorth's chain is raw) and consumes a strict
pass budget: 2p + 2 products for the SVD and LU drivers at exponent p, and
exactly v products for the pass-parameterized LU driver.  Every sketch
starts from a random-sign test matrix (core.rademacher), not the paper's
Gaussian one.  The LU drivers sketch at width k, since their factors use
only the first k sketch columns; the oversampling q_os widens randsvd's
sketch alone.  The LU drivers are one body (_projected_lu), since randlu
at exponent p projects A onto the LU basis that powerlu at v = 2p + 2
builds for A^T (the paper's relationship).  It solves against the chain's
own unit-lower LU basis X, whose Gram C = X^T X is well conditioned,
through C^{-1} from one Cholesky (kernels._gram_inverse): no QR and no
pseudoinverse unless that basis is too ill-conditioned for the Gram.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, rangefinder
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

    The sketch's L factor L_y is m x k; B = L_y^+ P A = C^{-1} X^T A, with
    X = P^T L_y and C = X^T X (kernels._gram_inverse), is formed through
    the accessor (one transpose product A^T X); the column-pivoted step is
    a partial-pivot LU of B^T.  2p + 2 passes total, every product k wide.

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
    return _projected_lu(a, k, q_os, 2 * p + 2, seed)


def randlu_noreorth(a, k, q_os=10, p=1, seed=0):
    """randlu with the raw sketch A (A^T A)^p Omega, no stabilization.

    The baseline variant: round-off drowns the small singular directions as
    p grows, which is what reorthogonalization prevents.  Same pass budget,
    same k-wide sketch, same q_os handling and same post-sketch assembly as
    randlu.
    """
    return _projected_lu(a, k, q_os, 2 * p + 2, seed, reorth=False)


def powerlu(a, k, q_os=10, v=3, seed=0):
    """Pass-parameterized randomized LU: randlu's body run on A^T.

    X is the k-wide row-space LU basis of the chain's (v-1)-th product and
    G = A X the v-th; A projected onto span X is G C^{-1} X^T, factored
    from the chain's LU of X and one LU of G C^{-1}, then transposed: v
    pivoted LUs for v passes.  At v = 2p + 2 the factors are randlu's on
    A^T, transposed, bitwise.  Any v >= 2; q_os is handled as in randlu.
    """
    return _transposed(_projected_lu(a, k, q_os, v, seed, transpose=True))


def _projected_lu(a, k, q_os, v, seed, transpose=False, reorth=True):
    """The LU drivers' one body, v passes, on B = A, or B = A^T with
    transpose: B projected onto the k-wide LU basis X of the chain's
    (v-1)-th product, which lands on B's column side, factored as
    B[p, :][:, q] ~ L U.  reorth=False runs the chain raw.
    """
    a = as_accessor(a)
    _validate_rank(a, k, q_os)
    if v < 2:
        raise ValueError("pass budget v must be >= 2" if transpose else "p must be >= 0")
    y = rangefinder._power_chain(
        a, k, v - 1, seed, transpose_first=(v % 2 == 0) == transpose, reorth=reorth)
    lx, _, perm = kernels._plu_in_place(y, upper=False)
    # X = P^T L_x, C-ordered, the layout a sparse product reads; L_x^+ P B
    # = C^{-1} X^T B, so B[perm, :] ~ L_x T^T with T = (B^T X) C^{-1},
    # made F-ordered here so that it is factored in its own buffer
    x = np.empty(lx.shape)
    x[perm] = lx
    c = a.matmul(x) if transpose else a.rmatmul(x)
    return _assemble(lx, perm, kernels._plu_in_place((kernels._gram_inverse(x) @ c.T).T))


def _transposed(f):
    """The LU of A from the LU f of A^T: A^T[p, :][:, q] = L U gives
    A[q, :][:, p] = U^T L^T."""
    return LowRankLU(p=f.q, q=f.p, L=f.U.T, U=f.L.T, rank=f.rank)


def lu_from_projection(g, vk):
    """Exact pivoted-LU factorization of G V^T given G = A V.

    lu(G) -> (L1, U1, p), then the column-pivoted step on
    T = (U1 V^T)^T, made here, F-ordered, so that it is factored in its own
    buffer.  The only approximation in the caller is A ~ A V V^T; these
    steps are exact.  g and vk are left unchanged.
    """
    l1, u1, perm = kernels.plu(g)
    return _assemble(l1, perm, kernels._plu_in_place((u1 @ vk.T).T))


def _assemble(l1, p, f):
    """Column-pivoted step shared by every LU driver.

    Given the row side L1 (m x r, rows permuted by p) and f = lu(T) =
    (L2, U2, q) for T (n x r), where the factorization sought is
    A[p, :] ~ L1 T^T: L = L1 U2^T, U = L2^T.  The rank is the width r of
    L1.
    """
    l2, u2, q = f
    return LowRankLU(p=p, q=q, L=l1 @ u2.T, U=l2.T, rank=l1.shape[1])


def reconstruct(f):
    """Undo the permutations: returns the m x n matrix with (L U)[i, j]
    placed at row f.p[i], column f.q[j]."""
    r = f.L @ f.U
    out = np.empty_like(r)
    out[np.ix_(f.p, f.q)] = r
    return out
