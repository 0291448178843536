"""Dense factorization kernels: pivoted LU, economy QR, the cut pseudoinverse.

The LU elimination runs on LAPACK getrf through rlra.backend.  Every QR
goes through eqr: CholeskyQR2 (two Gram / Cholesky / GEMM sweeps) when a
certificate shows it is accurate, and Householder QR on LAPACK otherwise;
SVD is delegated to LAPACK.  All shapes are economy: r = min(m, n).  Every
pseudoinverse goes through pinv_factor, which cuts the singular values of
R below PINV_RTOL times the largest instead of raising on them.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import pinv, qr
from scipy.linalg.lapack import dpotrf, dtrtri

from . import backend

# pinv_factor drops the singular values of R below this fraction of the largest
PINV_RTOL = 1e-12
# CholeskyQR2 runs its second sweep only when the first sweep's Q1 has
# ||Q1^T Q1 - I||_F at or below this: then cond(Q1)^2 <= 3, and the second
# sweep is orthogonal to O(u)
CHOLQR_CERTIFICATE = 0.5


class PivotedLU(NamedTuple):
    L: np.ndarray  # m x r, unit-diagonal lower trapezoidal
    U: np.ndarray  # r x n, upper trapezoidal
    p: np.ndarray  # row permutation: A[p, :] = L @ U


class EconomyQR(NamedTuple):
    Q: np.ndarray  # m x r, orthonormal columns
    R: np.ndarray  # r x n


class LowRankSVD(NamedTuple):
    U: np.ndarray  # m x k
    S: np.ndarray  # k, nonincreasing
    V: np.ndarray  # n x k


def plu(a):
    """Partial-pivot LU: returns (L, U, p) with A[p, :] = L @ U.

    The input is copied once, into an F-ordered work array, factored in
    place by getrf, and its triangles are tidied: L is the unit-lower view
    lu[:, :r] of the work array (a copy of it when the input is wide, so
    that L holds no unused columns), U a copy of its upper triangle.  The
    pivot is the max-magnitude entry of the active column, so every
    multiplier is at most 1 in magnitude.  Rank-deficient input is handled
    without error: a dependent column leaves a zero or round-off sized
    pivot, which nothing downstream reads as a rank decision.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    if lu.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={lu.ndim}")
    m, n = lu.shape
    piv = np.arange(m, dtype=np.int64)
    backend.plu_inplace(lu, piv)
    r = min(m, n)
    U = np.triu(lu[:r, :])
    # L is unpacked over the work array, after U is copied out
    for j in range(1, r):
        lu[:j, j] = 0.0
    lu[np.arange(r), np.arange(r)] = 1.0
    L = lu[:, :r]
    return PivotedLU(L if r == n else np.array(L, order="F"), U, piv)


def _chol_inv(g):
    """Upper Cholesky factor R of g and its inverse, or None when g is not
    numerically positive definite."""
    r, info = dpotrf(g, lower=0, clean=1)
    if info:
        return None
    rinv, info = dtrtri(r, lower=0)
    return None if info else (r, rinv)


def eqr(a):
    """Economy QR by CholeskyQR2, else Householder: Q has orthonormal
    columns, R is upper triangular.

    First sweep: R1 = chol(X^T X), Q1 = X R1^{-1}.  It is kept only when
    ||Q1^T Q1 - I||_F <= CHOLQR_CERTIFICATE; Q1^T Q1 is then the second
    sweep's Gram: R2 = chol(Q1^T Q1), Q = Q1 R2^{-1}, R = R2 R1, with Q
    orthonormal and Q R = X to O(u), and R's diagonal positive.  R^{-1} is
    applied as a GEMM with the triangular inverse, not as a triangular
    solve: 14 ms against Householder's 34 ms on a 20000 x 40 sketch, one
    thread.  A wide input, a failed Cholesky (an overflowing or
    underflowing Gram included) or a failed certificate (NaN included)
    returns Householder QR on LAPACK geqrf/orgqr; an exactly rank-deficient
    input never passes the certificate.  The range bases, pinv_factor and
    randsvd's final SVD all take their QR from here.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if 0 < n <= m:
        # an overflowing Gram is a failed Cholesky, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            first = _chol_inv(a.T @ a)
        if first is not None:
            q1 = a @ first[1]
            g2 = q1.T @ q1
            # written so that a NaN defect falls back
            if np.linalg.norm(g2 - np.eye(n)) <= CHOLQR_CERTIFICATE:
                second = _chol_inv(g2)
                if second is not None:
                    return EconomyQR(q1 @ second[1], second[0] @ first[0])
    return EconomyQR(*qr(a, mode="economic", check_finite=False))


def pinv_factor(l):
    """Q and the cut pseudoinverse R^+ of a tall L = Q R, so L^+ = R^+ Q^T.

    R = eqr(l).R is square, as wide as L, and R^+ is scipy.linalg.pinv of
    it with the singular values below PINV_RTOL * s_1 cut: a numerically
    rank-deficient L (a zero one included) gets the pseudoinverse of its
    nearest matrix of lower rank, not an error, and every solve against it
    is one GEMM.  Raises ValueError on a wide L.
    """
    l = np.asarray(l, dtype=np.float64)
    if l.shape[0] < l.shape[1]:
        raise ValueError(f"need a tall matrix, got {l.shape}")
    q, r = eqr(l)
    return q, pinv(r, atol=0.0, rtol=PINV_RTOL, check_finite=False)


def pinv_apply(l, m):
    """L^+ @ M for tall L: R^+ (Q^T M), never (L^T L)^{-1}.

    No driver calls it; it stays because perfbench's tracer wraps it by name.
    """
    q, rp = pinv_factor(l)
    return rp @ (q.T @ np.asarray(m, dtype=np.float64))


def pinv_transpose_apply(l, m):
    """(L^T)^+ @ M for tall L: Q (R^+)^T M, the minimum-norm solution.

    No driver calls it; like pinv_apply, it stays because perfbench's
    tracer wraps it by name.
    """
    q, rp = pinv_factor(l)
    return q @ (rp.T @ np.asarray(m, dtype=np.float64))
