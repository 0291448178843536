"""Dense factorization kernels: pivoted LU, economy QR, the cut pseudoinverse.

The LU elimination runs on LAPACK getrf through rlra.backend: plu copies
its input, and the library's own sketches and products are factored in
their own buffers (_plu_in_place).  Every QR
goes through eqr: CholeskyQR2 (two Gram / Cholesky / GEMM sweeps) when a
certificate shows it is accurate, and Householder QR on LAPACK otherwise;
SVD is delegated to LAPACK.  All shapes are economy: r = min(m, n).  Every
pseudoinverse goes through pinv_factor, which cuts the singular values of
R below PINV_RTOL times the largest instead of raising on them.  The LU
drivers solve against their own well-conditioned LU bases with no QR:
_gram_inverse takes (X^T X)^{-1} from one Gram and one Cholesky, and
falls back to pinv_factor only where that would lose accuracy.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import pinv, qr
from scipy.linalg.lapack import dpotrf, dtrcon, dtrtri

from . import backend

# pinv_factor drops the singular values of R below this fraction of the largest
PINV_RTOL = 1e-12
# CholeskyQR2 runs its second sweep only when the first sweep's Q1 has
# ||Q1^T Q1 - I||_F at or below this: then cond(Q1)^2 <= 3, and the second
# sweep is orthogonal to O(u)
CHOLQR_CERTIFICATE = 0.5
# _gram_inverse keeps the Gram's (X^T X)^{-1} only while LAPACK dtrcon
# estimates kappa_1(R), R = chol(X^T X), at or below this (the table there)
GRAM_COND_LIMIT = 1e4


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

    a is never modified: it is copied once, into an F-ordered work array
    that _plu_in_place factors.  The pivot is the max-magnitude entry of the
    active column, so every multiplier is at most 1 in magnitude.
    Rank-deficient input is handled without error: a dependent column leaves
    a zero or round-off sized pivot, which nothing downstream reads as a
    rank decision.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    if lu.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={lu.ndim}")
    return _plu_in_place(lu)


def _plu_in_place(lu, upper=True):
    """plu of a 2-d array that the caller gives up and never reads again.

    An F-ordered, writeable float64 lu is factored by getrf in its own
    buffer; any other is copied once first.  L is the unit-lower view
    lu[:, :r] of that buffer (a copy of it when lu is wide, so that L holds
    no unused columns) and U a copy of its upper triangle, or None unless
    upper: the library's own sketches and products go through here.
    """
    if not (lu.flags.f_contiguous and lu.flags.writeable and lu.dtype == np.float64):
        lu = np.array(lu, dtype=np.float64, order="F")
    m, n = lu.shape
    piv = np.arange(m, dtype=np.int64)
    backend.plu_inplace(lu, piv)
    r = min(m, n)
    U = np.triu(lu[:r, :]) if upper else None
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


def _gram_chol(x):
    """_chol_inv of the Gram X^T X: an overflowing Gram is a failed
    Cholesky (None), not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _chol_inv(x.T @ x)


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
        first = _gram_chol(a)
        if first is not None:
            q1 = a @ first[1]
            g2 = q1.T @ q1
            # written so that a NaN defect falls back
            if np.linalg.norm(g2 - np.eye(n)) <= CHOLQR_CERTIFICATE:
                second = _chol_inv(g2)
                if second is not None:
                    return EconomyQR(q1 @ second[1], second[0] @ first[0])
    return EconomyQR(*qr(a, mode="economic", check_finite=False))


def _gram_inverse(x):
    """C^{-1} = (X^T X)^{-1} of a tall basis X, for the solves L^+ M =
    C^{-1} X^T M and the projection X C^{-1} X^T of the LU drivers.

    From one Gram: R = chol(X^T X) and C^{-1} = R^{-1} R^{-T}, whose
    relative error grows as u kappa(X)^2.  When the Cholesky fails, or
    dtrcon's estimate of kappa_1(R) is above GRAM_COND_LIMIT (an
    overflowing Gram's non-finite R reads 0, and NaN fails too), it is
    pinv_factor(X)'s R^+ R^+^T instead, accurate to O(u) and cut at
    PINV_RTOL like every pseudoinverse.

    Measured on X = the first 60 columns of I_500 with -t in every entry
    below the diagonal of the top 60 x 60 block, rows permuted, against an
    80-bit reference; worst of 3 row permutations, one BLAS thread:

        t      kappa_2(X)  kappa_1(R) est.  C^{-1} err: Gram  R^+R^+^T  X C^{-1} X^T M err
        0.05   1.6e1       2.5e2            5.2e-15           1.0e-15   6.4e-16
        0.1    4.9e2       2.9e3            1.8e-12           4.1e-15   1.1e-13
        0.125  2.3e3       9.9e3            1.9e-11           4.1e-15   1.8e-12
        0.15   1.1e4       3.3e4            9.7e-10           1.6e-15   4.8e-11
        0.2    1.8e5       4.6e5            1.3e-7            2.9e-15   8.2e-9
        0.3    3.2e7       6.5e7            1.7e-3            1.0e-14   9.5e-5
        0.35   3.6e8       6.6e8            9.9e-3            1.2e-13   4.2e-3

    (the last column is the relative error of X C^{-1} X^T M for a Gaussian
    M with the Gram's C^{-1}; with R^+ R^+^T in its place it is within a
    factor 2.5 of it on every row, since the products with X and X^T
    themselves cost u kappa^2; at t = 0.4, kappa_2 3.6e9, the Cholesky
    failed for one permutation of the three).
    Below the limit the Gram's C^{-1} is within 2e-11 of the exact one.
    The row-unpermuted L of a pivoted LU stays far below it: kappa_1(R) read
    at most 739, 12 and 102 on the dense-sketch, dense-pass and sparse-tall
    benchmark bases (powerlu v = 4 and randlu p = 1, matrix seeds 0-2, draw
    seeds 0-4), and up to 5.5e3 for a 300-wide basis of a fast-decay
    1000^2 sketch (draw seeds 0-2).  dtrcon costs about 0.015 ms at k = 100.
    """
    factor = _gram_chol(x)
    if factor is not None:
        rcond, info = dtrcon(factor[0])
        # written so that a NaN estimate falls back
        if info == 0 and rcond * GRAM_COND_LIMIT >= 1.0:
            return factor[1] @ factor[1].T
    rp = pinv_factor(x)[2]
    return rp @ rp.T


def pinv_factor(l):
    """Q, R and the cut pseudoinverse R^+ of a tall L = Q R, so L^+ = R^+ Q^T.

    R = eqr(l).R is square, as wide as L, and R^+ is scipy.linalg.pinv of
    it with the singular values below PINV_RTOL * s_1 cut: a numerically
    rank-deficient L (a zero one included) gets the pseudoinverse of its
    nearest matrix of lower rank, not an error, and every solve against it
    is one GEMM (R is there to refine one).  Raises ValueError on a wide L.
    """
    l = np.asarray(l, dtype=np.float64)
    if l.shape[0] < l.shape[1]:
        raise ValueError(f"need a tall matrix, got {l.shape}")
    q, r = eqr(l)
    return q, r, pinv(r, atol=0.0, rtol=PINV_RTOL, check_finite=False)


def pinv_apply(l, m):
    """L^+ @ M for tall L: R^+ (Q^T M), never (L^T L)^{-1}.

    No driver calls it; it stays because perfbench's tracer wraps it by name.
    """
    q, _, rp = pinv_factor(l)
    return rp @ (q.T @ np.asarray(m, dtype=np.float64))


def pinv_transpose_apply(l, m):
    """(L^T)^+ @ M for tall L: Q (R^+)^T M, the minimum-norm solution.

    No driver calls it; like pinv_apply, it stays because perfbench's
    tracer wraps it by name.
    """
    q, _, rp = pinv_factor(l)
    return q @ (rp.T @ np.asarray(m, dtype=np.float64))
