"""The pivoted-LU elimination: LAPACK getrf, with an exact unblocked fallback.

getrf (blocked, BLAS-3) factors every well-posed input.  A sketch with
dependent columns leaves pivots that are round-off sized under blocked
rounding instead of exactly zero, and the range finders read exact zeros
as rank collapse, so any factorization with a pivot at or below
ZERO_PIVOT_RTOL of its column is redone by the unblocked elimination,
which keeps dependent directions exactly zero.  Zeroing small pivots of
getrf's output instead does not work: at ZERO_PIVOT_RTOL it also zeroes
the benign near-deficient pivots of a raw power chain (about a hundred of
150 have ratios between 8e-16 and 1e-13), and the ratios of a
duplicated-row sketch (3e-16 to 6e-16) sit too close below those for any
fixed threshold to separate the two.
"""

import numpy as np
from scipy.linalg.lapack import dgetrf

BACKEND = "lapack"

# a pivot this small relative to its column is treated as exactly zero
ZERO_PIVOT_RTOL = 1e-14


def plu_inplace(lu, piv, a):
    """Factor an F-ordered float64 m x n copy of a in place, packed LU with
    row pivoting.

    On return lu holds U on and above the diagonal and the unit-lower L
    multipliers strictly below it; piv (preloaded with 0..m-1) maps output
    row i back to source row piv[i].  The pivot is the first entry of
    largest magnitude in the active column.  a is read only when a
    degenerate pivot sends the factorization to the exact elimination,
    which restarts from it.
    """
    if not (lu.flags.f_contiguous and lu.dtype == np.float64):
        raise ValueError("lu must be an F-ordered float64 array")
    r = min(lu.shape)
    if r == 0:
        return
    _, ipiv, info = dgetrf(lu, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info}")
    u = np.abs(np.triu(lu[:r, :r]))
    if (np.diagonal(u) <= ZERO_PIVOT_RTOL * u.max(axis=0)).any():
        lu[...] = a
        _plu_exact(lu, piv)
        return
    for i, k in enumerate(ipiv):  # sequential row swaps -> permutation
        piv[i], piv[k] = piv[k], piv[i]


def _plu_exact(lu, piv):
    """Unblocked partial-pivot elimination, one column per step.

    Same contract as plu_inplace.  A pivot whose magnitude is at most
    ZERO_PIVOT_RTOL times the largest magnitude in its column counts as
    zero: the row order is kept and the L column below the diagonal is
    zeroed, dropping at most that negligible mass from the reconstruction.
    An active column that eliminates to exactly zero leaves an exactly
    zero pivot.
    """
    m, n = lu.shape
    for j in range(min(m, n)):
        col = lu[:, j]
        active = np.abs(col[j:])
        rel = int(np.argmax(active))  # first maximum wins on ties
        amax = float(active[rel])
        colmax = float(np.abs(col).max()) if j else amax
        if amax <= ZERO_PIVOT_RTOL * colmax:
            lu[j + 1 :, j] = 0.0
            continue
        prow = j + rel
        if prow != j:
            lu[[j, prow], :] = lu[[prow, j], :]
            piv[j], piv[prow] = piv[prow], piv[j]
        lu[j + 1 :, j] /= lu[j, j]
        if j + 1 < n:
            lu[j + 1 :, j + 1 :] -= np.outer(lu[j + 1 :, j], lu[j, j + 1 :])
