"""The pivoted-LU elimination: LAPACK getrf (blocked, BLAS-3).

No pivot is tested against zero.  A sketch with dependent columns leaves
round-off sized (or exactly zero) pivots; partial pivoting keeps every
multiplier at most 1 in magnitude, so its L stays a bounded basis either
way, and the rank is decided from the factors downstream (the
fixed-precision energy scan), never from a pivot.
"""

import numpy as np
from scipy.linalg.lapack import dgetrf

BACKEND = "lapack"


def plu_inplace(lu, piv):
    """Factor an F-ordered float64 m x n array in place, packed LU with row
    pivoting.

    On return lu holds U on and above the diagonal and the unit-lower L
    multipliers strictly below it; piv (preloaded with 0..m-1) maps output
    row i back to source row piv[i].  The pivot is the first entry of
    largest magnitude in the active column.
    """
    if not (lu.flags.f_contiguous and lu.dtype == np.float64):
        raise ValueError("lu must be an F-ordered float64 array")
    if min(lu.shape) == 0:
        return
    _, ipiv, info = dgetrf(lu, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info}")
    for i, k in enumerate(ipiv):  # sequential row swaps -> permutation
        piv[i], piv[k] = piv[k], piv[i]
