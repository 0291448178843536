"""Power-iteration range finders with reorthogonalization.

Every scheme runs one alternating chain A, A^T, A, ... from a random-sign
start Omega (core.rademacher, entries +-1) and differs only in the
renormalization between products and in the factorization of the last one:

- power_basis_q: QR between products, QR at the end (randsvd);
- power_basis_lu_l: pivoted LU between products, pivoted LU at the end
  (randlu);
- general_power_basis_v: pivoted LU between products, QR at the end, for
  any pass budget v >= 2 (powerlu, powerlu_fp); even v starts with A^T;
- fixedrank.randlu_noreorth: no renormalization at all.

Interior LU renormalizations keep only the row-unpermuted L factor, which
preserves the span exactly when the sketch has full column rank.  The
width l is checked against A's shape only (check_width, the library's one
width check), never against its rank: when A has rank below l, L (unit
lower, every entry at most 1 in magnitude) and QR's Q still have l columns,
and each dependent direction is a bounded extra column, like one more
oversampling column.  Pass accounting is strict: one accessor product
equals one pass.
"""

import numpy as np

from . import core, kernels
from .accessors import as_accessor


def _lu_basis(x):
    """Row-unpermuted L of lu(x): spans what x spans, and more when x has
    dependent columns.  Written C-ordered, since it feeds the next product
    (a sparse product copies any other layout to C order first)."""
    f = kernels.plu(x)
    out = np.empty(f.L.shape)
    out[f.p] = f.L
    return out


def check_width(a, l):
    """The one sketch-width check, run before any product of A or column
    read: l must lie in 1..min(m, n) of a's shape."""
    m, n = a.shape
    if not 1 <= l <= min(m, n):
        raise ValueError(f"sketch width {l} outside 1..min{(m, n)}")


def _power_chain(a, x, products, renorm, transpose_first=False):
    """Apply A and A^T alternately to x, `products` times in all.

    The first product is A @ x, or A^T @ x when transpose_first is set.
    renorm runs between consecutive products, never after the last one;
    the last raw product is returned.
    """
    steps = (a.rmatmul, a.matmul) if transpose_first else (a.matmul, a.rmatmul)
    for i in range(products):
        if i:
            x = renorm(x)
        x = steps[i % 2](x)
    return x


def power_basis_q(a, l, p, seed):
    """Column-space basis of (A A^T)^p A Omega, QR at every step.

    Returns Q, m x l with orthonormal columns.  Consumes exactly 2p + 1
    passes.
    """
    a = as_accessor(a)
    check_width(a, l)
    if p < 0:
        raise ValueError("p must be >= 0")
    om = core.rademacher(seed, a.shape[1], l)
    y = _power_chain(a, om, 2 * p + 1, lambda x: kernels.eqr(x).Q)
    return kernels.eqr(y).Q


def power_basis_lu_l(a, l, p, seed):
    """LU-stabilized sketch of A (A^T A)^p Omega for the LU driver.

    Returns (L, U, p_perm) from a final pivoted LU.  Interior LU
    renormalizations rescale the sketch, so P^T L U equals the raw chain
    only up to an invertible right factor; Range(P^T L) matches it exactly
    (in exact arithmetic).  Consumes exactly 2p + 1 passes.
    """
    a = as_accessor(a)
    check_width(a, l)
    if p < 0:
        raise ValueError("p must be >= 0")
    om = core.rademacher(seed, a.shape[1], l)
    return kernels.plu(_power_chain(a, om, 2 * p + 1, _lu_basis))


def general_power_basis_v(a, l, v, seed):
    """Row-space basis for any pass budget v >= 2.

    Odd v: basis of (A^T A)^{(v-1)/2} Omega with Omega n x l.  Even v: basis
    of (A^T A)^{floor((v-1)/2)} A^T Omega with Omega m x l.  Returns V,
    n x l with orthonormal columns.  Consumes exactly v - 1 passes; the
    caller's A @ V spends the final one.
    """
    a = as_accessor(a)
    check_width(a, l)
    if v < 2:
        raise ValueError("pass budget v must be >= 2")
    m, n = a.shape
    even = v % 2 == 0
    om = core.rademacher(seed, m if even else n, l)
    y = _power_chain(a, om, v - 1, _lu_basis, transpose_first=even)
    return kernels.eqr(y).Q
