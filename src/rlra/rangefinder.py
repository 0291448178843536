"""Power-iteration range finders with reorthogonalization.

Every scheme runs one alternating chain A, A^T, A, ... from a Gaussian
start (_power_chain) and differs only in the renormalization between
products and in the factorization of the last one:

- power_basis_q: QR between products, QR at the end (randsvd);
- power_basis_lu_l: pivoted LU between products, pivoted LU at the end
  (randlu);
- general_power_basis_v: pivoted LU between products, QR at the end, for
  any pass budget v >= 2 (powerlu, powerlu_fp); even v starts with A^T;
- fixedrank.randlu_noreorth: no renormalization at all.

Interior LU renormalizations keep only the row-unpermuted L factor, which
preserves the span exactly.  Pass accounting is strict: one accessor
product equals one pass.
"""

from typing import NamedTuple

import numpy as np

from . import core, kernels
from .accessors import as_accessor
from .errors import RankCollapse


class RangeBasis(NamedTuple):
    V: np.ndarray  # orthonormal columns (n x l for row-space, m x l for column-space)
    passes_used: int


def _check_width(diag, requested):
    """Exactly zero pivots mean the sketch has structurally dependent columns.

    Benign near-deficiency (tiny but nonzero pivots) passes through: unit
    lower factors and QR's orthonormal Q stay full width regardless, so the
    basis remains usable.  An exactly rank-deficient sketch never passes
    the CholeskyQR2 certificate in kernels._tall_qr, so the zeros of its QR
    diagonal are Householder's.
    """
    achieved = int(np.count_nonzero(diag))
    if achieved < requested:
        raise RankCollapse(achieved, requested)


def _qr_basis(x):
    q, r = kernels.eqr(x)
    _check_width(np.diag(r), x.shape[1])
    return q


def _final_sketch_lu(y):
    """Pivoted LU (L, U, p) of the sketch, rejecting dependent columns."""
    f = kernels.plu(y)
    _check_width(np.diag(f.U), y.shape[1])
    return f


def _lu_basis(x):
    """Row-unpermuted L of lu(x): spans exactly what x spans."""
    f = _final_sketch_lu(x)
    return core.apply_inv_row_perm(f.p, f.L)


def _validate(a, l):
    m, n = a.shape
    if not 1 <= l <= min(m, n):
        raise ValueError(f"sketch width l={l} outside 1..min{(m, n)}")


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
    """Column-space basis Q of (A A^T)^p A Omega, QR at every step.

    Consumes exactly 2p + 1 passes.
    """
    a = as_accessor(a)
    _validate(a, l)
    if p < 0:
        raise ValueError("p must be >= 0")
    om = core.gaussian(seed, a.shape[1], l)
    y = _power_chain(a, om, 2 * p + 1, _qr_basis)
    return RangeBasis(_qr_basis(y), 2 * p + 1)


def power_basis_lu_l(a, l, p, seed):
    """LU-stabilized sketch of A (A^T A)^p Omega for the LU driver.

    Returns (L, U, p_perm) from a final pivoted LU.  Interior LU
    renormalizations rescale the sketch, so P^T L U equals the raw chain
    only up to an invertible right factor; Range(P^T L) matches it exactly
    (in exact arithmetic).  Consumes exactly 2p + 1 passes.
    """
    a = as_accessor(a)
    _validate(a, l)
    if p < 0:
        raise ValueError("p must be >= 0")
    om = core.gaussian(seed, a.shape[1], l)
    return _final_sketch_lu(_power_chain(a, om, 2 * p + 1, _lu_basis))


def general_power_basis_v(a, l, v, seed):
    """Row-space basis for any pass budget v >= 2.

    Odd v: basis of (A^T A)^{(v-1)/2} Omega with Omega n x l.  Even v: basis
    of (A^T A)^{floor((v-1)/2)} A^T Omega with Omega m x l.  Consumes
    exactly v - 1 passes; the caller's A @ V spends the final one.
    """
    a = as_accessor(a)
    _validate(a, l)
    if v < 2:
        raise ValueError("pass budget v must be >= 2")
    m, n = a.shape
    even = v % 2 == 0
    om = core.gaussian(seed, m if even else n, l)
    y = _power_chain(a, om, v - 1, _lu_basis, transpose_first=even)
    return RangeBasis(_qr_basis(y), v - 1)
