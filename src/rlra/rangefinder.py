"""Power-iteration range finders with LU reorthogonalization.

Every range finder is one chain (_power_chain): a random-sign start Omega
(core.rademacher, entries +-1), then products with A and A^T in turn, with
the row-unpermuted L of a pivoted LU between consecutive products, as in
the paper's reorthogonalization (and fbpca's randomized SVD, Li et al.,
ACM TOMS 2017).  The public finders differ only in the factorization of
the last raw product: QR for power_basis_q (randsvd) and
general_power_basis_v (powerlu), pivoted LU for power_basis_lu_l (randlu;
with no renormalization, randlu_noreorth).  powerlu_fp takes
general_power_basis_v's chain bare (row_chain), with a cut (keep) that
narrows its products, and factors the last product itself.

Interior LU renormalizations preserve the span exactly when the sketch has
full column rank.  The width l is checked against A's shape only
(check_width, the library's one width check), never against its rank: when
A has rank below l, L (unit lower, every entry at most 1 in magnitude) and
QR's Q still have l columns, and each dependent direction is a bounded
extra column, like one more oversampling column.  Pass accounting is
strict: one accessor product equals one pass.
"""

import numpy as np

from . import core, kernels
from .accessors import as_accessor


def _lu_basis(y):
    """Row-unpermuted L of lu(y): spans what y spans, and more when y has
    dependent columns.

    y is a product the chain owns and reads no more: it is factored in its
    own buffer when F-ordered and writeable (kernels._plu_in_place, which
    forms no U here), else copied once.  L is scattered into a fresh
    C-ordered basis, the layout the next sparse product reads."""
    f = kernels._plu_in_place(y, upper=False)
    out = np.empty(f.L.shape)
    out[f.p] = f.L
    return out


def check_width(a, l):
    """The one sketch-width check, run before any product of A or column
    read: l must lie in 1..min(m, n) of a's shape."""
    m, n = a.shape
    if not 1 <= l <= min(m, n):
        raise ValueError(f"sketch width {l} outside 1..min{(m, n)}")


def _power_chain(a, l, products, seed, transpose_first=False, reorth=True, keep=None):
    """The chain of `products` products, A and A^T in turn, from an l-wide
    start.

    The start is core.rademacher(seed, n, l), or (m, l) when transpose_first
    sets A^T as the first product.  With reorth, _lu_basis runs between
    consecutive products (never after the last); without, the chain is raw.
    keep(y, x), when given, cuts each product Y = A X or A^T X to its first
    keep(y, x) columns before anything else reads it: after every product
    whose X is an LU basis (the second on), and after the last.  The next
    renormalization and product then run on the narrower block (pivoted LU
    keeps column prefixes), so a cut chain still spends exactly `products`
    products.  The chain owns its products (see rlra.accessors): keep reads
    each one before _lu_basis factors it, in its own buffer where it can.
    Returns the last product: l wide, or as wide as keep left it.
    """
    a = as_accessor(a)
    check_width(a, l)
    m, n = a.shape
    y = core.rademacher(seed, m if transpose_first else n, l)
    steps = (a.rmatmul, a.matmul) if transpose_first else (a.matmul, a.rmatmul)
    for i in range(products):
        x = _lu_basis(y) if i and reorth else y
        y = steps[i % 2](x)
        if keep is not None and (i or i == products - 1):
            y = y[:, : keep(y, x)]
    return y


def power_basis_q(a, l, p, seed):
    """Column-space basis of (A A^T)^p A Omega.

    Returns Q, m x l with orthonormal columns, the QR of the chain's last
    product.  Consumes exactly 2p + 1 passes.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    return kernels.eqr(_power_chain(a, l, 2 * p + 1, seed)).Q


def power_basis_lu_l(a, l, p, seed, _reorth=True):
    """LU-stabilized sketch of A (A^T A)^p Omega for the LU driver.

    Returns (L, U, p_perm) from a final pivoted LU.  Interior LU
    renormalizations rescale the sketch, so P^T L U equals the raw chain
    only up to an invertible right factor; Range(P^T L) matches it exactly
    (in exact arithmetic).  _reorth=False (randlu_noreorth only) factors
    the raw chain instead.  Consumes exactly 2p + 1 passes.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    return kernels._plu_in_place(_power_chain(a, l, 2 * p + 1, seed, reorth=_reorth))


def general_power_basis_v(a, l, v, seed):
    """Row-space basis for any pass budget v >= 2.

    Odd v: basis of (A^T A)^{(v-1)/2} Omega with Omega n x l.  Even v: basis
    of (A^T A)^{floor((v-1)/2)} A^T Omega with Omega m x l.  Returns V,
    n x l with orthonormal columns.  Consumes exactly v - 1 passes; the
    caller's A @ V spends the final one.
    """
    if v < 2:
        raise ValueError("pass budget v must be >= 2")
    return kernels.eqr(row_chain(a, l, v, seed)).Q


def row_chain(a, l, v, seed, keep=None):
    """The v - 1 products behind general_power_basis_v: returns the last
    one, Z = A^T X (X the random-sign start at v = 2, else the chain's last
    LU basis), n x l, or with keep (see _power_chain) n x w for w <= l."""
    return _power_chain(a, l, v - 1, seed, transpose_first=v % 2 == 0, keep=keep)
