"""Dense-matrix plumbing: canonical layout, norms, permutations, seeded Gaussians.

Everything downstream works on 64-bit real matrices.  Column-major is the
canonical storage layout (files and LAPACK getrf require it); in-memory
helpers accept any strides and NumPy sorts it out.  Permutations are index
vectors, never dense matrices.
"""

import numpy as np

from .errors import NonFiniteInput

__all__ = [
    "as_fmatrix",
    "gaussian",
    "gaussian_from",
    "fro_norm",
    "rel_fro_error",
    "check_perm",
    "invert_perm",
    "apply_row_perm",
    "apply_col_perm",
    "apply_inv_row_perm",
    "require_finite",
]


def as_fmatrix(a):
    """Coerce to a 2-d float64 column-major array (copying only if needed)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    return np.asfortranarray(a)


def require_finite(x, what):
    """Return x unchanged; raise NonFiniteInput if it holds NaN or infinity."""
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} has NaN or infinite entries")
    return x


def gaussian(seed, m, n):
    """Standard normal m x n matrix, reproducible from an integer seed.

    The draw stream fills the matrix column by column, so for a fixed seed
    the first columns agree across different requested widths.  Algorithms
    that are compared under a shared test matrix rely on this: they all
    draw their Gaussian first, from the same seed.
    """
    if m < 1 or n < 1:
        raise ValueError("gaussian needs m, n >= 1")
    return gaussian_from(np.random.default_rng(seed), m, n)


def gaussian_from(rng, m, n):
    """Like gaussian, but consuming an existing Generator stream."""
    return rng.standard_normal(m * n).reshape((m, n), order="F")


def fro_norm(a):
    """Frobenius norm, (sum of squared entries)**0.5."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def rel_fro_error(a, ak):
    """Relative Frobenius error ||A - Ak||_F / ||A||_F."""
    a = np.asarray(a, dtype=np.float64)
    ak = np.asarray(ak, dtype=np.float64)
    if a.shape != ak.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {ak.shape}")
    denom = fro_norm(a)
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero matrix")
    return fro_norm(a - ak) / denom


def check_perm(p, length):
    """Validate that p is a bijection on 0..length-1; returns it as int64."""
    p = np.asarray(p, dtype=np.int64)
    if p.ndim != 1 or p.shape[0] != length:
        raise ValueError(f"permutation length {p.shape} does not match {length}")
    seen = np.zeros(length, dtype=bool)
    if length and (p.min() < 0 or p.max() >= length):
        raise ValueError("permutation index out of range")
    seen[p] = True
    if not seen.all():
        raise ValueError("permutation indices are not a bijection")
    return p


def invert_perm(p):
    p = np.asarray(p, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0], dtype=np.int64)
    return inv


def apply_row_perm(p, a):
    """Rows reordered: output[i, :] = a[p[i], :]."""
    a = np.asarray(a, dtype=np.float64)
    p = check_perm(p, a.shape[0])
    return a[p, :]


def apply_col_perm(a, q):
    """Columns reordered: output[:, j] = a[:, q[j]]."""
    a = np.asarray(a, dtype=np.float64)
    q = check_perm(q, a.shape[1])
    return a[:, q]


def apply_inv_row_perm(p, a):
    """Inverse row reorder: output[p[i], :] = a[i, :] (applies P^T to a)."""
    a = np.asarray(a, dtype=np.float64)
    p = check_perm(p, a.shape[0])
    out = np.empty_like(a)
    out[p, :] = a
    return out
