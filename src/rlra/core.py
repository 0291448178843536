"""Dense-matrix plumbing: canonical layout, norms, permutations, seeded test
matrices (Gaussian and Rademacher).

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
    "rademacher",
    "fro_norm",
    "rel_fro_error",
    "check_perm",
    "invert_perm",
    "apply_row_perm",
    "apply_col_perm",
    "apply_inv_row_perm",
    "require_finite",
    "require_real",
]


def as_fmatrix(a):
    """Coerce to a 2-d float64 column-major array (copying only if needed);
    integers are cast, complex input raises ValueError."""
    a = np.asarray(require_real(a, "A"), dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    return np.asfortranarray(a)


def require_finite(x, what):
    """Return x unchanged; raise NonFiniteInput if it holds NaN or infinity."""
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} has NaN or infinite entries")
    return x


def require_real(x, what):
    """Return x (an array, array-like or sparse matrix) unchanged; raise
    ValueError if it is complex, whose cast to float64 would drop the
    imaginary part."""
    if np.iscomplexobj(x):
        raise ValueError(f"{what} is complex; only real matrices are supported")
    return x


def gaussian(seed, m, n):
    """Standard normal m x n matrix, reproducible from an integer seed.

    The draw stream fills the matrix column by column, so for a fixed seed
    the first columns agree across different requested widths.
    single_pass_lu draws its test matrix here; the multi-pass drivers draw
    theirs from rademacher, which keeps the same column-prefix property.
    """
    if m < 1 or n < 1:
        raise ValueError("gaussian needs m, n >= 1")
    return gaussian_from(np.random.default_rng(seed), m, n)


def gaussian_from(rng, m, n):
    """Like gaussian, but consuming an existing Generator stream."""
    return rng.standard_normal(m * n).reshape((m, n), order="F")


def rademacher(seed, m, n):
    """Random-sign m x n matrix, every entry +1.0 or -1.0, reproducible from
    an integer seed.

    The multi-pass drivers' test matrix: one bit of the seeded generator's
    byte stream per entry, about a tenth of the cost of a Gaussian draw
    (20000 x 40: 1.9 ms against 17.1 ms, BENCH_rademacher.json).  Bits fill
    the F-ordered matrix column by column, so for a fixed seed the first
    columns agree across different requested widths.  The LU drivers rely
    on this to sketch at width k, and drivers compared under a shared test
    matrix draw it first, from the same seed.
    """
    if m < 1 or n < 1:
        raise ValueError("rademacher needs m, n >= 1")
    raw = np.random.default_rng(seed).bytes(-(-m * n // 8))
    signs = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=m * n).view(np.int8)
    signs *= 2  # bits 0, 1 -> signs -1, +1, in place: one m * n-byte temporary
    signs -= 1
    return signs.astype(np.float64).reshape((m, n), order="F")


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
