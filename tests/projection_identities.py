"""Dense references shared by the tests: the projection identities behind
powerlu_fp, principal angles between computed ranges, the truncated SVD
oracle and the spectral norm, an exact-rank matrix, an accessor that overstates its norm, and the 2011
single-pass baseline that single_pass_lu is measured against.

The identity checks evaluate both sides directly on a dense A; the library
tracks the residual energy by subtraction.
"""

import numpy as np

from rlra import core
from rlra.accessors import InstrumentedAccessor
from rlra.errors import RlraError
from rlra.kernels import LowRankSVD


def error_indicator_check(a, v):
    """Evaluate both sides of ||A - (AV)V^T||_F^2 = ||A||_F^2 - ||AV||_F^2.

    Rejects a non-orthonormal V.
    """
    a = np.asarray(a, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    gram_defect = np.abs(v.T @ v - np.eye(v.shape[1])).max()
    if gram_defect > 1e-8:
        raise ValueError(f"V is not orthonormal: Gram defect {gram_defect:.3e}")
    av = a @ v
    lhs = core.fro_norm(a - av @ v.T) ** 2
    rhs = core.fro_norm(a) ** 2 - core.fro_norm(av) ** 2
    return lhs, rhs


def projection_decomposition_check(a, v_blocks):
    """Max defect of the accumulated-projector recursion over the blocks.

    P_i = sum of V_j V_j^T must stay idempotent, and the residual recursion
    A_i = A_{i-1} (I - V_i V_i^T) must equal A (I - P_i) directly.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[1]
    proj = np.zeros((n, n))
    ai = a.copy()
    defect = 0.0
    for vj in v_blocks:
        vj = np.asarray(vj, dtype=np.float64)
        proj = proj + vj @ vj.T
        ai = ai - (ai @ vj) @ vj.T
        defect = max(
            defect,
            float(np.abs(proj @ proj - proj).max()),
            core.fro_norm(ai - (a - a @ proj)),
        )
    return defect


def subspace_angle(x, y):
    """Largest principal angle (radians) between the column spans of x and y."""
    qx, _ = np.linalg.qr(x)
    qy, _ = np.linalg.qr(y)
    c = qx.T @ qy
    cos_min = np.linalg.svd(c, compute_uv=False)[-1]
    if cos_min**2 <= 0.5:
        return float(np.arccos(np.clip(cos_min, -1.0, 1.0)))
    # near-aligned spans: the cosine saturates at 1 and loses half the
    # digits, while the residual sine stays fully accurate
    sin_max = np.linalg.svd(qy - qx @ c, compute_uv=False)[0]
    return float(np.arcsin(np.clip(sin_max, -1.0, 1.0)))


def range_agreement(f1, f2):
    """Largest principal angle between the L ranges of two LowRankLU
    factorizations, each with its row permutation undone."""
    if f1.L.shape[0] != f2.L.shape[0]:
        raise ValueError("row dimensions differ")
    if f1.rank != f2.rank:
        raise ValueError(f"rank mismatch: {f1.rank} vs {f2.rank}")
    return subspace_angle(core.apply_inv_row_perm(f1.p, f1.L),
                          core.apply_inv_row_perm(f2.p, f2.L))


def tsvd(a, k):
    """Top-k singular triplets; the optimal rank-k approximation oracle."""
    a = np.asarray(a, dtype=np.float64)
    r = min(a.shape)
    if not 1 <= k <= r:
        raise ValueError(f"k={k} outside 1..{r}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return LowRankSVD(u[:, :k], s[:k], vt[:k].T)


def spec_norm(a):
    """Largest singular value."""
    return float(tsvd(a, 1).S[0])


def duplicated_rows(m, n, r, seed):
    """m x n matrix of exact rank r: every row is a bitwise copy of one of r
    integer rows in 0..255 (so it is also a valid 8-bit image)."""
    rng = np.random.default_rng(seed)
    picker = np.zeros((m, r))
    picker[np.arange(m), rng.integers(0, r, m)] = 1.0
    palette = rng.integers(0, 256, size=(r, n)).astype(np.float64)
    return picker @ palette


class OverstatedNorm(InstrumentedAccessor):
    """Reports twice the true Frobenius norm, so no width can converge."""

    def fro_norm(self):
        return 2.0 * super().fro_norm()


class IllConditionedSolve(RlraError):
    """The square core solve of single_pass_baseline_2011 is too
    ill-conditioned to trust."""


def single_pass_baseline_2011(a, k, seed):
    """Two-sided sketch + linear solve baseline (accuracy yardstick only).

    Y = A Omega and W = A^T Psi are compressed to orthonormal Q, Qt; the core
    is recovered from (Psi^T Q) B = Psi^T A Qt.  Conceptually single-pass; the
    implementation takes a dense matrix since it exists only for comparison.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside 1..min{(m, n)}")
    rng = np.random.default_rng(seed)
    om = core.gaussian_from(rng, n, k)
    psi = core.gaussian_from(rng, m, k)
    w = a.T @ psi
    q, _ = np.linalg.qr(a @ om)
    qt, _ = np.linalg.qr(w)
    lhs = psi.T @ q
    sv = np.linalg.svd(lhs, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise IllConditionedSolve(
            f"core solve condition {sv[0] / max(sv[-1], np.finfo(float).tiny):.2e}"
        )
    b = np.linalg.solve(lhs, w.T @ qt)
    ub, s, vbt = np.linalg.svd(b)
    return LowRankSVD(U=q @ ub, S=s, V=qt @ vbt.T)
