"""Dense reference checks of the projection identities behind powerlu_fp.

Both evaluate the identities directly on a dense A, so they exist for the
tests only; the library tracks the residual energy by subtraction.
"""

import numpy as np

from rlra import core


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
