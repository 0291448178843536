"""Per-call correctness checks.

A driver call passes when it raised nothing, consumed exactly its pass
budget, returned finite factors, and met its accuracy bound.  For
fixed-rank and single-pass calls on a dense operand that is an err_ratio
(achieved relative error over the optimal rank-k one) within ERR_SLACK times
the workload's worst seed-code value; on a sparse operand, a captured share
of the optimal rank-k energy of at least ENERGY_SLACK times the worst
seed-code share; for powerlu_fp, convergence with relative error at most
eps.  Errors are exact Frobenius norms, computed in column chunks
(dense) or from the nonzeros (sparse), so that neither a full-size residual
nor a dense copy of a sparse operand is ever formed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rlra.fixedrank import LowRankSVD
from rlra.matgen import oracle_error

from workloads import ENERGY_SLACK, ERR_SLACK, PRODUCT_BUDGET

CHUNK_ELEMENTS = 1 << 19  # 4 MB of float64 per residual chunk


def factor_arrays(out):
    """The arrays that make up a factorization, for finiteness and equality."""
    if isinstance(out, LowRankSVD):
        return (out.U, out.S, out.V)
    return (out.p, out.q, out.L, out.U)


def unpermuted(out):
    """(X, Y) with X @ Y approximating A in its own row and column order."""
    if isinstance(out, LowRankSVD):
        return out.U * out.S, out.V.T
    x = np.empty_like(out.L)
    x[out.p] = out.L
    y = np.empty_like(out.U)
    y[:, out.q] = out.U
    return x, y


class DenseTarget:
    """A dense operand with a known spectrum."""

    def __init__(self, a, sigma):
        self.a = a
        self.shape = a.shape
        self.sigma = sigma
        self.fro = float(np.linalg.norm(a))

    def opt_rel(self, k):
        return oracle_error(self.sigma, k)[0] / float(np.linalg.norm(self.sigma))

    def rel_error(self, x, y):
        m, n = self.a.shape
        step = max(1, CHUNK_ELEMENTS // m)
        sq = 0.0
        for j0 in range(0, n, step):
            r = self.a[:, j0 : j0 + step] - x @ y[:, j0 : j0 + step]
            sq += float(np.einsum("ij,ij->", r, r))
        return math.sqrt(sq) / self.fro


class SparseTarget:
    """A sparse operand; the optimum comes from ||A||_F and its top-k svds."""

    def __init__(self, a, fro, top):
        coo = a.tocoo()
        self.shape = a.shape
        self.rows, self.cols, self.vals = coo.row, coo.col, coo.data
        self.fro = fro
        self.top = np.asarray(top)

    def opt_rel(self, k):
        tail = self.fro**2 - float((self.top[:k] ** 2).sum())
        return math.sqrt(max(tail, 0.0)) / self.fro

    def energy_share(self, rel, k):
        """||A||_F^2 - ||A - XY||_F^2 over the sum of the top k sigma_i^2."""
        return (1.0 - rel**2) * self.fro**2 / float((self.top[:k] ** 2).sum())

    def rel_error(self, x, y):
        # ||A - XY||^2 = ||A||^2 - 2 <A, XY> + ||XY||^2; <A, XY> over nonzeros
        step = max(1, CHUNK_ELEMENTS // x.shape[1])
        cross = 0.0
        for s in range(0, self.vals.size, step):
            r, c = self.rows[s : s + step], self.cols[s : s + step]
            cross += float(self.vals[s : s + step] @ np.einsum("ij,ji->i", x[r], y[:, c]))
        gram = float(np.einsum("ij,ij->", x.T @ x, y @ y.T))
        return math.sqrt(max(self.fro**2 - 2.0 * cross + gram, 0.0)) / self.fro


@dataclass
class Call:
    """One driver call as the benchmark saw it."""

    driver: str
    seconds: float
    ref_seconds: float = math.nan  # the reference kernel, timed just before the call
    out: object = None  # the factorization; None if the call raised or once checked
    rank: int = 0  # powerlu_fp's adaptive rank
    converged: bool = False  # powerlu_fp's outcome
    products: int = 0
    columns: int = 0
    error: str = ""  # repr of the exception the call raised
    reasons: list = field(default_factory=list)  # failed checks
    err_ratio: float = math.nan  # fixed-rank and single-pass only


def check(w, target, stream_target, call):
    """Fill call.reasons (empty when it passes) and call.err_ratio."""
    if call.error:
        call.reasons.append(f"raised {call.error}")
        return call
    d = call.driver
    if d == "single_pass":
        if call.columns != stream_target.shape[1]:
            call.reasons.append(f"pulled {call.columns} columns of {stream_target.shape[1]}")
    elif call.products != PRODUCT_BUDGET[d]:
        call.reasons.append(f"{call.products} products, budget {PRODUCT_BUDGET[d]}")
    if not all(np.isfinite(a).all() for a in factor_arrays(call.out)):
        call.reasons.append("non-finite factor")
        return call
    tgt = stream_target if d == "single_pass" else target
    rel = tgt.rel_error(*unpermuted(call.out))
    if d == "powerlu_fp":
        eps = w.fp[0]
        if not call.converged or not rel <= eps:
            call.reasons.append(f"relative error {rel:.3e} above eps {eps:g}")
        return call
    call.err_ratio = rel / tgt.opt_rel(w.k)
    if w.kind == "sparse":
        share = tgt.energy_share(rel, w.k)
        floor = ENERGY_SLACK * w.energy_worst[d]
        if not share >= floor:
            call.reasons.append(f"captured energy share {share:.4f} below {floor:g}")
        return call
    bound = ERR_SLACK * w.err_worst[d]
    if not call.err_ratio <= bound:
        call.reasons.append(f"err_ratio {call.err_ratio:.4f} above {bound:g}")
    return call
