"""Single-pass randomized LU over column-streamed matrices.

Both sketches G = A^T Omega and H = A G are accumulated while each column of
A is read exactly once; the factorization then works on the small sketches
alone.  Streams deliver columns in panels, dense arrays or (for Matrix
Market files) scipy.sparse column slices, so a sparse sweep costs O(nnz k)
rather than O(m n k); the accumulation order is fixed (ascending column
index) for reproducibility.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import core, fileio, kernels
from .errors import IllConditionedSolve
from .fixedrank import LowRankLU, LowRankSVD, column_pivot_assembly

DEFAULT_PANEL = 256


class SketchPair(NamedTuple):
    G: np.ndarray  # n x k
    H: np.ndarray  # m x k


class _StreamBase:
    """Single-use pull interface; subclasses implement _panel(j0, j1)."""

    def __init__(self, shape):
        self.shape = shape
        self.columns_pulled = 0
        self._spent = False

    def panels(self, width=DEFAULT_PANEL):
        if self._spent:
            raise RuntimeError("stream already consumed; columns are single-use")
        if width < 1:
            raise ValueError("panel width must be >= 1")
        self._spent = True
        n = self.shape[1]
        for j0 in range(0, n, width):
            j1 = min(j0 + width, n)
            block = self._panel(j0, j1)
            self.columns_pulled += j1 - j0
            yield j0, block


class DenseColumnStream(_StreamBase):
    """Streams an in-memory dense matrix."""

    def __init__(self, a):
        self._a = core.as_fmatrix(a)
        super().__init__(self._a.shape)

    def _panel(self, j0, j1):
        return self._a[:, j0:j1]


class RlraFileColumnStream(_StreamBase):
    """Streams a column-major binary matrix file without loading it whole."""

    def __init__(self, path):
        self._path = path
        super().__init__(fileio.read_rlra_header(path))

    def _panel(self, j0, j1):
        m = self.shape[0]
        with open(self._path, "rb") as fh:
            fh.seek(fileio.RLRA_HEADER_BYTES + 8 * m * j0)
            flat = np.fromfile(fh, dtype="<f8", count=m * (j1 - j0))
        if flat.size != m * (j1 - j0):
            raise IOError(f"{self._path}: truncated column data")
        return flat.reshape((m, j1 - j0), order="F")


class MatrixMarketColumnStream(_StreamBase):
    """Streams a Matrix Market file, read whole into CSC on open; panels are
    sparse CSC column slices, never densified."""

    def __init__(self, path):
        self._a = fileio.read_mm(path)
        super().__init__(self._a.shape)

    def _panel(self, j0, j1):
        return self._a[:, j0:j1]


class TransposingRowStream(_StreamBase):
    """Serves a row-major source by streaming its rows as columns of A^T."""

    def __init__(self, a):
        self._a = np.ascontiguousarray(a, dtype=np.float64)
        super().__init__((self._a.shape[1], self._a.shape[0]))

    def _panel(self, j0, j1):
        return self._a[j0:j1, :].T


def stream_sketch(stream, k, seed, panel=DEFAULT_PANEL):
    """One sweep: G row block = panel^T Omega, H += panel @ (G block).

    Omega is m x k.  Panels may be dense arrays or scipy.sparse matrices;
    a sparse panel costs O(nnz k).  Raises on a stream that delivers the
    wrong number of columns, and NonFiniteInput on a panel with NaN or
    infinite entries (seen in its k-wide product panel^T Omega, without a
    scan of the panel).
    """
    m, n = stream.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside 1..min{(m, n)}")
    om = core.gaussian(seed, m, k)
    g = np.empty((n, k))
    h = np.zeros((m, k))
    count = 0
    for j0, block in stream.panels(panel):
        w = block.shape[1]
        sparse = sp.issparse(block)
        # dense panels: transposed GEMMs, so the long side of each product
        # leads (see accessors)
        gb = core.require_finite(
            np.asarray(block.T @ om) if sparse else (om.T @ block).T,
            f"panel^T Omega for stream columns {j0}..{j0 + w - 1}",
        )
        g[j0 : j0 + w, :] = gb
        h += np.asarray(block @ gb) if sparse else (gb.T @ block.T).T
        count += w
    if count != n:
        raise ValueError(f"stream delivered {count} columns, expected {n}")
    return SketchPair(g, h)


def single_pass_lu(stream, k, seed, q_os=0, panel=DEFAULT_PANEL):
    """Rank-k LU factorization reading each column of A exactly once.

    lu(H) -> (L1, U1, p); T = (G^T)^+ U1^T via the economy QR of G; then
    the column-pivot assembly lu(T) -> (L2, U2, q), L = L1 U2^T, U = L2^T.
    No oversampling by default; with q_os > 0 the sketch is wider and the
    factors are cut back to k afterwards.  The stream's panels may be dense
    or sparse (see stream_sketch).

    Raises IllPosedPseudoinverse when G is numerically rank-deficient
    (k above the numerical rank of A).
    """
    l = k + q_os
    g, h = stream_sketch(stream, l, seed, panel=panel)
    l1, u1, perm = kernels.plu(h)
    t = kernels.pinv_transpose_apply(g, u1.T)
    f = column_pivot_assembly(l1, perm, t)
    return replace(f, L=f.L[:, :k], U=f.U[:k, :], rank=k)


def single_pass_lu_rowmajor(a, k, seed, q_os=0, panel=DEFAULT_PANEL):
    """Single-pass LU for a row-major source: factor A^T, transpose back."""
    ft = single_pass_lu(TransposingRowStream(a), k, seed, q_os=q_os, panel=panel)
    return LowRankLU(p=ft.q, q=ft.p, L=ft.U.T, U=ft.L.T, rank=ft.rank)


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
