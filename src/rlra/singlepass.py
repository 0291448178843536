"""Single-pass randomized LU over column-streamed matrices.

Both sketches G = A^T Omega and H = A G are accumulated while each column of
A is read exactly once; the factorization then works on the small sketches
alone.  Streams deliver columns in panels, dense arrays or (for Matrix
Market files) scipy.sparse column slices, so a sparse sweep costs O(nnz k)
rather than O(m n k); .rlm panels are column reads through fileio.  The
accumulation order is fixed (ascending column index) for reproducibility.
"""

import numpy as np
import scipy.sparse as sp

from . import core, fileio, fixedrank, kernels
from .rangefinder import check_width

DEFAULT_PANEL = 256


class _StreamBase:
    """Single-use pull interface; subclasses implement _panel(j0, j1) and
    to_dense(), the whole matrix as an array, which leaves the stream unread."""

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


class _InMemoryStream(_StreamBase):
    """Streams a matrix held whole, a dense array or a CSC matrix; panels
    are column slices of it."""

    def __init__(self, a):
        self._a = a
        super().__init__(a.shape)

    def _panel(self, j0, j1):
        return self._a[:, j0:j1]

    def to_dense(self):
        return self._a.toarray() if sp.issparse(self._a) else self._a


class DenseColumnStream(_InMemoryStream):
    """Streams an in-memory dense matrix."""

    def __init__(self, a):
        super().__init__(core.as_fmatrix(a))


class RlraFileColumnStream(_StreamBase):
    """Streams an .rlm file without loading it whole: each panel is one
    column-range read through fileio.read_rlra."""

    def __init__(self, path):
        self._path = path
        super().__init__(fileio.read_rlra_header(path))

    def _panel(self, j0, j1):
        return fileio.read_rlra(self._path, j0, j1)

    def to_dense(self):
        return fileio.read_rlra(self._path)


class MatrixMarketColumnStream(_InMemoryStream):
    """Streams a Matrix Market file, read whole into CSC on open; panels are
    sparse CSC column slices, never densified."""

    def __init__(self, path):
        super().__init__(fileio.read_mm(path))


def stream_sketch(stream, k, seed, panel=DEFAULT_PANEL):
    """One sweep: G row block = panel^T Omega, H += panel @ (G block).

    Omega is m x k; returns the pair (G, H), n x k and m x k.  Panels may
    be dense arrays or scipy.sparse matrices; a sparse panel costs
    O(nnz k).  Raises on a stream that delivers the wrong number of
    columns, and NonFiniteInput on a panel with NaN or infinite entries
    (seen in its k-wide product panel^T Omega, without a scan of the panel).
    """
    m, n = stream.shape
    check_width(stream, k)
    om = core.gaussian(seed, m, k)
    g = np.empty((n, k))
    h = np.zeros((m, k))
    count = 0
    for j0, block in stream.panels(panel):
        w = block.shape[1]
        sparse = sp.issparse(block)
        # dense panels: transposed GEMMs, so the long side of each product
        # leads (see accessors).  On a sparse panel SciPy gives the same
        # products bitwise either way, but the transposed form costs two
        # more sparse transposes each: 3 ms on a 29-ms single_pass_lu of a
        # 5000^2 matrix at density 1e-3 (k = 30, one thread)
        gb = core.require_finite(
            block.T @ om if sparse else (om.T @ block).T,
            f"panel^T Omega for stream columns {j0}..{j0 + w - 1}",
        )
        g[j0 : j0 + w, :] = gb
        h += block @ gb if sparse else (gb.T @ block.T).T
        count += w
    if count != n:
        raise ValueError(f"stream delivered {count} columns, expected {n}")
    return g, h


def single_pass_lu(stream, k, seed, q_os=0, panel=DEFAULT_PANEL):
    """Rank-k LU factorization reading each column of A exactly once.

    The sketches G = A^T Omega = Q R and H = A G (width l = k + q_os) give
    A Q = H R^+ (kernels.pinv_factor), so A Q Q^T is known without another
    pass.  Where G is numerically rank-deficient (l above the numerical
    rank of A, or A zero), R^+ is cut and H R^+ = A Q R R^+, where
    Q R R^+ Q^T is the projector onto range(G): the factors are still k
    columns wide, and exact to rounding at k >= rank(A).  The best rank-k
    approximation inside range(G) is (A Q W)(Q W)^T, where W holds the
    top-k right singular vectors of A Q, from its QR and an l x l SVD (the
    fixed-rank truncation of Tropp, Yurtsever, Udell & Cevher, SIMAX 2017);
    fixedrank.lu_from_projection(A Q W, Q W) assembles the LU.  At q_os = 0,
    W would only rotate the whole core, so it is skipped.  Oversampling
    makes the factors more accurate, for an SVD of the small core.  The
    stream's panels may be dense or sparse (see stream_sketch).

    Raises ValueError for k < 1, q_os < 0 or k + q_os above min(m, n),
    before any column is read.
    """
    fixedrank._validate_rank(stream, k, q_os)
    g, h = stream_sketch(stream, k + q_os, seed, panel=panel)
    q, rp = kernels.pinv_factor(g)
    aq = h @ rp
    if q_os:
        w = np.linalg.svd(kernels.eqr(aq).R)[2][:k].T
        aq, q = aq @ w, q @ w
    return fixedrank.lu_from_projection(aq, q)


def single_pass_lu_rowmajor(a, k, seed, q_os=0, panel=DEFAULT_PANEL):
    """Single-pass LU for a row-major source: factor A^T, transpose back.

    The transpose of a C-ordered A is F-ordered, so its column panels are
    views of A's rows.
    """
    at = DenseColumnStream(np.asarray(a, dtype=np.float64).T)
    ft = single_pass_lu(at, k, seed, q_os=q_os, panel=panel)
    return fixedrank.LowRankLU(p=ft.q, q=ft.p, L=ft.U.T, U=ft.L.T, rank=ft.rank)
