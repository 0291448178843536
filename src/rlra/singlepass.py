"""Single-pass randomized LU over column-streamed matrices.

Both sketches G = A^T Omega and H = A G are made while each column of A is
read exactly once; the factorization then works on the small sketches
alone.  A stream hands out its columns in panels, in ascending order, and
chooses their width itself unless the caller does.  A matrix held in
memory, a dense array or the CSC matrix read from a Matrix Market file, is
one panel, the matrix itself: the sweep is then the two products
G = A^T Omega and H = A G, dense ones in row bands on the pool (see
accessors.dense_matmul), sparse ones at O(nnz k), never densified.  An
.rlm file is swept in DEFAULT_PANEL-column panels, so that at most two are
in memory; each read runs on the accessors' pool while the caller
multiplies the panel before it, so a sweep from a file costs about its
reads or its products, whichever is slower, rather than both, and H is
summed over the panels.
"""

import contextlib
from concurrent import futures

import numpy as np
import scipy.sparse as sp

from . import accessors, core, fileio, fixedrank, kernels
from .accessors import dense_matmul
from .rangefinder import check_width

DEFAULT_PANEL = 256


class _StreamBase:
    """Single-use pull interface; subclasses implement panels(width), which
    yields (j0, panel) in ascending column order, panels width columns wide
    or, at width None, as wide as the stream chooses, and to_dense(), the
    whole matrix as an array, which leaves the stream unread."""

    def __init__(self, shape, width):
        self.shape = shape
        self.columns_pulled = 0
        self._spent = False
        self._width = width  # the panel width at width None

    def _claim(self, width):
        """Marks the stream spent; returns the (j0, j1) column ranges of
        its one sweep in panels width columns wide."""
        if self._spent:
            raise RuntimeError("stream already consumed; columns are single-use")
        width = self._width if width is None else width
        if width < 1:
            raise ValueError("panel width must be >= 1")
        self._spent = True
        n = self.shape[1]
        return [(j0, min(j0 + width, n)) for j0 in range(0, n, width)]


class _InMemoryStream(_StreamBase):
    """Streams a matrix held whole, a dense array or a CSC matrix.  By
    default the one panel is the matrix itself; an explicit width gives
    column slices of it."""

    def __init__(self, a):
        self._a = a
        super().__init__(a.shape, max(a.shape[1], 1))

    def panels(self, width=None):
        n = self.shape[1]
        for j0, j1 in self._claim(width):
            self.columns_pulled += j1 - j0
            # a CSC column slice is a copy, even of every column
            yield j0, self._a if j1 - j0 == n else self._a[:, j0:j1]

    def to_dense(self):
        return self._a.toarray() if sp.issparse(self._a) else self._a


class DenseColumnStream(_InMemoryStream):
    """Streams an in-memory dense matrix."""

    def __init__(self, a):
        super().__init__(core.as_fmatrix(a))


class RlraFileColumnStream(_StreamBase):
    """Streams an .rlm file without loading it whole: each panel is one
    column-range read through fileio.read_rlra, DEFAULT_PANEL columns wide
    unless the caller asks for another width.

    The read of panel j + 1 runs as one job on the accessors' pool while
    the caller works on panel j; the first panel's read is not hidden.
    Each panel is a fresh F-ordered array, allocated on the calling thread
    (allocated in the job instead, a dense-pass benchmark run's peak RSS
    rose from 264 to 323 MB) and never reused, so panels already handed
    out keep their values.  One panel is in flight beside the caller's:
    drop each panel before asking for the next, as stream_sketch does, and
    at most two are alive.  A read error reaches the caller at the panel
    it hit; then, as after closing the generator, no read is running.  The
    reads never wait on the pool, so a one-worker pool cannot deadlock.
    """

    def __init__(self, path):
        self._path = path
        super().__init__(fileio.read_rlra_header(path), DEFAULT_PANEL)

    def panels(self, width=None):
        ranges = self._claim(width)
        pool = accessors._executor()
        job = self._read_ahead(pool, *ranges[0]) if ranges else None
        try:
            for (j0, j1), after in zip(ranges, ranges[1:] + [None]):
                block = job.result()
                job = self._read_ahead(pool, *after) if after else None
                self.columns_pulled += j1 - j0
                yield j0, block
        finally:
            if job is not None:
                futures.wait([job])  # no read outlives the sweep

    def _read_ahead(self, pool, j0, j1):
        out = np.empty((self.shape[0], j1 - j0), order="F")
        return pool.submit(fileio.read_rlra, self._path, j0, j1, out)

    def to_dense(self):
        return fileio.read_rlra(self._path)


class MatrixMarketColumnStream(_InMemoryStream):
    """Streams a Matrix Market file, read whole into CSC on open; its panels
    are the CSC matrix or sparse column slices of it, never densified."""

    def __init__(self, path):
        super().__init__(fileio.read_mm(path))


def stream_sketch(stream, k, seed, panel=None):
    """One sweep: G row block = panel^T Omega, H += panel @ (G block).

    Omega is m x k; returns the pair (G, H), n x k and m x k.  The panels
    are stream.panels(panel), at panel None as wide as the stream chooses
    (see the module docstring); a panel of all n columns makes G and H its
    two products, with nothing copied or summed.  Panels may be dense
    arrays or scipy.sparse matrices; a sparse panel costs O(nnz k).  Raises
    on a stream that delivers the wrong number of columns, and
    NonFiniteInput on a panel with NaN or infinite entries (seen in its
    k-wide product panel^T Omega, without a scan of the panel).
    """
    m, n = stream.shape
    check_width(stream, k)
    # Gaussian, unlike the multi-pass drivers' random signs (core.rademacher):
    # with random signs, acceptance criterion 08's k = 80 mean read 5.14x
    # the optimum against its 5x bound (Gaussian 4.72x, seeds 0-19)
    om = core.gaussian(seed, m, k)
    g = h = None
    count = 0
    # closed on any exit, so no read-ahead outlives the sweep
    with contextlib.closing(stream.panels(panel)) as panels:
        for j0, block in panels:
            w = block.shape[1]
            sparse = sp.issparse(block)
            # a sparse panel's transposed form would cost two more sparse
            # transposes: 3 ms on a 29-ms single_pass_lu of a 5000^2 matrix at
            # density 1e-3 (k = 30, one thread)
            gb = core.require_finite(
                block.T @ om if sparse else dense_matmul(block.T, om),
                f"panel^T Omega for stream columns {j0}..{j0 + w - 1}",
            )
            hb = block @ gb if sparse else dense_matmul(block, gb)
            count += w
            del block  # before the next panel is read, so at most two are alive
            if w == n:
                g, h = gb, hb
                continue
            if h is None:
                g, h = np.empty((n, k)), np.zeros((m, k))
            g[j0 : j0 + w, :] = gb
            h += hb
    if count != n:
        raise ValueError(f"stream delivered {count} columns, expected {n}")
    return g, h


def single_pass_lu(stream, k, seed, q_os=0, panel=None):
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
    makes the factors more accurate, for an SVD of the small core; it also
    makes R ill-conditioned (cond about 5e9 at fast 2000^2, q_os = 40), so
    A Q then takes one refinement step, A Q += (H - A Q R) R^+.  The
    stream's panels may be dense or sparse, and are as wide as the stream
    chooses unless panel is given (see stream_sketch).

    Raises ValueError for k < 1, q_os < 0 or k + q_os above min(m, n),
    before any column is read.
    """
    fixedrank._validate_rank(stream, k, q_os)
    g, h = stream_sketch(stream, k + q_os, seed, panel=panel)
    q, r, rp = kernels.pinv_factor(g)
    aq = h @ rp
    if q_os:
        aq += (h - aq @ r) @ rp  # one step of iterative refinement
        w = np.linalg.svd(kernels.eqr(aq).R)[2][:k].T
        aq, q = aq @ w, q @ w
    return fixedrank.lu_from_projection(aq, q)


def single_pass_lu_rowmajor(a, k, seed, q_os=0, panel=None):
    """Single-pass LU for a row-major source: factor A^T, transpose back.

    The transpose of a C-ordered A is F-ordered, so it is swept in one
    panel, A^T itself, with no copy.
    """
    at = DenseColumnStream(np.asarray(a).T)
    ft = single_pass_lu(at, k, seed, q_os=q_os, panel=panel)
    return fixedrank.LowRankLU(p=ft.q, q=ft.p, L=ft.U.T, U=ft.L.T, rank=ft.rank)
