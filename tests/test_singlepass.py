import os
import threading
import time
from concurrent import futures

import numpy as np
import pytest
import scipy.sparse as sp

from rlra import accessors, core, fileio, fixedrank, matgen, singlepass
from rlra.errors import NonFiniteInput
from projection_identities import single_pass_baseline_2011


def exact_rank_matrix(m, n, r, seed):
    rng = np.random.default_rng(seed)
    left = core.gaussian_from(rng, m, r)
    right = core.gaussian_from(rng, r, n)
    return left @ right


def test_identity_stream_sketch_is_the_draw():
    # A = I makes both sketches equal Omega, and the panel accumulation
    # touches disjoint rows so the result is bitwise exact
    n, k = 30, 6
    g, h = singlepass.stream_sketch(
        singlepass.DenseColumnStream(np.eye(n)), k, seed=3, panel=7
    )
    om = core.gaussian(3, n, k)
    assert np.array_equal(g, om)
    assert np.array_equal(h, om)


def test_stream_sketch_matches_dense_products():
    a = core.gaussian(4, 40, 25)
    g, h = singlepass.stream_sketch(singlepass.DenseColumnStream(a), 8, seed=5)
    om = core.gaussian(5, 40, 8)
    assert np.allclose(g, a.T @ om, atol=1e-13 * core.fro_norm(a))
    assert np.allclose(h, a @ (a.T @ om), atol=1e-12 * core.fro_norm(a) ** 2)


def test_stream_sketch_panel_width_invariance():
    a = core.gaussian(6, 35, 30)
    g1, h1 = singlepass.stream_sketch(singlepass.DenseColumnStream(a), 7, 1, panel=1)
    g2, h2 = singlepass.stream_sketch(singlepass.DenseColumnStream(a), 7, 1, panel=256)
    assert np.allclose(g1, g2, atol=1e-12)
    assert np.allclose(h1, h2, atol=1e-12)


def test_columns_pulled_counts_one_sweep():
    a = core.gaussian(7, 20, 33)
    stream = singlepass.DenseColumnStream(a)
    singlepass.stream_sketch(stream, 5, seed=0, panel=8)
    assert stream.columns_pulled == 33


def test_streams_are_single_use():
    stream = singlepass.DenseColumnStream(np.eye(5))
    list(stream.panels(2))
    with pytest.raises(RuntimeError, match="single-use"):
        list(stream.panels(2))


def test_panel_width_validation():
    stream = singlepass.DenseColumnStream(np.eye(5))
    with pytest.raises(ValueError):
        list(stream.panels(0))


def test_stream_length_mismatch_detected():
    class ShortStream(singlepass.DenseColumnStream):
        def panels(self, width=singlepass.DEFAULT_PANEL):
            yield from list(super().panels(width))[:-1]

    with pytest.raises(ValueError, match="delivered"):
        singlepass.stream_sketch(ShortStream(np.eye(10)), 2, seed=0, panel=3)


def test_single_pass_lu_captures_exact_rank():
    a = exact_rank_matrix(80, 60, 5, seed=8)
    f = singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 5, seed=0)
    assert core.rel_fro_error(a, fixedrank.reconstruct(f)) <= 1e-6
    assert f.rank == 5
    core.check_perm(f.p, 80)
    core.check_perm(f.q, 60)


def test_single_pass_lu_oversampled_cuts_back():
    a, sigma = matgen.gen_decay("fast", 120, 100, seed=9)
    f = singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 20, seed=0, q_os=5)
    assert f.L.shape == (120, 20)
    assert f.U.shape == (20, 100)
    err = core.rel_fro_error(a, fixedrank.reconstruct(f))
    opt = matgen.oracle_error(sigma, 20)[0] / core.fro_norm(sigma)
    assert err <= 10.0 * opt


@pytest.mark.parametrize("kind,k", [("fast", 40), ("sshaped", 20)])
def test_single_pass_lu_oversampling_does_not_raise_error(kind, k):
    # the rank-k truncation of the oversampled core: mean error over the
    # optimum falls (or stays) as q_os grows, where keeping the first k
    # columns of a (k + q_os)-wide LU made it rise
    a, sigma = matgen.gen_decay(kind, 500, 500, seed=0)
    opt = matgen.oracle_error(sigma, k)[0] / core.fro_norm(sigma)
    means = []
    for q_os in (0, 10, 40):
        errs = [
            core.rel_fro_error(a, fixedrank.reconstruct(singlepass.single_pass_lu(
                singlepass.DenseColumnStream(a), k, seed=s, q_os=q_os)))
            for s in range(10)
        ]
        means.append(np.mean(errs) / opt)
    assert means[1] <= means[0] and means[2] <= means[1], means


def test_single_pass_lu_factors_rank_above_numerical_rank():
    # G = A^T Omega is 60 x 8 of rank 5: the cut pseudoinverse still gives
    # k-column factors, exact to rounding
    a = exact_rank_matrix(80, 60, 5, seed=10)
    f = singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 8, seed=0)
    assert f.L.shape == (80, 8) and f.U.shape == (8, 60) and f.rank == 8
    assert core.rel_fro_error(a, fixedrank.reconstruct(f)) <= 1e-13


@pytest.mark.parametrize("k,q_os,why", [
    (0, 5, "target rank"),
    (-2, 5, "target rank"),
    (10, -3, "oversampling"),
    (45, 10, "sketch width 55"),
])
def test_single_pass_lu_rejects_bad_rank_before_reading(k, q_os, why):
    stream = singlepass.DenseColumnStream(core.gaussian(9, 60, 50))
    with pytest.raises(ValueError, match=why):
        singlepass.single_pass_lu(stream, k, seed=0, q_os=q_os)
    assert stream.columns_pulled == 0


def test_file_stream_matches_dense(tmp_path):
    a = core.gaussian(11, 50, 37)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    gd, hd = singlepass.stream_sketch(singlepass.DenseColumnStream(a), 6, 2, panel=16)
    gf, hf = singlepass.stream_sketch(singlepass.RlraFileColumnStream(path), 6, 2, panel=16)
    assert np.array_equal(gd, gf)
    assert np.array_equal(hd, hf)


def test_streams_densify_without_being_consumed(tmp_path):
    acc = matgen.gen_sparse(30, 20, 0.2, seed=18)
    a = acc.to_dense()
    rlm, mtx = str(tmp_path / "a.rlm"), str(tmp_path / "a.mtx")
    fileio.write_rlra(rlm, a)
    fileio.write_mm(mtx, acc.sparse)
    for stream in (singlepass.DenseColumnStream(a), singlepass.RlraFileColumnStream(rlm),
                   singlepass.MatrixMarketColumnStream(mtx)):
        dense = stream.to_dense()
        assert isinstance(dense, np.ndarray)
        assert np.allclose(dense, a, rtol=1e-15, atol=0)
        singlepass.stream_sketch(stream, 3, seed=0)
        assert stream.columns_pulled == 20


def test_file_stream_truncated_after_open(tmp_path):
    path = tmp_path / "a.rlm"
    fileio.write_rlra(str(path), core.gaussian(11, 50, 37))
    stream = singlepass.RlraFileColumnStream(str(path))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(IOError, match="a.rlm"):
        list(stream.panels(16))


@pytest.mark.parametrize("m,n,k", [(12, 8, 3), (300, 200, 30), (600, 400, 30)])
def test_dense_stream_sketches_agree(tmp_path, m, n, k):
    # every dense stream hands out F-ordered m x w panels, so the transposed
    # panel products give bitwise-equal sketches whatever the source
    a = core.gaussian(20, m, n)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    streams = [
        singlepass.DenseColumnStream(a),
        singlepass.RlraFileColumnStream(path),
        singlepass.DenseColumnStream(np.ascontiguousarray(a.T).T),
    ]
    (g, h), *others = [singlepass.stream_sketch(s, k, seed=3, panel=64) for s in streams]
    for go, ho in others:
        assert np.array_equal(go, g)
        assert np.array_equal(ho, h)
    g_ref = a.T @ core.gaussian(3, m, k)
    assert np.linalg.norm(g - g_ref) <= 1e-13 * np.linalg.norm(g_ref)
    h_ref = a @ g
    assert np.linalg.norm(h - h_ref) <= 1e-13 * np.linalg.norm(h_ref)


def head_stream_sketch(a, k, seed, panel):
    # stream_sketch's dense panel products as one GEMM each, as they were
    # before they were banded
    om = core.gaussian(seed, a.shape[0], k)
    g = np.empty((a.shape[1], k))
    h = np.zeros((a.shape[0], k))
    for j0 in range(0, a.shape[1], panel):
        block = a[:, j0 : j0 + panel]
        gb = (om.T @ block).T
        g[j0 : j0 + block.shape[1]] = gb
        h += (gb.T @ block.T).T
    return g, h


@pytest.mark.parametrize("rlm", [False, True])
def test_dense_stream_sketch_bitwise_at_any_worker_count(tmp_path, monkeypatch, request, rlm):
    # at 1031 rows and k = 30: from .rlm, the H products of the two full
    # 256-column panels are split and the 88-column last panel's is under
    # the floor; in memory, the one 600-column panel's G (600 rows) and
    # H (1031 rows) products are both split
    a = core.gaussian(21, 1031, 600)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    want = head_stream_sketch(a, 30, 4, singlepass.DEFAULT_PANEL if rlm else a.shape[1])
    counts = []
    run_bands = accessors._run_bands
    monkeypatch.setattr(accessors, "_run_bands", lambda job, n: counts.append(n) or run_bands(job, n))
    # a sweep also runs where more workers than cores take its bands (and,
    # from .rlm, read ahead)
    for workers in (1, 2, 8):
        pool = futures.ThreadPoolExecutor(workers)
        request.addfinalizer(pool.shutdown)
        monkeypatch.setattr(accessors, "_pool", pool)
        stream = singlepass.RlraFileColumnStream(path) if rlm else singlepass.DenseColumnStream(a)
        g, h = singlepass.stream_sketch(stream, 30, 4)
        assert np.array_equal(g, want[0]) and np.array_equal(h, want[1])
    assert counts == ([2, 2, 3, 3] if rlm else [2, 2, 2, 4])  # at 2 workers, then 8


def rlm_file(tmp_path, m, n, seed):
    a = core.gaussian(seed, m, n)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    return a, path


def track_reads(monkeypatch, before=None):
    """Wrap fileio.read_rlra; returns the list of (j0, thread, ended) each
    read appends to when it starts, ended set once it returns or raises.
    before(j0), when given, runs at the start of each read."""
    reads = []
    read = fileio.read_rlra

    def tracked(path, j0=0, j1=None, out=None):
        ended = threading.Event()
        reads.append((j0, threading.current_thread(), ended))
        try:
            if before:
                before(j0)
            return read(path, j0, j1, out)
        finally:
            ended.set()

    monkeypatch.setattr(fileio, "read_rlra", tracked)
    return reads


def test_file_stream_panels_keep_their_values(tmp_path):
    # every panel is a fresh array: one handed out is never the buffer a
    # later read fills
    a, path = rlm_file(tmp_path, 40, 70, seed=22)
    panels = list(singlepass.RlraFileColumnStream(path).panels(16))
    assert [j0 for j0, _ in panels] == [0, 16, 32, 48, 64]
    for j0, block in panels:
        assert block.flags.f_contiguous
        assert np.array_equal(block, a[:, j0 : j0 + 16])


def test_file_stream_read_error_reaches_caller_at_its_panel(tmp_path, monkeypatch):
    a, path = rlm_file(tmp_path, 40, 70, seed=23)
    stream = singlepass.RlraFileColumnStream(path)
    handles = []

    def opener(file, mode="r"):
        if len(handles) == 2:  # panel 32's read finds the file truncated
            os.truncate(file, os.path.getsize(file) - 8)
        handles.append(open(file, mode))
        return handles[-1]

    monkeypatch.setattr(fileio, "open", opener, raising=False)
    reads = track_reads(monkeypatch)
    got = []
    with pytest.raises(IOError, match="a.rlm"):
        for j0, block in stream.panels(16):
            got.append(j0)
            assert np.array_equal(block, a[:, j0 : j0 + 16])
    assert got == [0, 16]
    assert [j0 for j0, _, _ in reads] == [0, 16, 32]  # none started past the error
    assert all(ended.is_set() for _, _, ended in reads)
    assert len(handles) == 3 and all(fh.closed for fh in handles)


def test_closing_file_stream_waits_for_its_read(tmp_path, monkeypatch):
    _, path = rlm_file(tmp_path, 40, 70, seed=24)
    stream = singlepass.RlraFileColumnStream(path)
    reads = track_reads(monkeypatch, before=lambda j0: j0 and time.sleep(0.2))
    panels = stream.panels(16)
    assert next(panels)[0] == 0
    panels.close()  # panel 16 is still being read
    assert [j0 for j0, _, _ in reads] == [0, 16]
    assert all(ended.is_set() for _, _, ended in reads)
    assert stream.columns_pulled == 16


def test_file_stream_reads_on_the_only_worker(tmp_path, monkeypatch, request):
    # a one-worker pool: the reads hold its only worker, while the panel
    # products run whole on the calling thread
    a, path = rlm_file(tmp_path, 1031, 600, seed=21)
    pool = futures.ThreadPoolExecutor(1)
    # no wait: a deadlocked worker then fails the test instead of hanging it
    request.addfinalizer(lambda: pool.shutdown(wait=False))
    monkeypatch.setattr(accessors, "_pool", pool)
    reads = track_reads(monkeypatch)
    result = []
    sweep = threading.Thread(target=lambda: result.append(singlepass.stream_sketch(
        singlepass.RlraFileColumnStream(path), 30, 4)))
    sweep.start()
    sweep.join(timeout=30)
    assert not sweep.is_alive()
    want = head_stream_sketch(a, 30, 4, singlepass.DEFAULT_PANEL)
    assert np.array_equal(result[0][0], want[0]) and np.array_equal(result[0][1], want[1])
    assert [j0 for j0, _, _ in reads] == [0, 256, 512]
    assert len({t for _, t, _ in reads}) == 1 and reads[0][1] is not sweep


def test_matrix_market_stream(tmp_path):
    acc = matgen.gen_sparse(60, 45, 0.1, seed=12)
    path = str(tmp_path / "a.mtx")
    fileio.write_mm(path, acc.sparse)
    stream = singlepass.MatrixMarketColumnStream(path)
    assert stream.shape == (60, 45)
    g, h = singlepass.stream_sketch(stream, 5, seed=0, panel=10)
    gd, hd = singlepass.stream_sketch(
        singlepass.DenseColumnStream(acc.to_dense()), 5, seed=0, panel=10
    )
    assert np.allclose(g, gd, atol=1e-12)
    assert np.allclose(h, hd, atol=1e-12)


def test_matrix_market_stream_is_real_float64(tmp_path):
    ints = sp.random(30, 20, density=0.2, format="coo", random_state=5)
    ints.data = np.rint(ints.data * 100)
    ints = ints.astype(np.int64)
    path = str(tmp_path / "i.mtx")
    fileio.write_mm(path, ints)
    stream = singlepass.MatrixMarketColumnStream(path)
    assert stream.to_dense().dtype == np.float64
    g, h = singlepass.stream_sketch(stream, 4, seed=0, panel=8)
    gd, hd = singlepass.stream_sketch(
        singlepass.DenseColumnStream(ints.toarray()), 4, seed=0, panel=8
    )
    assert np.allclose(g, gd, atol=1e-12) and np.allclose(h, hd, atol=1e-12)

    complex_path = str(tmp_path / "c.mtx")
    fileio.write_mm(complex_path, ints * 1j)
    with pytest.raises(IOError, match="complex"):
        singlepass.MatrixMarketColumnStream(complex_path)


def test_rowmajor_adapter_transposes():
    a = exact_rank_matrix(40, 70, 6, seed=13)
    f = singlepass.single_pass_lu_rowmajor(a, 6, seed=1)
    ft = singlepass.single_pass_lu(
        singlepass.DenseColumnStream(np.asfortranarray(a.T)), 6, seed=1
    )
    assert np.array_equal(fixedrank.reconstruct(f), fixedrank.reconstruct(ft).T)
    assert core.rel_fro_error(a, fixedrank.reconstruct(f)) <= 1e-6


def test_stream_sketch_rank_validation():
    with pytest.raises(ValueError):
        singlepass.stream_sketch(singlepass.DenseColumnStream(np.eye(5)), 6, 0)
    with pytest.raises(ValueError):
        singlepass.stream_sketch(singlepass.DenseColumnStream(np.eye(5)), 0, 0)


def test_baseline_2011_captures_exact_rank():
    a = exact_rank_matrix(80, 60, 5, seed=14)
    f = single_pass_baseline_2011(a, 5, seed=0)
    assert core.rel_fro_error(a, (f.U * f.S) @ f.V.T) <= 1e-6
    assert f.U.shape == (80, 5) and f.S.shape == (5,) and f.V.shape == (60, 5)


def test_baseline_2011_rank_validation():
    with pytest.raises(ValueError):
        single_pass_baseline_2011(np.eye(5), 6, seed=0)


def write_sparse_mtx(tmp_path, m, n, density, seed):
    acc = matgen.gen_sparse(m, n, density, seed)
    path = str(tmp_path / "a.mtx")
    fileio.write_mm(path, acc.sparse)
    return path, acc.to_dense()


def test_matrix_market_panels_are_sparse(tmp_path):
    path, a = write_sparse_mtx(tmp_path, 60, 45, 0.1, seed=15)
    panels = list(singlepass.MatrixMarketColumnStream(path).panels(16))
    assert [j0 for j0, _ in panels] == [0, 16, 32]
    for j0, block in panels:
        assert sp.issparse(block)
        assert np.array_equal(block.toarray(), a[:, j0 : j0 + block.shape[1]])


def test_matrix_market_single_pass_never_densifies(tmp_path, monkeypatch):
    path, a = write_sparse_mtx(tmp_path, 300, 200, 0.05, seed=16)
    stream = singlepass.MatrixMarketColumnStream(path)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a sparse panel was densified")

    for cls in (sp.csc_matrix, sp.csr_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    f = singlepass.single_pass_lu(stream, 20, seed=4, panel=64)
    monkeypatch.undo()
    fd = singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 20, seed=4, panel=64)
    approx = fixedrank.reconstruct(f)
    assert core.fro_norm(approx - fixedrank.reconstruct(fd)) <= 1e-12 * core.fro_norm(approx)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_market_non_finite_raises(tmp_path, bad):
    acc = matgen.gen_sparse(50, 40, 0.1, seed=17)
    coo = acc.sparse.tocoo()
    coo.data[3] = bad
    path = str(tmp_path / "bad.mtx")
    fileio.write_mm(path, coo)
    with pytest.raises(NonFiniteInput):
        singlepass.single_pass_lu(singlepass.MatrixMarketColumnStream(path), 5, seed=0)


class ForwardingStream:
    """A wrapper that forwards only shape, columns_pulled and
    panels(*args, **kwargs), as a tracing wrapper does; it records each
    panel's start, its width and whether it is the inner stream's matrix."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    @property
    def shape(self):
        return self.inner.shape

    @property
    def columns_pulled(self):
        return self.inner.columns_pulled

    def panels(self, *args, **kwargs):
        for j0, block in self.inner.panels(*args, **kwargs):
            self.seen.append((j0, block.shape[1], block is getattr(self.inner, "_a", None)))
            yield j0, block


def three_streams(tmp_path, m, n, seed):
    """Makers of the dense, .mtx and .rlm streams of one sparse matrix."""
    path, a = write_sparse_mtx(tmp_path, m, n, 0.1, seed)
    rlm = str(tmp_path / "a.rlm")
    fileio.write_rlra(rlm, a)
    return {
        "dense": lambda: singlepass.DenseColumnStream(a),
        "mtx": lambda: singlepass.MatrixMarketColumnStream(path),
        "rlm": lambda: singlepass.RlraFileColumnStream(rlm),
    }


def test_in_memory_streams_sweep_in_one_panel(tmp_path):
    # the one panel is the stored matrix itself, never a slice copy, and the
    # sketches are its two products, bitwise
    makers = three_streams(tmp_path, 70, 45, seed=18)
    for name in ("dense", "mtx"):
        stream = makers[name]()
        wrapped = ForwardingStream(stream)
        g, h = singlepass.stream_sketch(wrapped, 5, seed=2)
        assert wrapped.seen == [(0, 45, True)] and stream.columns_pulled == 45
        a, om = stream._a, core.gaussian(2, 70, 5)
        if name == "dense":
            assert np.array_equal(g, accessors.dense_matmul(a.T, om))
            assert np.array_equal(h, accessors.dense_matmul(a, g))
        else:
            assert np.array_equal(g, a.T @ om) and np.array_equal(h, a @ g)


@pytest.mark.parametrize("panel", [1, 7, 16, 45, 64])
def test_explicit_panel_width_is_honoured(tmp_path, panel):
    makers = three_streams(tmp_path, 70, 45, seed=19)
    widths = [min(panel, 45 - j0) for j0 in range(0, 45, panel)]
    for name, make in makers.items():
        stream = make()
        wrapped = ForwardingStream(stream)
        singlepass.stream_sketch(wrapped, 5, seed=2, panel=panel)
        assert [w for _, w, _ in wrapped.seen] == widths, name
        assert stream.columns_pulled == 45


def test_file_stream_default_width_is_default_panel(tmp_path):
    _, path = rlm_file(tmp_path, 40, 600, seed=22)
    stream = singlepass.RlraFileColumnStream(path)
    wrapped = ForwardingStream(stream)
    singlepass.single_pass_lu(wrapped, 5, seed=0)
    assert [w for _, w, _ in wrapped.seen] == [singlepass.DEFAULT_PANEL] * 2 + [88]
    assert stream.columns_pulled == 600


@pytest.mark.parametrize("q_os", [0, 5])
def test_wrapped_stream_gives_the_bare_stream_factors(tmp_path, q_os):
    # the width is chosen inside panels(), so a wrapper that only forwards
    # panels(*args, **kwargs) sweeps as the bare stream does
    makers = three_streams(tmp_path, 300, 280, seed=23)
    for name, make in makers.items():
        bare = singlepass.single_pass_lu(make(), 10, seed=6, q_os=q_os)
        wrapped = singlepass.single_pass_lu(ForwardingStream(make()), 10, seed=6, q_os=q_os)
        for field in ("p", "q", "L", "U"):
            assert np.array_equal(getattr(bare, field), getattr(wrapped, field)), (name, field)
