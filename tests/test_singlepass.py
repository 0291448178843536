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
    # at 1031 rows and k = 30, the H products of the two full panels are
    # split; the 88-column last panel's is under the floor
    a = core.gaussian(21, 1031, 600)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    want = head_stream_sketch(a, 30, 4, singlepass.DEFAULT_PANEL)
    counts = []
    run_bands = accessors._run_bands
    monkeypatch.setattr(accessors, "_run_bands", lambda job, n: counts.append(n) or run_bands(job, n))
    for workers in (1, 2):
        pool = futures.ThreadPoolExecutor(workers)
        request.addfinalizer(pool.shutdown)
        monkeypatch.setattr(accessors, "_pool", pool)
        stream = singlepass.RlraFileColumnStream(path) if rlm else singlepass.DenseColumnStream(a)
        g, h = singlepass.stream_sketch(stream, 30, 4)
        assert np.array_equal(g, want[0]) and np.array_equal(h, want[1])
    assert counts == [2, 2]  # at 2 workers


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
