import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from rlra import core, fileio, matgen


def test_rlra_round_trip_bit_exact(tmp_path):
    a = core.gaussian(0, 17, 9)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    assert fileio.read_rlra_header(path) == (17, 9)
    back = fileio.read_rlra(path)
    assert np.array_equal(back, a)
    assert back.flags.f_contiguous


@pytest.mark.parametrize("j0,j1", [(0, 9), (0, 1), (3, 7), (8, 9), (5, 5)])
def test_rlra_column_range_is_a_slice(tmp_path, j0, j1):
    a = core.gaussian(1, 17, 9)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    cols = fileio.read_rlra(path, j0, j1)
    assert np.array_equal(cols, fileio.read_rlra(path)[:, j0:j1])
    assert cols.shape == (17, j1 - j0) and cols.flags.f_contiguous


def test_rlra_column_read_opens_once_and_fills_out(tmp_path, monkeypatch):
    a = core.gaussian(2, 17, 9)
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, a)
    opened = []
    monkeypatch.setattr(fileio, "open", lambda *args: opened.append(args) or open(*args), raising=False)
    out = np.empty((17, 4), order="F")
    assert fileio.read_rlra(path, 3, 7, out) is out
    assert np.array_equal(out, a[:, 3:7])
    assert len(opened) == 1  # header, size and columns through one handle
    for bad in (np.empty((17, 3), order="F"), np.empty((17, 4)), np.empty((17, 4), np.float32, order="F")):
        with pytest.raises(ValueError, match="out must be"):
            fileio.read_rlra(path, 3, 7, bad)


@pytest.mark.parametrize("j0,j1", [(-1, 3), (4, 3), (0, 10)])
def test_rlra_column_range_rejects_bad_bounds(tmp_path, j0, j1):
    path = str(tmp_path / "a.rlm")
    fileio.write_rlra(path, np.eye(9))
    with pytest.raises(ValueError, match="outside"):
        fileio.read_rlra(path, j0, j1)


def test_rlra_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_rlra(str(tmp_path / "x.rlm"), np.zeros(4))


def test_rlra_bad_magic(tmp_path):
    path = tmp_path / "bad.rlm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IOError, match="bad.rlm"):
        fileio.read_rlra_header(str(path))


def test_rlra_truncated(tmp_path):
    good = tmp_path / "good.rlm"
    fileio.write_rlra(str(good), np.eye(4))
    clipped = tmp_path / "clipped.rlm"
    clipped.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(IOError, match="declared"):
        fileio.read_rlra_header(str(clipped))


def test_sigma_round_trip_bit_exact(tmp_path):
    sigma = matgen.decay_sigma("fast", 25)
    path = str(tmp_path / "a.sigma")
    fileio.write_sigma(path, sigma)
    assert np.array_equal(fileio.read_sigma(path), sigma)


def test_mm_round_trip(tmp_path):
    acc = matgen.gen_sparse(12, 9, 0.2, seed=1)
    path = str(tmp_path / "a.mtx")
    fileio.write_mm(path, acc.sparse)
    back = fileio.read_mm(path)
    assert back.shape == (12, 9)
    assert np.allclose(back.todense(), acc.to_dense(), atol=1e-14)


def test_mm_reads_real_float64(tmp_path):
    ints = sp.coo_matrix(([3_000_000_000, 7], ([0, 2], [1, 1])), shape=(3, 2))
    path = str(tmp_path / "i.mtx")
    scipy.io.mmwrite(path, ints)
    back = fileio.read_mm(path)
    assert back.dtype == np.float64
    assert np.array_equal(back.toarray(), ints.toarray())

    complex_path = str(tmp_path / "c.mtx")
    scipy.io.mmwrite(complex_path, ints * 1j)
    with pytest.raises(IOError, match="c.mtx: complex"):
        fileio.read_mm(complex_path)


def test_pgm_binary_8bit_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 256, size=(11, 14)).astype(np.float64)
    path = str(tmp_path / "a.pgm")
    fileio.write_pgm(path, pixels, maxval=255)
    back, maxval = fileio.read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, pixels)


def test_pgm_binary_16bit_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 40000, size=(7, 5)).astype(np.float64)
    path = str(tmp_path / "a16.pgm")
    fileio.write_pgm(path, pixels, maxval=65535)
    back, maxval = fileio.read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, pixels)


def test_pgm_ascii_round_trip_and_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n4 3\n255\n0 1 2 3\n4 5 6 7\n8 9 10 11\n")
    back, _ = fileio.read_pgm(str(path))
    assert np.array_equal(back, np.arange(12.0).reshape(3, 4))

    commented = tmp_path / "c.pgm"
    commented.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 1\n2 3\n")
    back, maxval = fileio.read_pgm(str(commented))
    assert np.array_equal(back, [[0.0, 1.0], [2.0, 3.0]])
    assert maxval == 255


def test_pgm_write_clamps_and_rounds(tmp_path):
    path = str(tmp_path / "a.pgm")
    fileio.write_pgm(path, np.array([[-5.0, 0.4, 254.6, 300.0]]), maxval=255)
    back, _ = fileio.read_pgm(path)
    assert np.array_equal(back, [[0.0, 0.0, 255.0, 255.0]])


def test_pgm_rejects_malformed(tmp_path):
    not_pgm = tmp_path / "x.pgm"
    not_pgm.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(IOError, match="magic"):
        fileio.read_pgm(str(not_pgm))

    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(IOError, match="expected 16 pixels"):
        fileio.read_pgm(str(short))

    overflow = tmp_path / "over.pgm"
    overflow.write_bytes(b"P2\n1 1\n10\n11\n")
    with pytest.raises(IOError, match="exceeds maxval"):
        fileio.read_pgm(str(overflow))

    with pytest.raises(ValueError, match="maxval"):
        fileio.write_pgm(str(tmp_path / "bad.pgm"), np.eye(2), maxval=0)


@pytest.mark.parametrize("samples", [b"0 -5 7\n1 2 3\n", b"0 5 7\n1.5 2 3\n"],
                         ids=["negative", "non-integer"])
def test_pgm_rejects_invalid_ascii_samples(tmp_path, samples):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 2\n255\n" + samples)
    with pytest.raises(IOError, match="bad.pgm: P2 samples"):
        fileio.read_pgm(str(path))
