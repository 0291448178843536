"""File formats: the RLRA dense binary container, ASCII sigma sidecars,
Matrix Market sparse files, and PGM grayscale images.

RLRA layout: 4 magic bytes "RLRA", two little-endian uint64 dims (rows,
cols), then rows*cols little-endian float64 values in column-major order;
no other module knows it.  PGM images are read as P2 or P5, written as P5.
"""

import os
import struct
import sys

import numpy as np
import scipy.io
import scipy.sparse as sp

RLRA_MAGIC = b"RLRA"
RLRA_HEADER_BYTES = 4 + 8 + 8


def write_rlra(path, a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("only 2-d matrices can be stored")
    with open(path, "wb") as fh:
        fh.write(RLRA_MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.asfortranarray(a).tobytes(order="F"))


def _checked_dims(fh, path):
    """(rows, cols) of an open .rlm file, after validating its magic and
    that its size matches the declared dims."""
    head = fh.read(RLRA_HEADER_BYTES)
    if len(head) < RLRA_HEADER_BYTES or head[:4] != RLRA_MAGIC:
        raise IOError(f"{path}: not an RLRA matrix file")
    m, n = struct.unpack("<QQ", head[4:])
    if os.fstat(fh.fileno()).st_size != RLRA_HEADER_BYTES + 8 * m * n:
        raise IOError(f"{path}: size does not match declared {m}x{n}")
    return int(m), int(n)


def read_rlra_header(path):
    """Returns (rows, cols) after validating magic and declared size."""
    with open(path, "rb") as fh:
        return _checked_dims(fh, path)


def read_rlra(path, j0=0, j1=None, out=None):
    """The .rlm matrix, F-ordered, or only its columns j0..j1-1; into out
    when given, an F-ordered float64 array of that shape.  Header and file
    size are checked on every call, through the handle that then reads, so
    a file truncated since an earlier read raises IOError naming the path."""
    with open(path, "rb") as fh:
        m, n = _checked_dims(fh, path)
        j1 = n if j1 is None else j1
        if not 0 <= j0 <= j1 <= n:
            raise ValueError(f"columns {j0}..{j1 - 1} outside 0..{n - 1}")
        if out is None:
            out = np.empty((m, j1 - j0), order="F")
        elif out.shape != (m, j1 - j0) or out.dtype != np.float64 or not out.flags.f_contiguous:
            raise ValueError(f"out must be an F-ordered float64 {m}x{j1 - j0} array")
        fh.seek(RLRA_HEADER_BYTES + 8 * m * j0)
        if fh.readinto(out.T) != out.nbytes:  # out.T: the same bytes, C-ordered
            raise IOError(f"{path}: truncated column data")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    return out


def write_sigma(path, sigma):
    with open(path, "w") as fh:
        for s in np.asarray(sigma, dtype=np.float64):
            fh.write(f"{s:.17g}\n")


def read_sigma(path):
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])


def write_mm(path, a):
    if not sp.issparse(a):
        a = sp.coo_matrix(np.asarray(a, dtype=np.float64))
    scipy.io.mmwrite(path, a)


def read_mm(path):
    """The Matrix Market matrix as float64 CSC; a complex file raises
    IOError naming the path."""
    a = scipy.io.mmread(path)
    if np.iscomplexobj(a):
        raise IOError(f"{path}: complex Matrix Market file; only real matrices are supported")
    return sp.csc_matrix(a, dtype=np.float64)


def _next_token(fh):
    """One whitespace-delimited header token, skipping # comments."""
    tok = b""
    while True:
        c = fh.read(1)
        if not c:
            raise IOError("unexpected end of PGM header")
        if c == b"#":
            while c and c != b"\n":
                c = fh.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pgm(path):
    """Grayscale image as a float64 matrix (rows = height).

    Returns (pixels, maxval).  Handles P2 (ASCII) and P5 (binary, 8- or
    16-bit big-endian).
    """
    with open(path, "rb") as fh:
        magic = _next_token(fh)
        if magic not in (b"P2", b"P5"):
            raise IOError(f"{path}: not a PGM image (magic {magic!r})")
        width = int(_next_token(fh))
        height = int(_next_token(fh))
        maxval = int(_next_token(fh))
        if not 0 < maxval < 65536:
            raise IOError(f"{path}: bad maxval {maxval}")
        count = width * height
        if magic == b"P2":
            vals = np.array(fh.read().split()[:count], dtype=np.float64)
            if (vals < 0).any() or (vals != np.floor(vals)).any():
                raise IOError(f"{path}: P2 samples must be non-negative integers")
        else:
            dtype = ">u2" if maxval > 255 else "u1"
            raw = fh.read(count * np.dtype(dtype).itemsize)
            vals = np.frombuffer(raw, dtype=dtype).astype(np.float64)
        if vals.size != count:
            raise IOError(f"{path}: expected {count} pixels, found {vals.size}")
        if vals.max(initial=0.0) > maxval:
            raise IOError(f"{path}: pixel value exceeds maxval {maxval}")
    return vals.reshape((height, width)), maxval


def write_pgm(path, pixels, maxval=255):
    """Store a matrix as a binary (P5) PGM image; values are clamped and
    rounded."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise ValueError("image matrix must be 2-d")
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    ints = np.clip(np.rint(pixels), 0, maxval).astype(np.uint16)
    height, width = pixels.shape
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(ints.astype(dtype).tobytes())
