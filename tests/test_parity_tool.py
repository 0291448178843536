"""tools/parity.py compare on small hand-made dumps: its exit code, the
plain and up-to-signs differences, and keys found in one dump only."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


@pytest.fixture
def parity(monkeypatch):
    # the script pins BLAS threads in os.environ when it loads; monkeypatch
    # puts the caller's values back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("parity_tool", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(path, arrays):
    np.savez(path, **arrays)
    return str(path)


def rows(out):
    """The table rows of compare's output, by first column, per table."""
    tables = [block.splitlines() for block in out.strip().split("\n\n")]
    return [{line.split()[0]: line.split() for line in t[1:]} for t in tables]


ARRAYS = {
    "powerlu|fast/m0|v=2|s0|L": np.arange(12.0).reshape(4, 3) + 1.0,
    "powerlu|fast/m0|v=2|s0|p": np.arange(4),
    "randsvd|fast/m0|p=0|s0|S": np.array([3.0, 2.0, 1.0]),
}


def test_equal_dumps_exit_0(parity, tmp_path, capsys):
    before = dump(tmp_path / "a.npz", ARRAYS)
    after = dump(tmp_path / "b.npz", ARRAYS)
    assert parity.main(["compare", before, after]) == 0
    by_driver = rows(capsys.readouterr().out)[0]
    assert by_driver["powerlu"][1:4] == ["2", "0", "-"]


def test_column_sign_flip_differs_only_plainly(parity, tmp_path, capsys):
    flipped = dict(ARRAYS)
    flipped["powerlu|fast/m0|v=2|s0|L"] = ARRAYS["powerlu|fast/m0|v=2|s0|L"] * [1.0, -1.0, 1.0]
    before = dump(tmp_path / "a.npz", ARRAYS)
    after = dump(tmp_path / "b.npz", flipped)
    assert parity.main(["compare", before, after]) == 1
    _, differ, plain, signed = rows(capsys.readouterr().out)[0]["powerlu"][1:5]
    assert differ == "1" and float(plain) > 0 and float(signed) == 0


def test_key_in_one_dump_is_not_comparable(parity, tmp_path, capsys):
    fewer = {key: arr for key, arr in ARRAYS.items() if not key.endswith("|S")}
    before = dump(tmp_path / "a.npz", ARRAYS)
    after = dump(tmp_path / "b.npz", fewer)
    assert parity.main(["compare", before, after]) == 1
    row = rows(capsys.readouterr().out)[0]["randsvd"]
    assert row[2] == "1" and "(1 not comparable:" in " ".join(row)
