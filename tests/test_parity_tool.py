"""tools/parity.py compare on small hand-made dumps: its exit code, the
plain and up-to-signs differences, keys found in one dump only, and the
one-ulp floor printed beside a difference, per driver and per (driver,
matrix) cell."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

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


def test_floor_prints_beside_the_difference(parity, tmp_path, capsys):
    # the change moves L by 1e-12 relative, the floor moves it by 1e-9 and
    # leaves S alone; the floor never changes the exit code
    moved = dict(ARRAYS)
    moved["powerlu|fast/m0|v=2|s0|L"] = ARRAYS["powerlu|fast/m0|v=2|s0|L"] * (1 + 1e-12)
    floor = dict(ARRAYS)
    floor["powerlu|fast/m0|v=2|s0|L"] = ARRAYS["powerlu|fast/m0|v=2|s0|L"] * (1 + 1e-9)
    before = dump(tmp_path / "a.npz", ARRAYS)
    after = dump(tmp_path / "b.npz", moved)
    floor_path = dump(tmp_path / "f.npz", floor)
    assert parity.main(["compare", before, after, "--floor", floor_path]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("one-ulp floor")
    by_driver, by_matrix, _, cells, probe_cells = rows(out)
    assert float(by_driver["powerlu"][3]) == pytest.approx(1e-12, rel=1e-3)
    assert float(by_driver["powerlu"][5]) == pytest.approx(1e-9, rel=1e-3)
    assert by_driver["randsvd"][5] == "-"
    assert float(by_matrix["fast"][5]) == pytest.approx(1e-9, rel=1e-3)
    assert float(cells["powerlu/fast"][6]) == pytest.approx(1e-3, rel=1e-3)
    assert cells["randsvd/fast"][5:7] == ["-", "-"]
    assert probe_cells == {}
    assert parity.main(["compare", before, before, "--floor", floor_path]) == 0


def test_cell_floor_is_the_cells_own(parity, tmp_path, capsys):
    # the floor moves the fast probe by 1e-6 and the slow one by 1e-13; the
    # change moves the slow probe by 1e-12.  The driver rows read it against
    # 1e-6; its cell reads it against its own 1e-13, ten times over
    probe = np.arange(8.0).reshape(4, 2) + 1.0
    keys = ("powerlu_fp|fast/m0|eps=0.001|s0|probe", "powerlu_fp|slow/m0|eps=0.001|s0|probe")
    base = {key: probe for key in keys}
    floor = {keys[0]: probe * (1 + 1e-6), keys[1]: probe * (1 + 1e-13)}
    moved = {keys[0]: probe, keys[1]: probe * (1 + 1e-12)}
    before = dump(tmp_path / "a.npz", base)
    after = dump(tmp_path / "b.npz", moved)
    floor_path = dump(tmp_path / "f.npz", floor)
    assert parity.main(["compare", before, after, "--floor", floor_path]) == 1
    lines = capsys.readouterr().out.strip().split("\n\n")
    assert [block.split()[0] for block in lines] == ["driver", "matrix", "LU", "cell", "LU"]
    assert lines[3].splitlines()[0].split()[-1] == "ratio"
    by_driver, _, by_probe, cells, probe_cells = rows("\n\n".join(lines))
    assert float(by_driver["powerlu_fp"][5]) == pytest.approx(1e-6, rel=1e-3)
    assert float(by_probe["powerlu_fp"][5]) == pytest.approx(1e-6, rel=1e-3)
    for table in (cells, probe_cells):
        assert table["powerlu_fp/fast"][2:] == ["0", "-", "-", "1e-06", "-"]
        slow = table["powerlu_fp/slow"]
        assert slow[2] == "1" and float(slow[5]) == pytest.approx(1e-13, rel=1e-2)
        assert float(slow[6]) == pytest.approx(10, rel=1e-2)
    # without --floor no cell table is printed
    assert parity.main(["compare", before, after]) == 1
    assert len(rows(capsys.readouterr().out)) == 3


def test_cell_ratio_when_the_floor_does_not_move(parity):
    assert parity.ratio(None, None) == "-"
    assert parity.ratio(2e-12, None) == "inf"
    assert parity.ratio(2e-12, 1e-12) == "2"


def test_one_ulp_moves_every_stored_entry(parity):
    dense = np.array([[1.0, -2.0], [0.0, 3.0]])
    sparse = sp.csc_matrix(dense)
    for a, values in ((dense, dense.ravel()), (sparse, sparse.data)):
        moved = parity.one_ulp(a)
        got = moved.ravel() if a is dense else moved.data
        assert np.array_equal(got, np.nextafter(values, np.inf))
        assert type(moved) is type(a)
    assert sparse.data[0] == 1.0  # the input is not touched


def test_ulp_moves_go_both_ways(parity):
    # down is up mirrored; a random-sign move takes every entry one ulp up
    # or down, some of each, and its seed picks the signs
    a = np.linspace(-3.0, 5.0, 400).reshape(20, 20)
    assert np.array_equal(parity.one_ulp(a, "down"), np.nextafter(a, -np.inf))
    moves = {}
    for move in ("signs1", "signs2"):
        moved = parity.one_ulp(a, move)
        up = moved == np.nextafter(a, np.inf)
        assert np.all(up | (moved == np.nextafter(a, -np.inf)))
        assert 0 < up.sum() < a.size
        moves[move] = up
    assert not np.array_equal(moves["signs1"], moves["signs2"])
    sparse = sp.csc_matrix(a)
    moved = parity.one_ulp(sparse, "signs1")
    assert np.array_equal(moved.data, parity.one_ulp(sparse.data, "signs1"))
    assert set(parity.ULP_MOVES) == {"up", "down", "signs1", "signs2"}


def test_floor_is_the_worst_over_several_dumps(parity, tmp_path, capsys):
    # two floor dumps move the probe by 1e-13 and 3e-13; the change's 2e-13
    # reads against the larger, in the driver rows and in its cell
    key = "powerlu_fp|slow/m0|eps=0.001|s0|probe"
    probe = np.arange(8.0).reshape(4, 2) + 1.0
    before = dump(tmp_path / "a.npz", {key: probe})
    after = dump(tmp_path / "b.npz", {key: probe * (1 + 2e-13)})
    floors = [dump(tmp_path / f"f{i}.npz", {key: probe * (1 + e)}) for i, e in enumerate((1e-13, 3e-13))]
    assert parity.main(["compare", before, after, "--floor", *floors]) == 1
    by_driver, _, _, cells, _ = rows(capsys.readouterr().out)
    assert float(by_driver["powerlu_fp"][5]) == pytest.approx(3e-13, rel=1e-2)
    assert float(cells["powerlu_fp/slow"][6]) == pytest.approx(2 / 3, rel=1e-2)


def test_powerlu_fp_runs_at_v6_on_the_small_matrices(parity, tmp_path, monkeypatch):
    # the small cases add a powerlu_fp_v6 driver row, at the case's l and b
    # and at every tolerance; the benchmark shapes do not
    from rlra import fixedprec, matgen

    calls = []
    monkeypatch.setattr(fixedprec, "powerlu_fp", lambda a, params, seed: calls.append(params))
    small, big = parity.CASES[0], parity.CASES[3]
    a, _ = matgen.gen_decay(small.kind, small.m, small.n, 0)
    runs = [(d, p, call) for d, p, call in parity.driver_runs(small, a, tmp_path)
            if d.startswith("powerlu_fp")]
    for _, _, call in runs:
        call(0)
    b, l, v = small.fp
    assert [d for d, _, _ in runs] == ["powerlu_fp"] * 5 + ["powerlu_fp_v6"] * 5
    assert [(p.b, p.l, p.v) for p in calls] == [(b, l, v)] * 5 + [(b, l, 6)] * 5
    assert [p.eps for p in calls] == list(parity.EPS_GRID) * 2
    assert all(case.fp_more_v == (6,) for case in parity.CASES[:3])
    assert big.fp_more_v == ()
