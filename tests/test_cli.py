import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import rlra
from rlra import cli, core, fileio, fixedrank, matgen, singlepass
from rlra.cli import CSV_HEADER, main
from projection_identities import OverstatedNorm, duplicated_rows


def parse_summary(out):
    # summaries are the last line printed; earlier "wrote ..." lines and any
    # bare tokens are not key=value pairs
    line = out.strip().splitlines()[-1]
    return dict(kv.split("=", 1) for kv in line.split() if "=" in kv)


def gen_file(tmp_path, kind="fast", m=120, n=100, seed=1):
    path = str(tmp_path / f"{kind}.rlm")
    assert main(["gen", "--type", kind, "--m", str(m), "--n", str(n),
                 "--seed", str(seed), "--out", path]) == 0
    return path


def write_rank_r_image(path, m, n, r, seed):
    pixels = duplicated_rows(m, n, r, seed)
    fileio.write_pgm(path, pixels, maxval=255)
    return pixels


def test_gen_decay_writes_matrix_and_sidecar(tmp_path, capsys):
    path = gen_file(tmp_path, "fast", 50, 40, seed=7)
    out = capsys.readouterr().out
    assert "50x40" in out
    a, sigma = matgen.gen_decay("fast", 50, 40, seed=7)
    assert np.array_equal(fileio.read_rlra(path), a)
    sidecar = path[: -len(".rlm")] + ".sigma"
    assert np.array_equal(fileio.read_sigma(sidecar), sigma)


def test_gen_sparse_writes_matrix_market(tmp_path, capsys):
    path = str(tmp_path / "s.mtx")
    assert main(["gen", "--type", "sparse", "--m", "40", "--n", "30",
                 "--density", "0.05", "--seed", "2", "--out", path]) == 0
    assert "nnz=" in capsys.readouterr().out
    assert fileio.read_mm(path).shape == (40, 30)


def test_factor_powerlu_summary(tmp_path, capsys):
    path = gen_file(tmp_path)
    prefix = str(tmp_path / "f")
    rc = main(["factor", "--in", path, "--alg", "powerlu", "--rank", "20",
               "--passes", "3", "--seed", "4", "--out-prefix", prefix])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert info["alg"] == "powerlu"
    assert (info["m"], info["n"], info["k"]) == ("120", "100", "20")
    assert info["v"] == "3"
    assert info["passes"] == "3"
    # the rank-20 optimum on this spectrum is already ~6e-2
    assert float(info["rel_err"]) < 1e-1
    assert fileio.read_rlra(prefix + ".L.rlm").shape == (120, 20)
    assert fileio.read_rlra(prefix + ".U.rlm").shape == (20, 100)
    assert np.loadtxt(prefix + ".rowperm.txt").shape == (120,)
    assert np.loadtxt(prefix + ".colperm.txt").shape == (100,)


def test_factor_powerlu_exact_rank(tmp_path, capsys):
    # integer-valued exact-rank-5 input: the factorization is exact
    rng = np.random.default_rng(0)
    picker = np.zeros((60, 5))
    picker[np.arange(60), rng.integers(0, 5, 60)] = 1.0
    a = picker @ rng.integers(1, 9, size=(5, 40)).astype(np.float64)
    path = str(tmp_path / "r5.rlm")
    fileio.write_rlra(path, a)
    rc = main(["factor", "--in", path, "--alg", "powerlu", "--rank", "5",
               "--passes", "3", "--oversample", "0"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert float(info["rel_err"]) <= 1e-8


def test_factor_randlu_power_flag(tmp_path, capsys):
    # --passes is the only budget flag: the exponent is p = (v - 2) / 2, and
    # the former --power alias is a usage error
    path = gen_file(tmp_path)
    rc = main(["factor", "--in", path, "--alg", "randlu", "--rank", "15",
               "--passes", "4"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert info["v"] == "4" and info["p"] == "1"
    assert info["passes"] == "4"
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--in", path, "--alg", "randlu", "--rank", "15",
              "--power", "1"])
    assert exc.value.code == 2


def test_factor_randsvd_writes_svd_files(tmp_path, capsys):
    # rank k means k triplets, not the k + oversample of the sketch
    path = gen_file(tmp_path)
    prefix = str(tmp_path / "svd")
    rc = main(["factor", "--in", path, "--alg", "randsvd", "--rank", "15",
               "--passes", "4", "--out-prefix", prefix])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert (info["k"], info["v"], info["p"], info["passes"]) == ("15", "4", "1", "4")
    u = fileio.read_rlra(prefix + ".U.rlm")
    s = fileio.read_sigma(prefix + ".S.sigma")
    v = fileio.read_rlra(prefix + ".V.rlm")
    assert u.shape == (120, 15) and s.shape == (15,) and v.shape == (100, 15)
    a = fileio.read_rlra(path)
    assert float(info["rel_err"]) == pytest.approx(
        core.rel_fro_error(a, (u * s) @ v.T), rel=1e-6)


def test_factor_singlepass_reports_columns(tmp_path, capsys):
    path = gen_file(tmp_path)
    rc = main(["factor", "--in", path, "--alg", "singlepass", "--rank", "20"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert info["columns"] == "100"
    assert float(info["rel_err"]) < 1.0


def test_factor_singlepass_reports_mtx_error(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "s.mtx")
    assert main(["gen", "--type", "sparse", "--m", "300", "--n", "200",
                 "--density", "0.05", "--seed", "2", "--out", path]) == 0
    # the summary prints 7 digits; the spy keeps the full value
    reported = []
    report = cli._report_error

    def spy(dense, fac):
        reported.append(report(dense, fac))
        return reported[-1]

    monkeypatch.setattr(cli, "_report_error", spy)
    assert main(["factor", "--in", path, "--alg", "singlepass", "--rank", "20"]) == 0
    info = parse_summary(capsys.readouterr().out)
    a = fileio.read_mm(path).toarray()
    fac = singlepass.single_pass_lu(singlepass.MatrixMarketColumnStream(path), 20, seed=0)
    expected = core.rel_fro_error(a, fixedrank.reconstruct(fac))
    assert np.isfinite(float(info["rel_err"]))
    assert info["rel_err"] == f"{reported[0]:.6e}"
    assert abs(reported[0] - expected) <= 1e-12


def test_factor_singlepass_parses_mtx_once(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "s.mtx")
    assert main(["gen", "--type", "sparse", "--m", "300", "--n", "200",
                 "--density", "0.05", "--seed", "2", "--out", path]) == 0
    calls = []
    read_mm = fileio.read_mm

    def spy(p):
        calls.append(p)
        return read_mm(p)

    monkeypatch.setattr(fileio, "read_mm", spy)
    assert main(["factor", "--in", path, "--alg", "singlepass", "--rank", "20"]) == 0
    assert calls == [path]
    assert np.isfinite(float(parse_summary(capsys.readouterr().out)["rel_err"]))


def test_factor_singlepass_oversample(tmp_path, capsys):
    path = gen_file(tmp_path)
    a = fileio.read_rlra(path)
    errors = []
    for q_os in (0, 10, 40):
        prefix = str(tmp_path / f"os{q_os}")
        assert main(["factor", "--in", path, "--alg", "singlepass", "--rank", "12",
                     "--oversample", str(q_os), "--out-prefix", prefix]) == 0
        info = parse_summary(capsys.readouterr().out)
        fac = singlepass.single_pass_lu(singlepass.DenseColumnStream(a), 12, seed=0, q_os=q_os)
        expected = core.rel_fro_error(a, fixedrank.reconstruct(fac))
        assert info["rel_err"] == f"{expected:.6e}"
        assert fileio.read_rlra(prefix + ".L.rlm").shape == (120, 12)
        assert fileio.read_rlra(prefix + ".U.rlm").shape == (12, 100)
        errors.append(info["rel_err"])
    assert len(set(errors)) == 3


@pytest.mark.parametrize("extra", [
    ["--passes", "1"],                   # below the two-pass minimum
    ["--passes", "3"],                   # odd budget for an exponent algorithm
    ["--panel", "64"],                   # no such flag
    ["--alg", "powerlu", "--passes", "1"],  # the last --alg wins: powerlu's minimum
])
def test_factor_usage_errors_exit_2(tmp_path, extra):
    path = gen_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--in", path, "--alg", "randlu", "--rank", "10"] + extra)
    assert exc.value.code == 2


def test_factor_singlepass_rejects_budget(tmp_path):
    path = gen_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--in", path, "--alg", "singlepass", "--rank", "10",
              "--passes", "2"])
    assert exc.value.code == 2


def test_factor_missing_file_exit_1(tmp_path, capsys):
    rc = main(["factor", "--in", str(tmp_path / "nope.rlm"), "--alg", "randlu",
               "--rank", "5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["factor", "--alg", "powerlu", "--rank", "5"],
                                 ["adapt", "--tol", "1e-3", "--block", "5"]])
def test_non_finite_input_exit_1(tmp_path, capsys, cmd):
    path = str(tmp_path / "nan.rlm")
    a = core.gaussian(5, 40, 30)
    a[3, 4] = np.nan
    fileio.write_rlra(path, a)
    assert main(cmd + ["--in", path]) == 1
    assert "NaN or infinite" in capsys.readouterr().err



@pytest.mark.parametrize("alg", ["powerlu", "singlepass"])
def test_complex_mtx_exit_1(tmp_path, capsys, alg):
    # a complex file is rejected, not factored with its imaginary part dropped
    path = str(tmp_path / "c.mtx")
    a = sp.random(40, 30, density=0.2, format="coo", random_state=3)
    scipy.io.mmwrite(path, a * (1 + 2j))
    assert main(["factor", "--in", path, "--alg", alg, "--rank", "5"]) == 1
    err = capsys.readouterr().err
    assert "complex" in err and path in err


@pytest.mark.parametrize("cmd", [["factor", "--alg", "singlepass", "--rank", "10"],
                                 ["adapt", "--tol", "1e-2", "--block", "5"]])
def test_large_matrix_skips_reconstruction(tmp_path, capsys, monkeypatch, cmd):
    # above DENSE_ERROR_LIMIT rel_err is not computed, so the m x n
    # reconstruction must not be built either
    def no_reconstruct(fac):
        raise AssertionError("reconstruct called for an unreported error")

    monkeypatch.setattr(cli, "DENSE_ERROR_LIMIT", 0)
    monkeypatch.setattr(fixedrank, "reconstruct", no_reconstruct)
    path = gen_file(tmp_path, m=60, n=50)
    assert main(cmd + ["--in", path]) == 0
    assert parse_summary(capsys.readouterr().out)["rel_err"] == "nan"


@pytest.mark.parametrize("cmd", [
    ["factor", "--alg", "powerlu", "--rank", "5", "--out-prefix", "f"],
    ["factor", "--alg", "singlepass", "--rank", "5", "--out-prefix", "f"],
    ["adapt", "--tol", "1e-3", "--out-prefix", "f"],
    ["compress", "--tol", "1e-2", "--out", "f.pgm"],
], ids=["factor", "singlepass", "adapt", "compress"])
def test_zero_matrix_reports_nan_and_writes(tmp_path, capsys, monkeypatch, cmd):
    # the relative error of an all-zero matrix is undefined: it is printed
    # as nan, and the outputs are still written
    monkeypatch.chdir(tmp_path)
    if cmd[0] == "compress":
        fileio.write_pgm("in", np.zeros((16, 12)), maxval=255)
    else:
        fileio.write_rlra("in", np.zeros((30, 20)))
    assert main(cmd + ["--in", "in"]) == 0
    assert parse_summary(capsys.readouterr().out)["rel_err"] == "nan"
    if cmd[0] == "compress":
        assert not fileio.read_pgm("f.pgm")[0].any()
    else:
        assert not (fileio.read_rlra("f.L.rlm") @ fileio.read_rlra("f.U.rlm")).any()


def test_adapt_reports_rank_and_convergence(tmp_path, capsys):
    path = gen_file(tmp_path, "fast", 300, 300, seed=3)
    rc = main(["adapt", "--in", path, "--tol", "1e-4", "--block", "10",
               "--l", "150", "--passes", "4"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert 65 <= int(info["rank"]) <= 70
    assert info["converged"] == "true"
    assert info["passes"] == "4"
    assert float(info["rel_err"]) <= 1e-4


def test_adapt_no_restart_exit_3(tmp_path, capsys):
    path = gen_file(tmp_path, "slow", 150, 150, seed=4)
    rc = main(["adapt", "--in", path, "--tol", "1e-7", "--block", "10",
               "--l", "20", "--passes", "4", "--no-restart"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_adapt_no_restart_is_one_attempt(tmp_path, capsys, monkeypatch):
    # rank 20 below the default width 90: the one sketch of exactly v
    # passes finds the rank
    path = str(tmp_path / "r20.rlm")
    fileio.write_rlra(path, duplicated_rows(120, 90, 20, seed=6))
    loaded = []
    load = cli._load_accessor

    def keep(p):
        loaded.append(load(p))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_accessor", keep)
    rc = main(["adapt", "--in", path, "--tol", "1e-6", "--block", "5",
               "--passes", "4", "--no-restart"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert (info["rank"], info["converged"], info["passes"]) == ("20", "true", "4")
    assert loaded[0].product_count == 4


def test_adapt_restart_converges_at_full_width(tmp_path, capsys):
    # the width doubles 20 -> 40 -> 80, then stops at min(m, n) = 85, where
    # the search converges: four attempts of four passes each
    path = gen_file(tmp_path, "slow", 85, 85, seed=5)
    rc = main(["adapt", "--in", path, "--tol", "1e-5", "--block", "10",
               "--l", "20", "--passes", "4"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert info["converged"] == "true"
    assert info["passes"] == "16"
    assert float(info["rel_err"]) <= 1e-5


def test_adapt_restart_widens_until_unsatisfiable(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "slow", 85, 85, seed=5)
    monkeypatch.setattr(cli, "_load_accessor", lambda p: OverstatedNorm(fileio.read_rlra(p)))
    rc = main(["adapt", "--in", path, "--tol", "1e-5", "--block", "10",
               "--l", "20", "--passes", "4"])
    assert rc == 4
    assert "sketch width 85 already at cap 85" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["adapt", "compress"])
@pytest.mark.parametrize("extra, code, message", [
    (["--passes", "1"], 2, "--passes 1 is below the two-pass minimum"),
    (["--tol", "2"], 1, "eps=2.0 outside (0, 1]"),
    (["--tol", "1e-9"], 1, "floor 1.49e-08"),
    (["--block", "0"], 1, "block size must be >= 1"),
    (["--l", "0"], 1, "sketch width 0 is not positive"),
], ids=["passes-1", "tol-2", "tol-1e-9", "block-0", "l-0"])
def test_precision_options_checked_before_input(tmp_path, capsys, monkeypatch, cmd,
                                                 extra, code, message):
    # adapt and compress reject their options as factor does, before the
    # input is opened: the error is the option's, never the missing file's
    def unread(*args, **kwargs):
        raise AssertionError("input read before the options were checked")

    for module, name in [(cli, "_load_accessor"), (fileio, "read_rlra"),
                         (fileio, "read_mm"), (fileio, "read_pgm")]:
        monkeypatch.setattr(module, name, unread)
    args = [cmd, "--in", str(tmp_path / "missing"), "--tol", "1e-3"] + extra
    if cmd == "compress":
        args += ["--out", str(tmp_path / "o.pgm")]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
    else:
        assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "missing" not in err


def test_adapt_rejects_eps_below_floor(tmp_path, capsys):
    # below the floor the search cannot converge, and the restart schedule
    # used to report it as unsatisfiable (exit 4)
    path = gen_file(tmp_path, "fast", 600, 400, seed=0)
    rc = main(["adapt", "--in", path, "--tol", "1e-9", "--l", "300"])
    assert rc == 1
    assert "floor 1.49e-08" in capsys.readouterr().err


def test_compress_recovers_exact_rank_image(tmp_path, capsys):
    src = str(tmp_path / "in.pgm")
    pixels = write_rank_r_image(src, 120, 90, 20, seed=6)
    dst = str(tmp_path / "out.pgm")
    rc = main(["compress", "--in", src, "--out", dst, "--tol", "1e-6",
               "--block", "5"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert 20 <= int(info["rank"]) <= 21
    assert float(info["rel_err"]) <= 1e-6
    assert 0.0 < float(info["size_ratio"]) < 1.0
    back, _ = fileio.read_pgm(dst)
    assert np.array_equal(back, pixels)


def test_compress_moderate_tolerance(tmp_path, capsys):
    src = str(tmp_path / "in.pgm")
    rng = np.random.default_rng(8)
    smooth = np.add.outer(np.linspace(0, 120, 60), np.linspace(0, 120, 80))
    fileio.write_pgm(src, smooth + rng.integers(0, 8, (60, 80)), maxval=255)
    rc = main(["compress", "--in", src, "--out", str(tmp_path / "o.pgm"),
               "--tol", "0.1", "--block", "5"])
    assert rc == 0
    info = parse_summary(capsys.readouterr().out.strip())
    assert float(info["rel_err"]) <= 0.1


@pytest.mark.parametrize("cmd", ["compress", "adapt"])
def test_default_block_on_thin_input(tmp_path, capsys, cmd):
    # 8 rows, below the default block of 10: the block only sets the default
    # width, which min(m, n) caps at 8
    if cmd == "compress":
        src = str(tmp_path / "thin.pgm")
        write_rank_r_image(src, 8, 200, 3, seed=2)
        args = ["compress", "--in", src, "--out", str(tmp_path / "o.pgm"), "--tol", "1e-3"]
    else:
        src = gen_file(tmp_path, "fast", 8, 200, seed=2)
        args = ["adapt", "--in", src, "--tol", "1e-3"]
    assert main(args) == 0
    info = parse_summary(capsys.readouterr().out)
    assert float(info["rel_err"]) <= 1e-3


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("extra", [
    ["--suite", "passes"],                   # retired: criterion 07 asserts its counts
    ["--suite", "accuracy", "--n", "0"],     # used to run the default 500 x 500 grid
    ["--suite", "accuracy", "--seeds", "0"],
    ["--suite", "rank-sweep", "--n", "-1"],
    ["--suite", "rank-sweep", "--seeds", "-2"],
])
def test_bench_usage_errors_exit_2(tmp_path, monkeypatch, extra):
    def no_matrix(*args):
        raise AssertionError("matrix generated before the options were checked")

    monkeypatch.setattr(matgen, "gen_decay", no_matrix)
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--out", str(out)] + extra)
    assert exc.value.code == 2
    assert not out.exists()


def test_bench_accuracy_suite_csv(tmp_path):
    out = str(tmp_path / "acc.csv")
    assert main(["bench", "--suite", "accuracy", "--type", "fast", "--n", "60",
                 "--seeds", "2", "--out", out]) == 0
    rows = read_rows(out)
    # widths 20, 40, 60 -> one tsvd row plus 3 algs x 2 seeds each
    assert len(rows) == 3 * (1 + 6)
    algs = {r["alg"] for r in rows}
    assert algs == {"tsvd", "powerlu", "randlu", "randsvd"}
    for r in rows:
        assert float(r["rel_err"]) >= 0.0
        if r["alg"] != "tsvd" and r["wall_ms"]:
            float(r["wall_ms"])  # timing stays informational but parseable



def test_bench_accuracy_rows_at_or_above_optimum(tmp_path):
    # every driver row is a rank-k factorization, so none can beat the
    # rank-k optimum of its tsvd row; an oversampled randsvd would
    out = str(tmp_path / "acc.csv")
    assert main(["bench", "--suite", "accuracy", "--type", "fast", "--n", "120",
                 "--seeds", "1", "--out", out]) == 0
    rows = read_rows(out)
    opt = {r["k"]: float(r["rel_err"]) for r in rows if r["alg"] == "tsvd"}
    assert sorted(opt, key=int) == ["10", "30", "50", "70", "90", "110"]
    drivers = [r for r in rows if r["alg"] != "tsvd"]
    assert {r["alg"] for r in drivers} == {"powerlu", "randlu", "randsvd"}
    for r in drivers:
        assert float(r["rel_err"]) >= opt[r["k"]] * (1 - 1e-12), r


def test_bench_rank_sweep_suite_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["bench", "--suite", "rank-sweep", "--type", "fast", "--n", "230",
                 "--seeds", "1", "--out", out]) == 0
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == CSV_HEADER
    rows = read_rows(out)
    # ranks 100 and 200 (k + 10 <= n), 3 algs x 1 seed each, no oracle rows
    assert len(rows) == 6
    assert {r["alg"] for r in rows} == {"powerlu", "randlu", "randsvd"}
    assert sorted({int(r["k"]) for r in rows}) == [100, 200]
    for r in rows:
        assert float(r["rel_err"]) >= 0.0
        assert r["passes"] == "4"

def test_module_entry_point(tmp_path):
    # the subprocess finds rlra where this process did, installed or not
    src = str(Path(rlra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "rlra.cli", "gen", "--type", "fast", "--m", "30",
         "--n", "20", "--out", str(tmp_path / "m.rlm")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert re.search(r"wrote .*m\.rlm", out.stdout)
    assert fileio.read_rlra_header(str(tmp_path / "m.rlm")) == (30, 20)
