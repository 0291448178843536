"""Command-line driver: matrix generation, factorization (every --alg,
singlepass included, through the one table FIXED_RANK), adaptive-rank runs,
benchmark CSV emission, and image compression.

Exit codes: 0 success, 2 usage error, 3 not converged, 4 tolerance
unsatisfiable at the maximum sketch width, 1 other library failures.
"""

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import core, fileio, fixedprec, fixedrank, matgen, singlepass
from .accessors import InstrumentedAccessor
from .errors import NotConverged, RlraError, Unsatisfiable

# matrices at most this many entries are densified to report rel_err
DENSE_ERROR_LIMIT = 4_000_000

# oversampling columns of the accuracy and rank-sweep suites
BENCH_OVERSAMPLE = 10

CSV_HEADER = ["alg", "matrix", "m", "n", "k", "eps", "v", "p", "seed",
              "rel_err", "rank", "passes", "wall_ms"]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Unsatisfiable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RlraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rlra", description="randomized low-rank factorization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test matrix")
    g.add_argument("--type", required=True,
                   choices=["slow", "fast", "sshaped", "sparse"])
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--density", type=float, default=0.003,
                   help="nonzero fraction for --type sparse")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("factor", help="fixed-rank factorization of a matrix file")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--alg", required=True, choices=list(FIXED_RANK))
    f.add_argument("--rank", type=int, required=True)
    f.add_argument("--oversample", type=int,
                   help="default: the driver's own, 10 (0 for singlepass); changes the "
                        "result of randsvd and singlepass only")
    f.add_argument("--passes", type=int,
                   help="pass budget v >= 2, even for the exponent drivers (p = (v - 2) / 2)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out-prefix", dest="prefix")
    f.set_defaults(func=cmd_factor, parser=f)

    # the fixed-precision options of adapt and compress
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--in", dest="infile", required=True)
    precision.add_argument("--tol", type=float, required=True)
    precision.add_argument("--block", type=int, default=10,
                           help="block size; sets the default sketch width, 50 blocks")
    precision.add_argument("--l", type=int,
                           help="sketch width (default min(50*block, min(m,n)))")
    precision.add_argument("--passes", type=int, default=4)
    precision.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("adapt", parents=[precision], help="fixed-precision factorization")
    a.add_argument("--no-restart", action="store_true",
                   help="one attempt, exactly v passes (exit 3 if not converged)")
    a.add_argument("--out-prefix", dest="prefix")
    a.set_defaults(func=cmd_adapt, parser=a)

    b = sub.add_parser("bench", help="benchmark suites to CSV")
    b.add_argument("--suite", required=True,
                   choices=["accuracy", "rank-sweep"])
    b.add_argument("--type", default="slow", choices=list(matgen.DECAY_KINDS))
    b.add_argument("--n", type=int)
    b.add_argument("--seeds", type=int, help="trials per cell (suite default)")
    b.add_argument("--seed", type=int, default=12345, help="matrix seed")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench, parser=b)

    c = sub.add_parser("compress", parents=[precision],
                       help="low-rank PGM image compression")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compress, parser=c)

    return parser


def cmd_gen(args):
    if args.type == "sparse":
        acc = matgen.gen_sparse(args.m, args.n, args.density, args.seed)
        fileio.write_mm(args.out, acc.sparse)
        print(f"wrote {args.out} ({args.m}x{args.n}, nnz={acc.sparse.nnz})")
        return 0
    a, sigma = matgen.gen_decay(args.type, args.m, args.n, args.seed)
    fileio.write_rlra(args.out, a)
    sidecar = str(Path(args.out).with_suffix(".sigma"))
    fileio.write_sigma(sidecar, sigma)
    print(f"wrote {args.out} and {sidecar} ({args.m}x{args.n}, type={args.type})")
    return 0


def _load_accessor(path, stream=False):
    """An instrumented accessor on a .mtx/.mm or .rlm file; with stream, a
    single-use column stream over it instead."""
    mm = path.endswith((".mtx", ".mm"))
    if stream:
        return (singlepass.MatrixMarketColumnStream if mm
                else singlepass.RlraFileColumnStream)(path)
    return InstrumentedAccessor(fileio.read_mm(path) if mm else fileio.read_rlra(path))


def _exponent(v):
    """Power exponent p of an even pass budget v = 2p + 2."""
    return (v - 2) // 2


# the fixed-rank drivers by --alg name, called as (source, k, v, seed[, q_os]):
# source is a column stream for singlepass and a matrix or accessor otherwise;
# randsvd is cut back to the k triplets its rank-k rows report
FIXED_RANK = {
    "powerlu": lambda a, k, v, seed, **q_os: fixedrank.powerlu(a, k, v=v, seed=seed, **q_os),
    "randlu": lambda a, k, v, seed, **q_os: fixedrank.randlu(
        a, k, p=_exponent(v), seed=seed, **q_os),
    "randlu-noreorth": lambda a, k, v, seed, **q_os: fixedrank.randlu_noreorth(
        a, k, p=_exponent(v), seed=seed, **q_os),
    "randsvd": lambda a, k, v, seed, **q_os: fixedrank.randsvd(
        a, k, p=_exponent(v), seed=seed, truncate=True, **q_os),
    "singlepass": lambda a, k, v, seed, **q_os: singlepass.single_pass_lu(a, k, seed, **q_os),
}


def _run(alg, source, k, q_os, v, seed):
    """One timed driver call; q_os None keeps the driver's own default.
    Returns the factors and the wall ms."""
    oversample = {} if q_os is None else {"q_os": q_os}
    started = time.perf_counter()
    fac = FIXED_RANK[alg](source, k, v, seed, **oversample)
    return fac, 1e3 * (time.perf_counter() - started)


def _resolve_budget(parser_error, alg, passes):
    """The pass budget v for alg from --passes; None for singlepass."""
    if alg == "singlepass":
        if passes is not None:
            parser_error("singlepass reads the matrix once; no pass budget applies")
        return None
    if passes is None:
        return 3 if alg == "powerlu" else 4
    if passes < 2:
        parser_error(f"--passes {passes} is below the two-pass minimum")
    if passes % 2 and alg != "powerlu":
        parser_error(f"--passes {passes} has no exponent equivalent; use even v >= 2")
    return passes


def _write_lu(prefix, f):
    fileio.write_rlra(f"{prefix}.L.rlm", f.L)
    fileio.write_rlra(f"{prefix}.U.rlm", f.U)
    np.savetxt(f"{prefix}.rowperm.txt", f.p, fmt="%d")
    np.savetxt(f"{prefix}.colperm.txt", f.q, fmt="%d")


def _write_svd(prefix, f):
    fileio.write_rlra(f"{prefix}.U.rlm", f.U)
    fileio.write_sigma(f"{prefix}.S.sigma", f.S)
    fileio.write_rlra(f"{prefix}.V.rlm", f.V)


def _report_error(a, fac):
    """Relative error of fac against a; nan, and no reconstruction, when a
    is an accessor or stream with more than DENSE_ERROR_LIMIT entries, too
    large to densify, or is all zero, where a relative error is undefined."""
    if not isinstance(a, np.ndarray):
        if a.shape[0] * a.shape[1] > DENSE_ERROR_LIMIT:
            return float("nan")
        a = a.to_dense()
    if not a.any():
        return float("nan")
    if isinstance(fac, fixedrank.LowRankSVD):
        approx = (fac.U * fac.S) @ fac.V.T
    else:
        approx = fixedrank.reconstruct(fac)
    return core.rel_fro_error(a, approx)


def cmd_factor(args):
    v = _resolve_budget(args.parser.error, args.alg, args.passes)
    single = args.alg == "singlepass"
    source = _load_accessor(args.infile, stream=single)
    m, n = source.shape
    fac, wall = _run(args.alg, source, args.rank, args.oversample, v, args.seed)
    rel = _report_error(source, fac)
    if args.prefix:
        write = _write_svd if isinstance(fac, fixedrank.LowRankSVD) else _write_lu
        write(args.prefix, fac)
    if single:
        budget, count = "", f"columns={source.columns_pulled}"
    else:
        budget = f"v={v} " if args.alg == "powerlu" else f"v={v} p={_exponent(v)} "
        count = f"passes={source.product_count}"
    print(
        f"alg={args.alg} matrix={args.infile} m={m} n={n} k={args.rank} {budget}"
        f"seed={args.seed} {count} rel_err={rel:.6e} wall_ms={wall:.1f}"
    )
    return 0


def _precision_params(args):
    """PrecisionParams from --tol/--block/--l/--passes, checked before the
    input is read; --passes below 2 is a usage error, as for factor.
    Without --l, width 1 stands in until _fixed_precision knows the shape."""
    v = _resolve_budget(args.parser.error, "powerlu", args.passes)
    width = 1 if args.l is None else args.l
    return fixedprec.PrecisionParams(eps=args.tol, b=args.block, l=width, v=v)


def _fixed_precision(driver, acc, params, args):
    """One timed driver call at params, the width defaulting to
    default_width of acc's shape without --l.  Returns the factors, the
    outcome and the wall ms."""
    if args.l is None:
        params = dataclasses.replace(params, l=fixedprec.default_width(params.b, *acc.shape))
    started = time.perf_counter()
    fac, outcome = driver(acc, params, args.seed)
    return fac, outcome, 1e3 * (time.perf_counter() - started)


def cmd_adapt(args):
    params = _precision_params(args)
    acc = _load_accessor(args.infile)
    m, n = acc.shape
    driver = fixedprec.powerlu_fp if args.no_restart else fixedprec.powerlu_fp_restarting
    fac, outcome, wall = _fixed_precision(driver, acc, params, args)
    rel = _report_error(acc, fac)
    if args.prefix:
        _write_lu(args.prefix, fac)
    print(
        f"matrix={args.infile} m={m} n={n} eps={args.tol:g} v={args.passes} "
        f"seed={args.seed} rank={outcome.rank} residual_energy={outcome.residual_energy:.6e} "
        f"converged={str(outcome.converged).lower()} passes={acc.product_count} "
        f"rel_err={rel:.6e} wall_ms={wall:.1f}"
    )
    return 0


def cmd_bench(args):
    for flag, value in (("--n", args.n), ("--seeds", args.seeds)):
        if value is not None and value < 1:
            args.parser.error(f"{flag} {value} is below 1")
    accuracy = args.suite == "accuracy"
    n = args.n or (500 if accuracy else 1000)
    if accuracy:
        ranks = [l - BENCH_OVERSAMPLE for l in range(20, min(201, n + 1), 20)]
    else:
        ranks = range(100, min(n - BENCH_OVERSAMPLE, 1000) + 1, 100)
    seeds = args.seeds or (20 if accuracy else 3)
    rows = _suite_sweep(args.type, n, seeds, args.seed, ranks, oracle=accuracy)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _suite_sweep(kind, n, seeds, matrix_seed, ranks, oracle):
    """Relative error of three drivers at v = 4 and each target rank, one row
    per (algorithm, rank, seed); with oracle, a leading tsvd row per rank
    gives the optimum."""
    a, sigma = matgen.gen_decay(kind, n, n, matrix_seed)
    v = 4
    rows = []
    for k in ranks:
        cell = {"matrix": f"{kind}-{n}", "m": n, "n": n, "k": k, "rank": k}
        if oracle:
            opt = matgen.oracle_error(sigma, k)[0] / core.fro_norm(sigma)
            rows.append({**cell, "alg": "tsvd", "seed": 0, "rel_err": f"{opt:.6e}"})
        for seed in range(seeds):
            for alg in ("powerlu", "randlu", "randsvd"):
                row = {**cell, "alg": alg, "v": v, "seed": seed, "passes": v,
                       "p": "" if alg == "powerlu" else _exponent(v)}
                try:
                    fac, wall = _run(alg, a, k, BENCH_OVERSAMPLE, v, seed)
                    row.update(rel_err=f"{_report_error(a, fac):.6e}", wall_ms=f"{wall:.1f}")
                except RlraError as exc:
                    row.update(rel_err="nan", wall_ms=f"failed: {type(exc).__name__}")
                rows.append(row)
    return rows


def cmd_compress(args):
    params = _precision_params(args)
    pixels, maxval = fileio.read_pgm(args.infile)
    m, n = pixels.shape
    acc = InstrumentedAccessor(pixels)
    fac, outcome, wall = _fixed_precision(fixedprec.powerlu_fp_restarting, acc, params, args)
    recon = fixedrank.reconstruct(fac)
    fileio.write_pgm(args.out, recon, maxval=maxval)
    k = outcome.rank
    # an all-black image has no relative error: nan, as _report_error gives
    rel = core.rel_fro_error(pixels, recon) if pixels.any() else float("nan")
    ratio = (m * k + k * n + k) / (m * n)
    print(
        f"image={args.infile} m={m} n={n} rank={k} rel_err={rel:.6e} "
        f"size_ratio={ratio:.4f} passes={acc.product_count} wall_ms={wall:.1f} "
        f"out={args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
