"""Command-line driver: matrix generation, factorization, adaptive-rank runs,
benchmark CSV emission, and image compression.

Exit codes: 0 success, 2 usage error, 3 not converged, 4 tolerance
unsatisfiable at the maximum sketch width, 1 other library failures.
"""

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import core, fileio, fixedprec, fixedrank, matgen, singlepass
from .accessors import InstrumentedAccessor
from .errors import NotConverged, RankCollapse, RlraError, Unsatisfiable

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
    f.add_argument("--alg", required=True,
                   choices=["powerlu", "randlu", "randlu-noreorth", "randsvd",
                            "singlepass"])
    f.add_argument("--rank", type=int, required=True)
    f.add_argument("--oversample", type=int, default=10)
    f.add_argument("--passes", type=int, help="pass budget v (v >= 2)")
    f.add_argument("--power", type=int, help="power exponent p (v = 2p + 2)")
    f.add_argument("--panel", type=int, default=singlepass.DEFAULT_PANEL)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out-prefix", dest="prefix")
    f.set_defaults(func=cmd_factor, parser=f)

    a = sub.add_parser("adapt", help="fixed-precision factorization")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--tol", type=float, required=True)
    a.add_argument("--block", type=int, default=10)
    a.add_argument("--l", type=int, help="sketch width (default min(50*block, min(m,n)))")
    a.add_argument("--passes", type=int, default=4)
    a.add_argument("--no-restart", action="store_true",
                   help="fail with exit 3 instead of widening the sketch")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out-prefix", dest="prefix")
    a.set_defaults(func=cmd_adapt)

    b = sub.add_parser("bench", help="benchmark suites to CSV")
    b.add_argument("--suite", required=True,
                   choices=["accuracy", "rank-sweep", "passes"])
    b.add_argument("--type", default="slow", choices=list(matgen.DECAY_KINDS))
    b.add_argument("--n", type=int)
    b.add_argument("--seeds", type=int, help="trials per cell (suite default)")
    b.add_argument("--seed", type=int, default=12345, help="matrix seed")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("compress", help="low-rank PGM image compression")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--tol", type=float, required=True)
    c.add_argument("--block", type=int, default=10)
    c.add_argument("--l", type=int)
    c.add_argument("--passes", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_compress)

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


def _load_accessor(path):
    if path.endswith((".mtx", ".mm")):
        return InstrumentedAccessor(fileio.read_mm(path))
    return InstrumentedAccessor(fileio.read_rlra(path))


def _resolve_budget(parser_error, alg, passes, power):
    """Map the --passes/--power pair to what the algorithm needs."""
    if passes is not None and power is not None:
        parser_error("give exactly one of --passes or --power")
    if alg == "singlepass":
        if passes is not None or power is not None:
            parser_error("singlepass reads the matrix once; no pass budget applies")
        return None, None
    if alg == "powerlu":
        if power is not None:
            return 2 * power + 2, power
        return (passes if passes is not None else 3), None
    # exponent algorithms: randsvd, randlu, randlu-noreorth
    if power is not None:
        return 2 * power + 2, power
    if passes is None:
        return 4, 1
    if passes < 2 or passes % 2:
        parser_error(f"--passes {passes} has no exponent equivalent; use even v >= 2")
    return passes, (passes - 2) // 2


def _write_lu(prefix, f):
    fileio.write_rlra(f"{prefix}.L.rlm", f.L)
    fileio.write_rlra(f"{prefix}.U.rlm", f.U)
    np.savetxt(f"{prefix}.rowperm.txt", f.p, fmt="%d")
    np.savetxt(f"{prefix}.colperm.txt", f.q, fmt="%d")


def _write_svd(prefix, f):
    fileio.write_rlra(f"{prefix}.U.rlm", f.U)
    fileio.write_sigma(f"{prefix}.S.sigma", f.S)
    fileio.write_rlra(f"{prefix}.V.rlm", f.V)


def _report_error(dense, fac):
    """Relative error of fac against dense; nan (and no reconstruction)
    when the matrix was too large to densify."""
    if dense is None:
        return float("nan")
    if isinstance(fac, fixedrank.LowRankSVD):
        approx = (fac.U * fac.S) @ fac.V.T
    else:
        approx = fixedrank.reconstruct(fac)
    return core.rel_fro_error(dense, approx)


def cmd_factor(args):
    v, p = _resolve_budget(args.parser.error, args.alg, args.passes, args.power)
    started = time.perf_counter()

    if args.alg == "singlepass":
        if args.infile.endswith((".mtx", ".mm")):
            stream = singlepass.MatrixMarketColumnStream(args.infile)
        else:
            stream = singlepass.RlraFileColumnStream(args.infile)
        m, n = stream.shape
        fac = singlepass.single_pass_lu(stream, args.rank, args.seed, panel=args.panel)
        wall = 1e3 * (time.perf_counter() - started)
        dense = fileio.read_rlra(args.infile) if m * n <= DENSE_ERROR_LIMIT and not args.infile.endswith((".mtx", ".mm")) else None
        rel = _report_error(dense, fac)
        if args.prefix:
            _write_lu(args.prefix, fac)
        print(
            f"alg=singlepass matrix={args.infile} m={m} n={n} k={args.rank} "
            f"seed={args.seed} columns={stream.columns_pulled} rel_err={rel:.6e} "
            f"wall_ms={wall:.1f}"
        )
        return 0

    acc = _load_accessor(args.infile)
    m, n = acc.shape
    if args.alg == "powerlu":
        fac = fixedrank.powerlu(acc, args.rank, args.oversample, v, args.seed)
    elif args.alg == "randlu":
        fac = fixedrank.randlu(acc, args.rank, args.oversample, p, args.seed)
    elif args.alg == "randlu-noreorth":
        fac = fixedrank.randlu_noreorth(acc, args.rank, args.oversample, p, args.seed)
    else:
        fac = fixedrank.randsvd(acc, args.rank, args.oversample, p, args.seed)
    wall = 1e3 * (time.perf_counter() - started)

    dense = acc.to_dense() if m * n <= DENSE_ERROR_LIMIT else None
    rel = _report_error(dense, fac)
    if args.prefix:
        write = _write_svd if isinstance(fac, fixedrank.LowRankSVD) else _write_lu
        write(args.prefix, fac)
    budget = f"v={v}" if p is None else f"v={v} p={p}"
    print(
        f"alg={args.alg} matrix={args.infile} m={m} n={n} k={args.rank} {budget} "
        f"seed={args.seed} passes={acc.product_count} rel_err={rel:.6e} "
        f"wall_ms={wall:.1f}"
    )
    return 0


def _adapt_loop(acc, params, seed, allow_restart):
    """powerlu_fp with retry schedules: widen when not converged, narrow to
    the achieved width when the sketch collapses (matrix rank below l)."""
    m, n = acc.shape
    cap = min(m, n)
    attempt_seed = seed
    while True:
        try:
            return fixedprec.powerlu_fp(acc, params, attempt_seed)
        except NotConverged as exc:
            if not allow_restart:
                raise
            params = fixedprec.restart_policy(exc.outcome, params, cap)
            attempt_seed += 1
        except RankCollapse as exc:
            shrunk = max(params.b, exc.achieved - exc.achieved % params.b)
            if shrunk >= params.l:
                raise
            params = replace(params, l=shrunk)
            cap = shrunk  # wider sketches would only collapse again
            attempt_seed += 1


def cmd_adapt(args):
    acc = _load_accessor(args.infile)
    m, n = acc.shape
    width = args.l if args.l is not None else fixedprec.default_width(args.block, m, n)
    params = fixedprec.PrecisionParams(eps=args.tol, b=args.block, l=width, v=args.passes)
    started = time.perf_counter()
    fac, outcome = _adapt_loop(acc, params, args.seed, not args.no_restart)
    wall = 1e3 * (time.perf_counter() - started)
    dense = acc.to_dense() if m * n <= DENSE_ERROR_LIMIT else None
    rel = _report_error(dense, fac)
    if args.prefix:
        _write_lu(args.prefix, fac)
    print(
        f"matrix={args.infile} m={m} n={n} eps={args.tol:g} v={args.passes} "
        f"seed={args.seed} rank={outcome.rank} residual_energy={outcome.residual_energy:.6e} "
        f"converged={str(outcome.converged).lower()} passes={acc.product_count} "
        f"rel_err={rel:.6e} wall_ms={wall:.1f}"
    )
    return 0


def _bench_row(alg, matrix, m, n, *, k="", eps="", v="", p="", seed="",
               rel_err="", rank="", passes="", wall_ms=""):
    return {
        "alg": alg, "matrix": matrix, "m": m, "n": n, "k": k, "eps": eps,
        "v": v, "p": p, "seed": seed, "rel_err": rel_err, "rank": rank,
        "passes": passes, "wall_ms": wall_ms,
    }


def _timed_error(fn, dense):
    started = time.perf_counter()
    fac = fn()
    wall = 1e3 * (time.perf_counter() - started)
    return _report_error(dense, fac), wall


def cmd_bench(args):
    if args.suite == "accuracy":
        n = args.n or 500
        ranks = [l - BENCH_OVERSAMPLE for l in range(20, min(201, n + 1), 20)]
        rows = _suite_sweep(args.type, n, args.seeds or 20, args.seed, ranks, oracle=True)
    elif args.suite == "rank-sweep":
        n = args.n or 1000
        ranks = range(100, min(n - BENCH_OVERSAMPLE, 1000) + 1, 100)
        rows = _suite_sweep(args.type, n, args.seeds or 3, args.seed, ranks, oracle=False)
    else:
        rows = _suite_passes(args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _suite_sweep(kind, n, seeds, matrix_seed, ranks, oracle):
    """Relative error of the three drivers at each target rank, one row per
    (algorithm, rank, seed); with oracle, a leading tsvd row per rank gives
    the optimum."""
    a, sigma = matgen.gen_decay(kind, n, n, matrix_seed)
    label = f"{kind}-{n}"
    q_os = BENCH_OVERSAMPLE
    rows = []
    for k in ranks:
        if oracle:
            opt = matgen.oracle_error(sigma, k)[0] / core.fro_norm(sigma)
            rows.append(_bench_row("tsvd", label, n, n, k=k, seed=0,
                                   rel_err=f"{opt:.6e}", rank=k))
        for seed in range(seeds):
            for alg, fn, v, p in (
                ("powerlu", lambda: fixedrank.powerlu(a, k, q_os, 4, seed), 4, ""),
                ("randlu", lambda: fixedrank.randlu(a, k, q_os, 1, seed), 4, 1),
                ("randsvd", lambda: fixedrank.randsvd(a, k, q_os, 1, seed), 4, 1),
            ):
                try:
                    rel, wall = _timed_error(fn, a)
                    rows.append(_bench_row(alg, label, n, n, k=k, v=v, p=p, seed=seed,
                                           rel_err=f"{rel:.6e}", rank=k,
                                           passes=v, wall_ms=f"{wall:.1f}"))
                except RlraError as exc:
                    rows.append(_bench_row(alg, label, n, n, k=k, v=v, p=p, seed=seed,
                                           rel_err="nan", rank=k, passes=v,
                                           wall_ms=f"failed: {type(exc).__name__}"))
    return rows


def _suite_passes(matrix_seed):
    """Measured product counts per algorithm and budget on a small matrix."""
    m, n, k, q_os = 300, 200, 20, 10
    a, _ = matgen.gen_decay("fast", m, n, matrix_seed)
    label = f"fast-{m}x{n}"
    rows = []
    for v in (2, 3, 4, 5):
        acc = InstrumentedAccessor(a)
        fac = fixedrank.powerlu(acc, k, q_os, v, seed=0)
        rows.append(_bench_row("powerlu", label, m, n, k=k, v=v, seed=0,
                               rank=fac.rank, passes=acc.product_count))
    for p in (0, 1, 2):
        for alg, fn in (("randlu", fixedrank.randlu), ("randsvd", fixedrank.randsvd)):
            acc = InstrumentedAccessor(a)
            fac = fn(acc, k, q_os, p, 0)
            rows.append(_bench_row(alg, label, m, n, k=k, v=2 * p + 2, p=p, seed=0,
                                   rank=k, passes=acc.product_count))
    stream = singlepass.DenseColumnStream(a)
    singlepass.single_pass_lu(stream, k, seed=0)
    rows.append(_bench_row("singlepass", label, m, n, k=k, seed=0, rank=k,
                           passes=1, wall_ms=f"columns={stream.columns_pulled}"))
    return rows


def cmd_compress(args):
    pixels, maxval = fileio.read_pgm(args.infile)
    m, n = pixels.shape
    acc = InstrumentedAccessor(pixels)
    width = args.l if args.l is not None else fixedprec.default_width(args.block, m, n)
    params = fixedprec.PrecisionParams(eps=args.tol, b=args.block, l=width, v=args.passes)
    fac, outcome = _adapt_loop(acc, params, args.seed, allow_restart=True)
    recon = fixedrank.reconstruct(fac)
    fileio.write_pgm(args.out, recon, maxval=maxval)
    k = outcome.rank
    rel = core.rel_fro_error(pixels, recon)
    ratio = (m * k + k * n + k) / (m * n)
    print(
        f"image={args.infile} m={m} n={n} rank={k} rel_err={rel:.6e} "
        f"size_ratio={ratio:.4f} passes={acc.product_count} out={args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
