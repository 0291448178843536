"""Dump every rlra driver's factors over a fixed grid, and compare two dumps.

    python3 tools/parity.py dump SRC OUT.npz [--ulp [up|down|signs1|signs2]]
    python3 tools/parity.py compare BEFORE.npz AFTER.npz [--floor FLOOR.npz ...]

`dump` imports rlra from the source directory SRC (the `src` of a checkout)
and runs powerlu v=2..5, randlu / randsvd / randlu_noreorth p=0..2,
powerlu_fp at five tolerances and single_pass_lu over dense, row-major and
file streams with q_os 0 and 5, on fast 300x200, slow 500^2 and sparse
600x400 matrices and at the benchmark shapes (2000^2 fast, 8000x2000 slow,
20000^2 sparse).  On the three small matrices powerlu_fp also runs at
v = 6, as the driver `powerlu_fp_v6`, whose chain cuts more than one
interior product.  Every output array is stored under
`driver|matrix|params|seed|field`; a raised error is stored as its text.
Each LU result also stores the field `probe`, A_k @ Z for its m x n
reconstruction A_k and a fixed Gaussian Z (n x 4): the permutations are
undone, so two runs whose factors differ only in pivot order have probes
that agree to rounding.
BLAS is pinned to one thread, so a dump is reproducible.  The benchmark
shapes take about a minute and 1 GB.

`dump --ulp [MOVE]` runs the same grid with every entry of each A (the
stored nonzeros of a sparse A) moved one ulp: toward +inf (`up`, the
default), toward -inf (`down`), or each toward +inf or -inf by a random
sign (`signs1`, `signs2`: the seed is the digit).  It gives the noise
floor: how far a driver's output moves under a perturbation of A far below
any change of method.

`compare` prints, per driver and per matrix, how many arrays differ and the
worst relative Frobenius difference among the floating-point ones, plain
and up to column signs, then the same for the LU probes alone, per driver;
it exits 1 when any array differs.  Singular vectors and QR bases are
unique only up to the sign of each column, so two correct runs whose QRs
differ in method (Householder against CholeskyQR2) differ by about sqrt(2)
plain and by rounding up to signs.  With `--floor`, a dump of BEFORE's
source made with `--ulp`, each row also prints the worst difference up to
column signs between BEFORE and the floor, so that a difference can be read
against rounding.  `--floor` takes several such dumps, one per MOVE, and
each floor is then the worst over them: one perturbation is a single
sample of rounding noise, and a change of rounding order alone can read
above it.  A floor row is the worst over every matrix (or driver),
so `--floor` adds two tables per (driver, matrix) cell, all arrays and LU
probes, with the cell's worst difference up to column signs, its own
floor, and their ratio: a change on a well-conditioned matrix is read
against that matrix's floor, not against one set by an ill-conditioned
matrix.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

EPS_GRID = (0.999, 0.1, 1e-2, 1e-3, 1e-6)
DRAW_SEEDS = (0, 1)
PROBE_SEED, PROBE_COLUMNS = 12345, 4
ULP_MOVES = ("up", "down", "signs1", "signs2")


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    kind: str  # matgen decay kind, or "sparse"
    m: int
    n: int
    k: int
    fp: tuple  # powerlu_fp (b, l, v)
    matrix_seeds: tuple
    density: float = 0.0
    fp_more_v: tuple = ()  # powerlu_fp pass budgets run besides fp's v


CASES = (
    Case("fast300x200", "fast", 300, 200, 20, (10, 100, 4), (0, 1), fp_more_v=(6,)),
    Case("slow500", "slow", 500, 500, 20, (10, 100, 4), (0, 1), fp_more_v=(6,)),
    Case("sparse600x400", "sparse", 600, 400, 20, (10, 100, 4), (0, 1), density=0.01, fp_more_v=(6,)),
    Case("fast2000", "fast", 2000, 2000, 100, (10, 200, 4), (0,)),
    Case("slow8000x2000", "slow", 8000, 2000, 10, (10, 30, 4), (0,)),
    Case("sparse20000", "sparse", 20000, 20000, 30, (10, 40, 4), (0,), density=1e-3),
)
# single_pass_lu densifies no matrix above this many entries
DENSE_STREAM_LIMIT = 20_000_000


def result_fields(result):
    """(field, array) pairs of a driver result: a dataclass, a NamedTuple,
    or a plain tuple of those."""
    if dataclasses.is_dataclass(result):
        names = [f.name for f in dataclasses.fields(result)]
    elif hasattr(result, "_fields"):
        names = result._fields
    else:
        return [(f"{i}.{name}", arr) for i, part in enumerate(result)
                for name, arr in result_fields(part)]
    return [(name, np.asarray(getattr(result, name))) for name in names]


def lu_probe(result, z):
    """A_k @ Z for the LowRankLU in a driver result (the result itself or
    the first part of a plain tuple), or None for an SVD.

    A_k[p, :][:, q] = L @ U, so (A_k @ Z)[p] = L @ (U @ Z[q]): the
    permutations are undone without forming A_k.
    """
    f = result[0] if type(result) is tuple else result
    if not dataclasses.is_dataclass(f):
        return None
    out = np.empty((f.L.shape[0], z.shape[1]))
    out[f.p] = f.L @ (f.U @ z[f.q])
    return out


def driver_runs(case, a, workdir):
    """(driver, params, call) for every grid point of one matrix."""
    from rlra import fileio, fixedprec, fixedrank, singlepass

    k = case.k
    runs = [("powerlu", f"v={v}", lambda s, v=v: fixedrank.powerlu(a, k, v=v, seed=s))
            for v in range(2, 6)]
    for name in ("randlu", "randsvd", "randlu_noreorth"):
        fn = getattr(fixedrank, name)
        runs += [(name, f"p={p}", lambda s, fn=fn, p=p: fn(a, k, p=p, seed=s)) for p in range(3)]
    b, l, v = case.fp
    runs += [("powerlu_fp" if w == v else f"powerlu_fp_v{w}", f"eps={eps:g}",
              lambda s, eps=eps, w=w: fixedprec.powerlu_fp(a, fixedprec.PrecisionParams(eps, b, l, w), s))
             for w in (v, *case.fp_more_v) for eps in EPS_GRID]

    # stream label -> (driver function, its first argument, made per call)
    sparse = case.kind == "sparse"
    sources = {}
    if case.m * case.n <= DENSE_STREAM_LIMIT:
        dense = a.toarray() if sparse else a
        sources["dense"] = (singlepass.single_pass_lu, lambda: singlepass.DenseColumnStream(dense))
        sources["rowmajor"] = (singlepass.single_pass_lu_rowmajor, lambda: dense)
    path = str(Path(workdir) / (case.name + (".mtx" if sparse else ".rlm")))
    if sparse:
        fileio.write_mm(path, a)
        sources["mtx"] = (singlepass.single_pass_lu, lambda: singlepass.MatrixMarketColumnStream(path))
    else:
        fileio.write_rlra(path, a)
        sources["rlm"] = (singlepass.single_pass_lu, lambda: singlepass.RlraFileColumnStream(path))
    for label, (fn, make) in sources.items():
        runs += [("single_pass_lu", f"{label},q_os={q}",
                  lambda s, fn=fn, make=make, q=q: fn(make(), k, s, q_os=q)) for q in (0, 5)]
    return runs


def one_ulp(a, move="up"):
    """A with every stored entry moved one ulp: toward +inf ("up"), toward
    -inf ("down"), or each toward either by a random sign ("signs<seed>")."""
    values = a.data if sp.issparse(a) else a
    if move.startswith("signs"):
        signs = np.random.default_rng(int(move[5:])).integers(0, 2, values.shape)
        toward = np.where(signs, np.inf, -np.inf)
    else:
        toward = {"up": np.inf, "down": -np.inf}[move]
    if not sp.issparse(a):
        return np.nextafter(a, toward)
    a = a.copy()
    a.data = np.nextafter(a.data, toward)
    return a


def dump(src, out, ulp=None):
    sys.path.insert(0, str(Path(src).resolve()))
    from rlra import matgen

    arrays = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            for mseed in case.matrix_seeds:
                if case.kind == "sparse":
                    a = matgen.gen_sparse(case.m, case.n, case.density, mseed).sparse
                else:
                    a, _ = matgen.gen_decay(case.kind, case.m, case.n, mseed)
                if ulp:
                    a = one_ulp(a, ulp)
                matrix = f"{case.name}/m{mseed}"
                z = np.random.default_rng(PROBE_SEED).standard_normal((case.n, PROBE_COLUMNS))
                for driver, params, call in driver_runs(case, a, workdir):
                    for s in DRAW_SEEDS:
                        key = f"{driver}|{matrix}|{params}|s{s}"
                        try:
                            result = call(s)
                            fields = result_fields(result)
                            probe = lu_probe(result, z)
                            if probe is not None:
                                fields.append(("probe", probe))
                        except Exception as exc:  # an error is a result too
                            fields = [("error", np.array(f"{type(exc).__name__}: {exc}"))]
                        for name, arr in fields:
                            arrays[f"{key}|{name}"] = arr
                print(f"{matrix}: {len(arrays)} arrays so far", file=sys.stderr)
    np.savez(out, **arrays)
    print(f"wrote {len(arrays)} arrays to {out}")
    return 0


def difference(x, y, signs=False):
    """None when equal; else the relative Frobenius difference of two float
    arrays of one shape, or nan for any other kind of mismatch.  With signs,
    each column of a 2-d y is first flipped to the sign of its dot product
    with the same column of x."""
    if x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
        return None
    if x.shape != y.shape or x.dtype.kind != "f" or y.dtype.kind != "f":
        return float("nan")
    if signs and y.ndim == 2:
        y = y * np.where(np.sum(x * y, axis=0) < 0, -1.0, 1.0)
    scale = np.linalg.norm(x)
    return float(np.linalg.norm(x - y) / scale) if scale > 0 else float("inf")


def worst_value(diffs):
    numeric = [d for d in diffs if d is not None and not np.isnan(d)]
    return max(numeric) if numeric else None


def shown(value):
    return "-" if value is None else f"{value:.3g}"


def worst(diffs):
    return shown(worst_value(diffs))


def ratio(diff, floor):
    """diff / floor as printed: "-" when nothing differs, "inf" when the
    floor did not move."""
    if diff is None:
        return "-"
    return f"{diff / floor:.3g}" if floor else "inf"


CELL_TABLES = ("cell", "LU probe cell")


def grouped_differences(x, y):
    """Per table ("driver", "matrix", "LU probe", and per (driver, matrix)
    "cell" and "LU probe cell") and row name, the (plain, up to signs)
    difference of every key in either dump."""
    groups = {name: defaultdict(list) for name in ("driver", "matrix", "LU probe") + CELL_TABLES}
    for key in sorted(set(x) | set(y)):
        driver, matrix, *_, field = key.split("|")
        if key in x and key in y:
            d = (difference(x[key], y[key]), difference(x[key], y[key], signs=True))
        else:
            d = (float("nan"), float("nan"))
        case = matrix.split("/")[0]
        groups["driver"][driver].append(d)
        groups["matrix"][case].append(d)
        groups["cell"][f"{driver}/{case}"].append(d)
        if field == "probe":
            groups["LU probe"][driver].append(d)
            groups["LU probe cell"][f"{driver}/{case}"].append(d)
    return groups


def load(path):
    with np.load(path) as f:
        return dict(f)


def compare(before, after, floor=()):
    """floor: paths of --ulp dumps of BEFORE's source; each printed floor is
    the worst over them."""
    x = load(before)
    groups = grouped_differences(x, load(after))
    floors = [grouped_differences(x, load(f)) for f in floor]
    any_diff = False
    for by, table in groups.items():
        cells = by in CELL_TABLES
        if cells and not floors:
            continue
        width = max([20, *map(len, table)]) + 1
        print(f"{by:<{width}}{'arrays':>7} {'differ':>7} {'worst rel diff':>15} "
              f"{'worst rel diff up to column signs':>34}" + (f" {'one-ulp floor':>14}" if floors else "")
              + (f" {'ratio':>8}" if cells else ""))
        for name, pairs in table.items():
            plain, signed = zip(*pairs)
            differing = [d for d in plain if d is not None]
            other = sum(np.isnan(d) for d in differing)
            note = f"  ({other} not comparable: permutation, rank, error text or missing)" if other else ""
            floor_value = worst_value(d for f in floors for _, d in f[by].get(name, ()))
            floor_cell = f" {shown(floor_value):>14}" if floors else ""
            ratio_cell = f" {ratio(worst_value(signed), floor_value):>8}" if cells else ""
            print(f"{name:<{width}}{len(plain):>7} {len(differing):>7} {worst(plain):>15} "
                  f"{worst(signed):>34}{floor_cell}{ratio_cell}{note}")
            any_diff |= bool(differing)
        print()
    return 1 if any_diff else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the grid and write every output array")
    d.add_argument("src", help="directory holding the rlra package, e.g. ./src")
    d.add_argument("out", help="output .npz file")
    d.add_argument("--ulp", nargs="?", const="up", choices=ULP_MOVES,
                   help="move every entry of each A one ulp first (default: up)")
    c = sub.add_parser("compare", help="count differing arrays between two dumps")
    c.add_argument("before")
    c.add_argument("after")
    c.add_argument("--floor", nargs="+", default=(),
                   help="--ulp dumps of BEFORE's source; the worst over them is printed beside the difference")
    args = ap.parse_args(argv)
    if args.command == "dump":
        return dump(args.src, args.out, args.ulp)
    return compare(args.before, args.after, args.floor)


if __name__ == "__main__":
    sys.exit(main())
