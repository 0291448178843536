"""Per-layer numbers from one traced round's spans and counts.

Self time is a span's duration minus the time its direct child spans cover.
Figures marked _computed come from operand and argument shapes, not from
measurement.
"""

from collections import defaultdict

PRODUCTS = ("accessors.matmul", "accessors.rmatmul")
PINV = ("kernels.pinv_factor", "kernels.pinv_apply", "kernels.pinv_transpose_apply")
PERM = ("core.apply_row_perm", "core.apply_col_perm", "core.apply_inv_row_perm", "core.invert_perm")


def lu_flop(shape):
    """Exact flops of the unblocked elimination on an m x n matrix."""
    m, n = shape
    return sum((m - j - 1) * (1 + 2 * (n - j - 1)) for j in range(min(m, n)))


def qr_flop(shape):
    """Householder QR of an m x n matrix, m >= n: 2mn^2 - 2n^3/3."""
    m, n = shape
    return 2 * m * n * n - 2 * n**3 / 3


def round_layers(tracer, r, operand_bytes):
    """The per-layer figures of traced round r (milliseconds for times)."""
    spans = [s for s in tracer.spans if s.round == r]
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    flop = defaultdict(float)
    cols = 0
    top = defaultdict(float)  # PINV / PERM time not nested in the same family
    for s in spans:
        dur[s.name] += s.dur
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        if s.name in PRODUCTS:
            cols += s.shape[1]
        elif s.name == "backend.plu_inplace":
            flop[s.name] += lu_flop(s.shape)
        elif s.name == "kernels.eqr":
            flop[s.name] += qr_flop(s.shape)
        for family in (PINV, PERM):
            if s.name in family and (s.parent < 0 or tracer.spans[s.parent].name not in family):
                top[family] += s.dur

    def module_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def count(name):
        return tracer.counts.get((r, name), 0)

    products = sum(calls[p] for p in PRODUCTS)
    plu_s = dur["backend.plu_inplace"]
    ms = 1e3
    return {
        "accessors.products": products,
        "accessors.product_cols": cols,
        "accessors.product_ms": ms * sum(dur[p] for p in PRODUCTS),
        "accessors.gb_read_computed": products * operand_bytes / 1e9,
        "accessors.norm_calls": calls["accessors.fro_norm"],
        "accessors.norm_ms": ms * dur["accessors.fro_norm"],
        "backend.plu_inplace_calls": calls["backend.plu_inplace"],
        "backend.plu_inplace_ms": ms * plu_s,
        "backend.plu_gflop_computed": flop["backend.plu_inplace"] / 1e9,
        "backend.plu_gflops": flop["backend.plu_inplace"] / 1e9 / plu_s if plu_s else 0.0,
        "kernels.plu_self_ms": ms * self_s["kernels.plu"],
        "kernels.eqr_calls": calls["kernels.eqr"],
        "kernels.eqr_ms": ms * dur["kernels.eqr"],
        "kernels.eqr_gflop_computed": flop["kernels.eqr"] / 1e9,
        "kernels.pinv_ms": ms * top[PINV],
        "core.gaussian_ms": ms * dur["core.gaussian"],
        "core.perm_ms": ms * top[PERM],
        "rangefinder.self_ms": ms * module_self("rangefinder."),
        "fixedrank.assembly_ms": ms * dur["fixedrank.lu_from_projection"],
        "fixedrank.self_ms": ms * module_self("fixedrank."),
        "fixedprec.scan_ms": ms * (self_s["fixedprec.adaptive_rank"] + self_s["fixedprec.refine_rank"]),
        "singlepass.read_ms": ms * dur["singlepass.read"],
        "singlepass.sketch_ms": ms * self_s["singlepass.stream_sketch"],
        "singlepass.panels": count("singlepass.panels"),
        "singlepass.columns": count("singlepass.columns"),
        "fileio.mb_read_computed": count("fileio.bytes_read") / 1e6,
    }
