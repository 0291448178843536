"""Metric tables and the figures computed from a Run.

END_TO_END and PER_LAYER name every metric the benchmark prints, with its
unit; BENCHMARK.json lists the same names and units.

Driver times are gated in "refs": a call's time over the time the reference
kernel took just before it (see reference.py), because the raw times drift
with the load other jobs put on the host.  The raw times are printed beside
them.
"""

import math
import resource

import numpy as np

from layers import round_layers
from workloads import DRIVERS, PRODUCT_BUDGET

END_TO_END = {
    "setup_s": "s",
    "mix_refs.p50": "refs",
    **{f"{d}_refs.p50": "refs" for d in DRIVERS},
    "err_ratio.worst_p50": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "accessors.products": "count",
    "accessors.product_cols": "count",
    "accessors.product_ms": "ms",
    "accessors.one_product_ms": "ms",
    "accessors.gb_read_computed": "GB",
    "accessors.norm_calls": "count",
    "accessors.norm_ms": "ms",
    **{f"pass_efficiency.{d}": "ratio" for d in DRIVERS},
    "backend.plu_inplace_calls": "count",
    "backend.plu_inplace_ms": "ms",
    "backend.plu_gflop_computed": "GFLOP",
    "backend.plu_gflops": "GFLOP/s",
    "kernels.plu_self_ms": "ms",
    "kernels.eqr_calls": "count",
    "kernels.eqr_ms": "ms",
    "kernels.eqr_gflop_computed": "GFLOP",
    "kernels.pinv_ms": "ms",
    "core.gaussian_ms": "ms",
    "core.perm_ms": "ms",
    "rangefinder.self_ms": "ms",
    "fixedrank.assembly_ms": "ms",
    "fixedrank.self_ms": "ms",
    "fixedprec.scan_ms": "ms",
    "fixedprec.rank": "count",
    "singlepass.read_ms": "ms",
    "singlepass.sketch_ms": "ms",
    "singlepass.panels": "count",
    "singlepass.columns": "count",
    "fileio.mb_read_computed": "MB",
    "mem.alloc_peak_mb": "MB",
    "trace.overhead_pct": "%",
}

PERCENTILES = (99.9, 99, 90, 75)


def tail(samples):
    """(percentile, value) of the highest listed percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def median(xs):
    return float(np.median(xs)) if len(xs) else math.nan


def driver_times(calls):
    """{driver: [milliseconds]} over the given calls."""
    out = {d: [] for d in DRIVERS}
    for c in calls:
        out[c.driver].append(1e3 * c.seconds)
    return out


def driver_refs(calls):
    """{driver: [call time over the reference kernel's]} over the given calls."""
    out = {d: [] for d in DRIVERS}
    for c in calls:
        out[c.driver].append(c.seconds / c.ref_seconds)
    return out


def timings(run):
    """Every timing sample set, end-to-end metrics' and raw: name -> (samples, unit)."""
    series = {
        "setup_s": (run.setup_s, "s"),
        "mix_refs": (run.round_refs, "refs"),
        "mix_s": (run.rounds, "s"),
        "ref_ms": ([1e3 * c.ref_seconds for c in run.timed], "ms"),
    }
    refs, ms = driver_refs(run.timed), driver_times(run.timed)
    for d in DRIVERS:
        series[f"{d}_refs"] = (refs[d], "refs")
        series[f"{d}_ms"] = (ms[d], "ms")
    return series


def err_ratios(calls):
    """{driver: [err_ratio]} over the checked fixed-rank and single-pass calls."""
    out = {}
    for c in calls:
        if not math.isnan(c.err_ratio):
            out.setdefault(c.driver, []).append(c.err_ratio)
    return out


def end_to_end(run):
    """err_ratio.worst_p50 is the largest per-driver median err_ratio: the
    least accurate driver's typical call.  The maximum over single calls has
    a long tail (single_pass_lu solves with a k x k sketch) and is printed
    only as information."""
    refs = driver_refs(run.timed)
    ratios = err_ratios(run.calls)
    values = {
        "setup_s": median(run.setup_s),
        "mix_refs.p50": median(run.round_refs),
        **{f"{d}_refs.p50": median(refs[d]) for d in DRIVERS},
        "err_ratio.worst_p50": max((median(r) for r in ratios.values()), default=math.nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (values[k], u) for k, u in END_TO_END.items()}


def per_layer(run):
    """Medians over traced rounds of round_layers, plus figures taken apart
    from the spans.  pass_efficiency.<driver> is the driver's untraced p50
    over (its product budget, 1 sweep for single_pass, times the median of a
    standalone A @ X at the driver's width on its operand); it reads below 1
    where the driver's transpose products are cheaper than A @ X."""
    rounds = sorted({s.round for s in run.tracer.spans})
    rows = [round_layers(run.tracer, r, run.inputs.operand_bytes) for r in rounds]
    values = {k: median([row[k] for row in rows]) for k in rows[0]}
    values["accessors.one_product_ms"] = 1e3 * median([u["powerlu"] for u in run.units])
    p50 = {d: median(ms) / 1e3 for d, ms in driver_times(run.timed).items()}
    for d in DRIVERS:
        unit = median([u[d] for u in run.units])
        values[f"pass_efficiency.{d}"] = p50[d] / (PRODUCT_BUDGET.get(d, 1) * unit)
    values["fixedprec.rank"] = median([c.rank for c in run.traced_calls if c.driver == "powerlu_fp"])
    values["mem.alloc_peak_mb"] = run.alloc_peak / 1e6
    values["trace.overhead_pct"] = 100 * (median(run.traced_rounds) / median(run.rounds) - 1)
    return {k: (values[k], u) for k, u in PER_LAYER.items()}
