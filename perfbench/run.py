"""Benchmark the rlra drivers on one seeded workload.

    python3 perfbench/run.py --workload dense-sketch --seed 1 --seconds 10 --trace 0

Run from the repository root; rlra is imported from ./src.  With --trace 0
the last line of output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  The lines above
it give the machine record, every timing with its sample count and tail, and
the call counts.  A fuller record, spans included, goes to
.perfbench/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread, for the timing process and the input generator;
    must run before numpy loads.

    A multi-threaded BLAS call waits for its slowest thread.  On a 2-core
    machine while another two-thread BLAS job ran, a 2000x2000 powerlu call
    took about 2.2 s with two OpenBLAS threads against 0.3 s with one;
    uncontended, the two took about the same time.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rlra" / "__init__.py").is_file():
        print(f"error: no rlra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    from bench import Bench
    from machine import machine_record
    from report import end_to_end, err_ratios, median, per_layer, tail, timings
    from workloads import TINY, WORKLOADS

    table = TINY if args.tiny else WORKLOADS
    if args.workload not in table:
        ap.error(f"unknown workload {args.workload!r}; pick from {sorted(table)}")
    run = Bench(table[args.workload], args.seed, ROOT, tiny=args.tiny).run(args.seconds, bool(args.trace))
    machine = machine_record(ROOT)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    failed = [c for c in run.calls if c.reasons]

    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, (samples, unit) in timings(run).items():
        t = tail(samples)
        extra = f", p{t[0]:g} {t[1]:.6g}" if t else ", no tail (<10 samples beyond p75)"
        print(f"timing {name}: n={len(samples)}, p50 {median(samples):.6g}{extra} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for d, r in err_ratios(run.calls).items():
        print(f"err_ratio {d}: n={len(r)}, p50 {median(r):.6g}, max {max(r):.6g}")
    print(f"calls: attempted {len(run.calls)}, failed {len(failed)}, "
          f"failed_share {len(failed) / len(run.calls):.6g}")
    for c in failed:
        print(f"failed {c.driver}: {'; '.join(c.reasons)}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "timings": {k: {"samples": s, "unit": u} for k, (s, u) in timings(run).items()},
        "failed": [{"driver": c.driver, "reasons": c.reasons} for c in failed],
        "spans": [vars(s) for s in run.tracer.spans] if run.tracer else [],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(run.calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
