"""Self-tests of the benchmark, at shrunken sizes.

    python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import rlra
from rlra import fixedrank

import bench
import tracing
from checks import DenseTarget, SparseTarget, unpermuted
from report import END_TO_END, PER_LAYER
from workloads import DRIVERS, TINY

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run_cli(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_emits_every_named_metric(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
               for v in result["metrics"].values())
    assert "machine: " in proc.stdout


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(TINY)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("dense-sketch", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def tiny_bench(workload="dense-sketch"):
    return bench.Bench(TINY[workload], 5, ROOT, tiny=True)


def scale_u(f):
    f.U *= 1.5


def poison_l(f):
    f.L[-1, 0] = np.nan


def zero_u(f):
    f.U[:] = 0.0


@pytest.mark.parametrize("workload, corrupt, reason", [
    ("dense-sketch", scale_u, "err_ratio"),
    ("dense-sketch", poison_l, "non-finite"),
    ("dense-pass", scale_u, "err_ratio"),
    # a sparse operand's err_ratio is near 1 even for these; its check is
    # on the captured energy
    ("sparse-tall", scale_u, "energy share"),
    ("sparse-tall", zero_u, "energy share"),
])
def test_corrupted_factor_is_counted_failed(monkeypatch, workload, corrupt, reason):
    real = fixedrank.powerlu

    def corrupted(*args, **kwargs):
        f = real(*args, **kwargs)
        corrupt(f)
        return f

    monkeypatch.setattr(fixedrank, "powerlu", corrupted)
    run = tiny_bench(workload).run(0.0, trace=False)
    failed = [c for c in run.calls if c.reasons]
    assert failed and {c.driver for c in failed} == {"powerlu"}
    assert len(failed) == sum(c.driver == "powerlu" for c in run.calls)
    assert all(reason in c.reasons[0] for c in failed)


def test_extra_product_breaks_the_budget(monkeypatch):
    real = fixedrank.randsvd

    def wasteful(a, *args, **kwargs):
        a.matmul(np.ones((a.shape[1], 1)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(fixedrank, "randsvd", wasteful)
    run = tiny_bench().run(0.0, trace=False)
    failed = [c for c in run.calls if c.reasons]
    assert failed and all(c.driver == "randsvd" and "budget 4" in c.reasons[0] for c in failed)


def test_error_targets_match_a_dense_residual():
    a, sigma = rlra.gen_decay("fast", 300, 90, seed=2)
    f = fixedrank.powerlu(a, 12, 5, v=4, seed=1)
    exact = rlra.rel_fro_error(a, fixedrank.reconstruct(f))
    assert DenseTarget(a, sigma).rel_error(*unpermuted(f)) == pytest.approx(exact, rel=1e-10)
    s = rlra.gen_sparse(200, 150, 0.05, seed=4).sparse
    g = fixedrank.randsvd(s, 8, 4, p=1, seed=3, truncate=True)
    d = s.toarray()
    exact = np.linalg.norm(d - (g.U * g.S) @ g.V.T) / np.linalg.norm(d)
    target = SparseTarget(s, float(np.linalg.norm(d)), np.linalg.svd(d, compute_uv=False)[:8])
    assert target.rel_error(*unpermuted(g)) == pytest.approx(exact, rel=1e-10)


# The traced run must differ from the untraced one only by the wrappers' own
# time: the same library calls with the same arguments, the same results.


def test_wrapper_passes_arguments_results_and_exceptions_through():
    tracer = tracing.Tracer()
    sentinel, arg = object(), object()
    seen = []

    def fn(x, *, y):
        seen.append((x, y))
        return sentinel

    assert tracer.wrap("m.fn", fn)(arg, y=arg) is sentinel
    assert seen == [(arg, arg)]

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert [s.name for s in tracer.spans] == ["m.fn", "m.boom"] and not tracer._stack


def test_patched_restores_every_attribute():
    before = [getattr(m, a) for m, a in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            assert all(getattr(m, a) is not b for (m, a), b in zip(tracing.TARGETS, before))
            raise RuntimeError
    assert all(getattr(m, a) is b for (m, a), b in zip(tracing.TARGETS, before))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_round_makes_the_same_library_calls(workload, monkeypatch):
    b = tiny_bench(workload)
    try:
        inp = b.setup()
        log = []

        def recorder(name, fn):
            def rec(*args, **kwargs):
                log.append((name, tuple(getattr(x, "shape", None) for x in args)))
                return fn(*args, **kwargs)
            return rec

        for mod, attr in tracing.TARGETS:
            monkeypatch.setattr(mod, attr, recorder(attr, getattr(mod, attr)))
        _, plain = bench.run_round(b.w, inp, 11)
        plain_log, log[:] = list(log), []
        tracer = tracing.Tracer()
        with tracer.patched():
            _, traced = bench.run_round(b.w, inp, 11, tracer)
    finally:
        shutil.rmtree(b.workdir)
    assert log == plain_log
    library = [s for s in tracer.spans if not s.name.startswith(("accessors.", "singlepass.read"))]
    assert [s.name.split(".")[1] for s in library] == [name for name, _ in log]
    for c, t in zip(plain, traced):
        assert c.out is not None and bench.bitwise_equal(c.out, t.out)
        assert (c.products, c.columns, c.rank) == (t.products, t.columns, t.rank)
    assert [c.driver for c in traced] == list(DRIVERS)
    # self times partition the top-level spans' time
    top = sum(s.dur for s in tracer.spans if s.parent < 0)
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(top, rel=1e-9)
