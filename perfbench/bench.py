"""Set-up, rounds and the timed loop.

One process, one caller, a closed loop: each round calls the workload's
drivers back to back in DRIVERS order, all with the round's seed, and the
next round starts when the last call returns.  Every call is checked.  In
timed and traced rounds the reference kernel (see reference.py) is timed
just before each call.  In a traced run each untraced round is followed by
a traced round with the same seed, and their factors must agree bitwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import rlra
from rlra import fileio, fixedprec, fixedrank, singlepass
from rlra.accessors import DenseAccessor, InstrumentedAccessor, SparseAccessor

from checks import Call, DenseTarget, SparseTarget, check, factor_arrays
from reference import Reference
from tracing import TracedAccessor, TracedStream, Tracer
from workloads import DRIVERS

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3
GEN_TIMEOUT_S = 120
WARMUP_ROUND = 1 << 30  # warm-up rounds take seeds from round numbers above this
UNIT_REPS = 5  # standalone products timed per traced round
REF_WARMUP = 5  # reference kernel runs before any timing


def round_seed(seed, r):
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass
class Inputs:
    """What set-up leaves for the timed loop."""

    operand: object  # DenseAccessor or SparseAccessor
    operand_bytes: int  # what one product reads of A (values and indices)
    target: object  # checks target for the operand
    stream_target: object  # checks target for the streamed matrix
    stream_operand: object  # accessor over the streamed matrix
    stream_path: object  # None for an in-memory stream
    file_bytes: int  # size of the streamed file


def load_inputs(w, workdir):
    if w.kind == "dense":
        a = fileio.read_rlra(workdir / "a.rlm")
        op = DenseAccessor(a)
        target = DenseTarget(a, fileio.read_sigma(workdir / "a.sigma"))
        path = workdir / "a.rlm" if w.stream == "rlm" else None
        return Inputs(
            operand=op, operand_bytes=a.nbytes, target=target,
            stream_target=target, stream_operand=op, stream_path=path,
            file_bytes=path.stat().st_size if path else 0,
        )
    oracle = json.loads((workdir / "oracle.json").read_text())
    a = fileio.read_mm(workdir / "a.mtx")
    s = fileio.read_mm(workdir / "s.mtx")
    return Inputs(
        operand=SparseAccessor(a),
        operand_bytes=a.data.nbytes + a.indices.nbytes + a.indptr.nbytes,
        target=SparseTarget(a, **oracle["a"]),
        stream_target=SparseTarget(s, **oracle["s"]),
        stream_operand=SparseAccessor(s),
        stream_path=workdir / "s.mtx",
        file_bytes=(workdir / "s.mtx").stat().st_size,
    )


def open_stream(w, inp, tracer):
    if w.stream == "memory":
        stream = singlepass.DenseColumnStream(inp.operand.to_dense())
        return stream if tracer is None else TracedStream(stream, tracer)
    cls = singlepass.RlraFileColumnStream if w.stream == "rlm" else singlepass.MatrixMarketColumnStream
    if tracer is None:
        return cls(inp.stream_path)
    stream = tracer.call("singlepass.read", cls, inp.stream_path)
    if w.stream == "mtx":  # parsed whole on open
        tracer.count("fileio.bytes_read", inp.file_bytes)
        return TracedStream(stream, tracer)
    return TracedStream(stream, tracer, file_bytes_per_column=8 * stream.shape[0])


def call_driver(w, inp, driver, seed, tracer=None):
    op = inp.operand if tracer is None else TracedAccessor(inp.operand, tracer)
    op = InstrumentedAccessor(op)
    stream = outcome = None
    error = ""
    t0 = time.perf_counter()
    try:
        if driver == "powerlu":
            out = fixedrank.powerlu(op, w.k, w.q_os, v=4, seed=seed)
        elif driver == "randlu":
            out = fixedrank.randlu(op, w.k, w.q_os, p=1, seed=seed)
        elif driver == "randsvd":
            out = fixedrank.randsvd(op, w.k, w.q_os, p=1, seed=seed, truncate=True)
        elif driver == "powerlu_fp":
            out, outcome = fixedprec.powerlu_fp(op, rlra.PrecisionParams(*w.fp), seed=seed)
        else:
            stream = open_stream(w, inp, tracer)
            out = singlepass.single_pass_lu(stream, w.k, seed=seed)
    except Exception as exc:  # a call that raises is a failed call, never dropped
        out, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    return Call(
        driver, seconds, out=out, products=op.product_count,
        columns=stream.columns_pulled if stream is not None else 0, error=error,
        rank=outcome.rank if outcome else 0, converged=bool(outcome and outcome.converged),
    )


def run_round(w, inp, seed, tracer=None, reference=None):
    """All drivers back to back; returns (seconds in the drivers, [Call]).

    With a reference, the reference kernel is timed just before each call
    and its time is kept with the call.
    """
    calls = []
    for d in DRIVERS:
        ref = reference() if reference else math.nan
        c = call_driver(w, inp, d, seed, tracer)
        c.ref_seconds = ref
        calls.append(c)
    return sum(c.seconds for c in calls), calls


def release(calls):
    """Drop checked factors so that no round's arrays outlive it."""
    for c in calls:
        c.out = None


def bitwise_equal(a, b):
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    return all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(factor_arrays(a), factor_arrays(b))
    )


@dataclass
class Run:
    """Everything the timed loop measured."""

    setup_s: list
    inputs: Inputs
    calls: list  # every checked Call, warm-up rounds included
    tracer: object = None
    rounds: list = field(default_factory=list)  # seconds in the drivers, untraced rounds
    round_refs: list = field(default_factory=list)  # per untraced round: sum of call/reference
    timed: list = field(default_factory=list)  # Calls of the untraced timed rounds
    traced_rounds: list = field(default_factory=list)  # seconds in the drivers, traced rounds
    traced_calls: list = field(default_factory=list)  # Calls of traced rounds
    units: list = field(default_factory=list)  # per traced round: {driver: product seconds}
    alloc_peak: float = math.nan  # tracemalloc high-water mark of one round, bytes


class Bench:
    def __init__(self, w, seed, root, tiny=False):
        self.w = w
        self.seed = seed
        self.root = Path(root)
        self.tiny = tiny
        self.workdir = self.root / ".perfbench" / f"work-{w.name}-{seed}-{os.getpid()}"
        self.calls = []
        self.setups = 0
        self.reference = Reference()
        for _ in range(REF_WARMUP):
            self.reference()

    def checked(self, inp, calls):
        for c in calls:
            check(self.w, inp.target, inp.stream_target, c)
        self.calls.extend(calls)
        return calls

    def matched(self, calls, twins):
        """Fail each call in twins whose outcome differs from its twin in calls."""
        for c, t in zip(calls, twins):
            if not bitwise_equal(c.out, t.out):
                t.reasons.append("factors differ from the untraced run")
            elif t.error != c.error:
                t.reasons.append("raised differently from the untraced run")
            if (t.products, t.columns, t.rank) != (c.products, c.columns, c.rank):
                t.reasons.append("consumed a different budget from the untraced run")
        self.calls.extend(twins)
        return twins

    def setup(self):
        """Generate inputs in a child process, load them, run one warm-up round."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
               str(self.root / "src"), self.w.name, str(self.seed), str(self.workdir)]
        subprocess.run(cmd + (["tiny"] if self.tiny else []), check=True, timeout=GEN_TIMEOUT_S)
        inp = load_inputs(self.w, self.workdir)
        self.setups += 1
        _, calls = run_round(self.w, inp, round_seed(self.seed, WARMUP_ROUND + self.setups))
        release(self.checked(inp, calls))
        return inp

    def run(self, seconds, trace):
        try:
            setup_s = []
            inp = None
            for _ in range(SETUP_REPS):
                inp = None  # free the previous inputs before loading new ones
                t0 = time.perf_counter()
                inp = self.setup()
                setup_s.append(time.perf_counter() - t0)
            return self.measure(inp, setup_s, seconds, trace)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def measure(self, inp, setup_s, seconds, trace):
        w = self.w
        tracer = Tracer() if trace else None
        run = Run(setup_s, inp, self.calls, tracer)
        end = time.perf_counter() + seconds
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() < end:
            s = round_seed(self.seed, r)
            wall, calls = run_round(w, inp, s, reference=self.reference)
            run.rounds.append(wall)
            run.round_refs.append(sum(c.seconds / c.ref_seconds for c in calls))
            run.timed.extend(self.checked(inp, calls))
            if trace:
                tracer.round = r
                with tracer.patched():
                    wall, traced = run_round(w, inp, s, tracer, self.reference)
                run.traced_rounds.append(wall)
                run.traced_calls.extend(self.matched(calls, traced))
                run.units.append(self.unit_products(inp))
                if r == 0:
                    run.alloc_peak = self.alloc_peak(inp, s, calls)
                release(traced)
            release(calls)
            r += 1
        return run

    def alloc_peak(self, inp, seed, calls):
        """tracemalloc high-water mark of one more untraced round, in bytes.

        Allocation tracking slows Python-level code severalfold, so this
        round runs without spans and its time is not used.
        """
        tracemalloc.start()
        try:
            _, again = run_round(self.w, inp, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        release(self.matched(calls, again))
        return peak

    def unit_products(self, inp):
        """Median seconds of one standalone A @ X, at each driver's width."""
        w = self.w
        cases = {
            "powerlu": (inp.operand, w.l), "randlu": (inp.operand, w.l),
            "randsvd": (inp.operand, w.l), "powerlu_fp": (inp.operand, w.fp[2]),
            "single_pass": (inp.stream_operand, w.k),
        }
        memo = {}
        for driver, (op, width) in cases.items():
            key = (id(op), width)
            if key not in memo:
                x = rlra.gaussian(width, op.shape[1], width)
                times = []
                for _ in range(UNIT_REPS):
                    t0 = time.perf_counter()
                    op.matmul(x)
                    times.append(time.perf_counter() - t0)
                memo[key] = float(np.median(times))
            cases[driver] = memo[key]
        return cases
