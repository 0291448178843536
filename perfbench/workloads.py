"""The benchmark's workloads: operand shapes, driver parameters, and inputs.

Inputs are generated by a separate process (run this file as a script) and
written to a work directory in the library's own file formats; the timing
process only loads them.  That keeps generation temporaries out of the
timing process's peak resident memory.
"""

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

DRIVERS = ("powerlu", "randlu", "randsvd", "powerlu_fp", "single_pass")

# A fixed-rank or single-pass call on a dense operand fails when its
# err_ratio exceeds ERR_SLACK times the worst err_ratio the seed code showed
# on the workload.  A sparse operand's flat spectrum leaves the optimal
# rank-k error within 1% of ||A||_F, so that even a zero factorization has
# an err_ratio near 1; there a call fails when the share of the optimal
# rank-k energy (the sum of the top k sigma_i^2) it captures falls below
# ENERGY_SLACK times the seed code's worst share.
ERR_SLACK = 2.0
ENERGY_SLACK = 0.9

# README pass budgets at v=4 (powerlu, powerlu_fp) and p=1 (randlu, randsvd,
# 2p + 2 = 4); single_pass_lu makes one column sweep instead of products.
PRODUCT_BUDGET = {"powerlu": 4, "randlu": 4, "randsvd": 4, "powerlu_fp": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dense" or "sparse"
    m: int
    n: int
    k: int
    q_os: int
    fp: tuple  # powerlu_fp PrecisionParams (eps, b, l, v)
    stream: str  # where single_pass_lu reads from: "memory", "rlm" or "mtx"
    # per-driver worst of the seed code: err_ratio on a dense operand (see
    # ERR_SLACK), captured energy share on a sparse one (see ENERGY_SLACK)
    err_worst: dict = field(default_factory=dict)
    energy_worst: dict = field(default_factory=dict)
    decay: str = ""  # dense: matgen decay kind
    density: float = 0.0  # sparse: fill of the operand and of the .mtx file
    stream_shape: tuple = ()  # mtx: shape of the streamed file

    @property
    def l(self):
        return self.k + self.q_os


# Why each workload exists (the layer it stresses) is recorded in
# BENCHMARK.json.  err_worst is the largest err_ratio the seed code showed
# over 12 input seeds x 4 rounds (30 x 6 for TINY), rounded up; for
# single_pass on the dense workloads, over 10 inputs x 100 seeds, because
# its k x k sketch solve gives it the longest tail.  energy_worst is the
# smallest captured energy share over 15 input seeds x 3 to 8 rounds (40 x 6
# for TINY), rounded down.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-sketch", kind="dense", decay="fast", m=2000, n=2000,
            k=100, q_os=10, fp=(1e-3, 10, 200, 4), stream="memory",
            err_worst={"powerlu": 1.42, "randlu": 1.58, "randsvd": 1.001, "single_pass": 11.3},
        ),
        Workload(
            name="dense-pass", kind="dense", decay="slow", m=8000, n=2000,
            k=10, q_os=10, fp=(1e-2, 10, 30, 4), stream="rlm",
            err_worst={"powerlu": 1.26, "randlu": 1.31, "randsvd": 1.001, "single_pass": 4.1},
        ),
        Workload(
            # a flat spectrum: powerlu_fp stops near rank 10 of l=40 only
            # at a loose tolerance; no eps below about 0.99 is reachable
            name="sparse-tall", kind="sparse", density=1e-3, m=20000, n=20000,
            k=30, q_os=10, fp=(0.999, 10, 40, 4), stream="mtx", stream_shape=(5000, 5000),
            energy_worst={"powerlu": 0.66, "randlu": 0.66, "randsvd": 0.68, "single_pass": 0.43},
        ),
    )
}

# The same workloads shrunk to run in well under a second; used by the
# benchmark's self-tests.
TINY = {
    "dense-sketch": replace(
        WORKLOADS["dense-sketch"], m=160, n=160, k=20, fp=(1e-3, 10, 80, 4),
        err_worst={"powerlu": 1.31, "randlu": 1.31, "randsvd": 1.001, "single_pass": 3.4},
    ),
    "dense-pass": replace(
        WORKLOADS["dense-pass"], m=600, n=150,
        err_worst={"powerlu": 1.31, "randlu": 1.33, "randsvd": 1.001, "single_pass": 4.44},
    ),
    "sparse-tall": replace(
        WORKLOADS["sparse-tall"], m=1500, n=1500, density=1e-2, k=10, fp=(0.999, 10, 20, 4),
        stream_shape=(300, 300),
        energy_worst={"powerlu": 0.64, "randlu": 0.66, "randsvd": 0.75, "single_pass": 0.46},
    ),
}


def generate(w, seed, workdir):
    """Write the workload's inputs for seed into workdir (run in a child)."""
    import numpy as np
    from scipy.sparse.linalg import svds

    from rlra import fileio, matgen

    workdir = Path(workdir)
    if w.kind == "dense":
        a, sigma = matgen.gen_decay(w.decay, w.m, w.n, seed=seed)
        fileio.write_rlra(workdir / "a.rlm", a)
        fileio.write_sigma(workdir / "a.sigma", sigma)
        return
    oracle = {}
    files = {"a": (w.m, w.n, seed), "s": (*w.stream_shape, seed + 1)}
    for name, (m, n, s) in files.items():
        fileio.write_mm(workdir / f"{name}.mtx", matgen.gen_sparse(m, n, w.density, seed=s).sparse)
        a = fileio.read_mm(workdir / f"{name}.mtx")  # the oracle is of what the run loads
        top = svds(a, k=w.k, return_singular_vectors=False, random_state=s)
        oracle[name] = {"fro": float(np.sqrt((a.data**2).sum())), "top": sorted(top.tolist())[::-1]}
    (workdir / "oracle.json").write_text(json.dumps(oracle))


if __name__ == "__main__":
    # usage: workloads.py SRC_DIR WORKLOAD SEED WORKDIR [tiny]
    src, name, seed, workdir = sys.argv[1:5]
    sys.path.insert(0, src)
    table = TINY if sys.argv[5:] == ["tiny"] else WORKLOADS
    generate(table[name], int(seed), workdir)
