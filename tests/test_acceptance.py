"""Acceptance gate: one check per shipped claim, one printed verdict line each.

Every tolerance below was frozen from an independent calculation (closed-form
spectra, direct dense residuals, printed expectation bounds) before being
asserted here.  Run with `pytest -s tests/test_acceptance.py` to see the
verdict lines on success; they are also shown on any failure.
"""

import time

import numpy as np

from rlra import core, fixedprec, fixedrank, matgen, rangefinder, singlepass
from rlra.accessors import DenseAccessor, InstrumentedAccessor
from rlra.cli import CSV_HEADER, main
from projection_identities import (
    error_indicator_check,
    projection_decomposition_check,
    range_agreement,
    single_pass_baseline_2011,
    spec_norm,
)


def _criterion(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _mean_rel_err(fn, a, seeds=20):
    errs = []
    for seed in seeds if hasattr(seeds, "__iter__") else range(seeds):
        f = fn(seed)
        approx = (f.U * f.S) @ f.V.T if isinstance(f, fixedrank.LowRankSVD) \
            else fixedrank.reconstruct(f)
        errs.append(core.rel_fro_error(a, approx))
    return float(np.mean(errs))


def test_criterion_01_factorization_matches_projected_sketch():
    # the pivoted assembly adds no error beyond the basis projection itself
    a = core.gaussian(99, 300, 200)
    acc = DenseAccessor(a)
    nrm = core.fro_norm(a)
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        f = fixedrank.powerlu(acc, 30, q_os=10, v=3, seed=seed)
        vk = rangefinder.general_power_basis_v(acc, 40, 3, seed)[:, :30]
        lhs = core.fro_norm(a[f.p, :][:, f.q] - f.L @ f.U)
        rhs = core.fro_norm(a - a @ vk @ vk.T)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    _criterion(
        1, "factorization error equals projection error",
        worst <= 1e-10 * nrm and elapsed < 5.0,
        f"worst gap {worst / nrm:.2e} of ||A||, {elapsed:.2f}s",
    )


def test_criterion_02_mean_error_within_2x_of_optimum():
    a, sigma = matgen.gen_decay("fast", 1000, 1000, seed=11)
    opt = matgen.oracle_error(sigma, 65)[0] / core.fro_norm(sigma)
    means = {
        "powerlu": _mean_rel_err(lambda s: fixedrank.powerlu(a, 65, 10, 4, s), a),
        "randlu": _mean_rel_err(lambda s: fixedrank.randlu(a, 65, 10, 1, s), a),
        "randsvd": _mean_rel_err(
            lambda s: fixedrank.randsvd(a, 65, 10, 1, s, truncate=True), a
        ),
    }
    ok = all(m <= 2.0 * opt for m in means.values())
    detail = ", ".join(f"{k} {v / opt:.2f}x" for k, v in means.items())
    _criterion(2, "rank-65 means within 2x of the rank-65 optimum", ok, detail)


def test_criterion_03_shared_seed_ranges_coincide():
    # rank exactly 15 = sketch width: both factor ranges must equal Range(A)
    sig = np.concatenate([np.linspace(2.0, 1.0, 15), np.zeros(65)])
    a, _ = matgen.gen_decay("custom", 100, 80, seed=5, sigma=sig)
    worst = 0.0
    for seed in range(20):
        f1 = fixedrank.randlu(a, 15, q_os=0, p=1, seed=seed)
        f2 = fixedrank.powerlu(a, 15, q_os=0, v=4, seed=seed)
        worst = max(worst, range_agreement(f1, f2))
    _criterion(3, "root ranges agree across the two factorizations",
               worst <= 1e-6, f"largest principal angle {worst:.2e} rad")


def test_criterion_04_residual_energy_identity():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(10, 60))
        n = int(rng.integers(10, 60))
        j = int(rng.integers(1, min(m, n)))
        a = core.gaussian_from(rng, m, n)
        v, _ = np.linalg.qr(core.gaussian_from(rng, n, j))
        lhs, rhs = error_indicator_check(a, v)
        worst = max(worst, abs(lhs - rhs) / core.fro_norm(a) ** 2)
    _criterion(4, "projection residual energy identity", worst <= 1e-8,
               f"worst relative defect {worst:.2e}")


def test_criterion_05_blockwise_projection_recursion():
    rng = np.random.default_rng(55)
    defect = 0.0
    for _ in range(5):
        a = core.gaussian_from(rng, 40, 40)
        q, _ = np.linalg.qr(core.gaussian_from(rng, 40, 20))
        blocks = [q[:, 4 * i : 4 * i + 4] for i in range(5)]
        defect = max(defect, projection_decomposition_check(a, blocks))

    a6, _ = matgen.gen_decay("fast", 400, 400, seed=13)
    out = fixedprec.adaptive_rank(
        a6, fixedprec.PrecisionParams(eps=1e-2, b=10, l=100, v=4), seed=0
    )
    direct = core.fro_norm(a6 - a6 @ out.V @ out.V.T) ** 2
    rel = abs(out.residual_energy - direct) / direct
    _criterion(5, "accumulated projector recursion and tracked energy",
               defect <= 1e-9 and rel <= 1e-6,
               f"recursion defect {defect:.2e}, energy drift {rel:.2e}")


def test_criterion_06_fixed_precision_ranks():
    results = []
    ok = True
    for n in (500, 1000):
        a, _ = matgen.gen_decay("fast", n, n, seed=17)
        fac, out = fixedprec.powerlu_fp(
            a, fixedprec.PrecisionParams(eps=1e-4, b=10, l=200, v=4), seed=0
        )
        rel = core.rel_fro_error(a, fixedrank.reconstruct(fac))
        ok &= 65 <= out.rank <= 70 and rel <= 1e-4
        results.append(f"fast n={n}: rank {out.rank}, err {rel:.1e}")
    a, _ = matgen.gen_decay("sshaped", 1000, 1000, seed=17)
    fac, out = fixedprec.powerlu_fp(
        a, fixedprec.PrecisionParams(eps=1e-2, b=10, l=200, v=4), seed=0
    )
    rel = core.rel_fro_error(a, fixedrank.reconstruct(fac))
    ok &= 30 <= out.rank <= 40 and rel <= 1e-2
    results.append(f"sshaped: rank {out.rank}, err {rel:.1e}")
    _criterion(6, "adaptive ranks land in the expected windows", ok,
               "; ".join(results))


def test_criterion_07_pass_budgets_exact():
    a, _ = matgen.gen_decay("fast", 300, 200, seed=1)
    ok = True
    for v in (2, 3, 4, 5):
        acc = InstrumentedAccessor(a)
        fixedrank.powerlu(acc, 20, q_os=10, v=v, seed=0)
        ok &= acc.product_count == v
    for p in (0, 1, 2):
        for fn in (fixedrank.randlu, fixedrank.randsvd):
            acc = InstrumentedAccessor(a)
            fn(acc, 20, 10, p, 0)
            ok &= acc.product_count == 2 * p + 2
    stream = singlepass.DenseColumnStream(a)
    singlepass.single_pass_lu(stream, 20, seed=0)
    ok &= stream.columns_pulled == 200
    _criterion(7, "instrumented pass budgets are exact", ok,
               "v passes, 2p+2 passes, one column sweep")


def test_criterion_08_single_pass_tracks_optimum_and_beats_baseline():
    a, sigma = matgen.gen_decay("fast", 500, 500, seed=3)
    nrm = core.fro_norm(sigma)
    ok = True
    details = []
    for k in (20, 40, 65, 80):
        opt = matgen.oracle_error(sigma, k)[0] / nrm
        sp = _mean_rel_err(
            lambda s: singlepass.single_pass_lu(singlepass.DenseColumnStream(a), k, s),
            a,
        )
        base = _mean_rel_err(
            lambda s: single_pass_baseline_2011(a, k, s), a
        )
        ok &= sp <= 5.0 * opt and sp <= base
        details.append(f"k={k}: {sp / opt:.2f}x opt, baseline {base / opt:.0f}x")
    _criterion(8, "single-pass accuracy", ok, "; ".join(details))


def test_criterion_09_expectation_bounds_hold():
    # printed expectation bounds for the two power-iteration bases, evaluated
    # from the true spectrum; empirical means must fall below them
    sigma = matgen.decay_sigma("fast", 200)
    k, q = 20, 10

    def bound(t):
        s1 = sigma[k]
        head = (1.0 + np.sqrt(k / (q - 1.0)) * s1**t) * s1**t
        tail = np.e * np.sqrt(k + q) / q * np.sqrt((sigma[k:] ** (2 * t)).sum())
        return (head + tail) ** (1.0 / t)

    a, _ = matgen.gen_decay("fast", 200, 200, seed=7)
    errs = {3: [], 4: []}
    for seed in range(20):
        for v in (3, 4):
            basis = rangefinder.general_power_basis_v(a, 30, v, seed)
            errs[v].append(spec_norm(a - a @ basis @ basis.T))
    mean3, mean4 = np.mean(errs[3]), np.mean(errs[4])
    ok = mean3 <= bound(2) and mean4 <= bound(3) and mean4 <= bound(2)
    _criterion(
        9, "Monte-Carlo spectral errors below the expectation bounds", ok,
        f"3-pass {mean3:.4f} <= {bound(2):.4f}; 4-pass {mean4:.4f} <= {bound(3):.4f}",
    )


def test_criterion_10_reorthogonalization_never_hurts():
    a, _ = matgen.gen_decay("slow", 500, 500, seed=3)
    re_errs, raw_errs = [], []
    for seed in range(20):
        f = fixedrank.randlu(a, 140, q_os=10, p=2, seed=seed)
        re_errs.append(core.rel_fro_error(a, fixedrank.reconstruct(f)))
        f = fixedrank.randlu_noreorth(a, 140, q_os=10, p=2, seed=seed)
        raw_errs.append(core.rel_fro_error(a, fixedrank.reconstruct(f)))
    mean_re, mean_raw = np.mean(re_errs), np.mean(raw_errs)
    _criterion(10, "stabilized iteration at least as accurate as the raw chain",
               mean_re <= mean_raw,
               f"stabilized {mean_re:.2e} vs raw {mean_raw:.2e}")


def test_criterion_11_timing_is_informational_only(tmp_path):
    # wall-clock never gates acceptance: the bench CSV reports it, and this
    # test only checks the schema, deliberately asserting nothing about speed
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--suite", "passes", "--out", out])
    import csv as csvmod

    with open(out, newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    header_ok = rc == 0 and list(rows[0].keys()) == CSV_HEADER
    wall_ok = all("wall_ms" in row for row in rows)
    _criterion(11, "timing reported but never asserted", header_ok and wall_ok,
               f"{len(rows)} rows, schema {','.join(CSV_HEADER)}")
