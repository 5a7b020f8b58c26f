"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines stream; the Monte Carlo criteria take a few minutes at desk scale.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from bandwidth_reference import population_mse_bandwidth_density
from npinfer import (
    DensitySample,
    density_infer,
    gj_density_estimate,
    gj_equivalent_kernel,
    induced_kernel,
    kernel,
)
from npinfer.bandwidth import coverage_polys
from npinfer.density import critical_value
from npinfer.locpoly import (
    RegressionSample,
    VarianceMethod,
    lp_fit,
    lp_infer,
    lp_residual_weights,
    lp_variance,
)
from npinfer.simulate import McConfig, replication_rng, run_mc

EPA = kernel("epanechnikov")
UNI = kernel("uniform")
MVD2 = kernel("minvar-deriv2")
HC3 = VarianceMethod("hc3")

_WORKERS = 2  # sandbox parallelism for the heavy Monte Carlo criteria


def report(num, passed, detail, t0, capsys=None):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance {num}] {status} ({time.time() - t0:.1f}s) {detail}"
    if capsys is not None:
        with capsys.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_kernel_algebra_identity(capsys):
    t0 = time.time()
    u = np.linspace(-1.0, 1.0, 1001)
    vals = induced_kernel(UNI, MVD2, 2, 1.0).eval_many(u)
    target = 0.375 * (3.0 - 5.0 * u**2)
    err = float(np.max(np.abs(vals - target)))
    report(1, err < 1e-12, f"max abs error {err:.2e} vs (3/8)(3-5u^2)", t0, capsys)


def test_criterion_2_generalized_jackknife_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(200)
        s = DensitySample(x)
        h1, h2 = rng.uniform(0.3, 0.9), rng.uniform(1.0, 2.0)
        direct = gj_density_estimate(s, 0.1, h1, h2, EPA, UNI)
        M = gj_equivalent_kernel(EPA, UNI, h1, h2)
        via_kernel = float(np.sum(M.eval_many((x - 0.1) / h1)) / (s.n * h1))
        worst = max(worst, abs(direct - via_kernel) / max(1e-300, abs(direct)))
    report(2, worst < 1e-10, f"max relative gap {worst:.2e} over 100 samples", t0, capsys)


def test_criterion_3_us_undercoverage_at_mse_bandwidth(capsys):
    t0 = time.time()
    n, reps = 2000, 10000
    h = population_mse_bandwidth_density(norm.pdf, 0.0, n, EPA)
    truth = norm.pdf(0.0)
    z = norm.ppf(0.975)
    covered = 0
    for r in range(reps):
        rng = replication_rng(3003, r)
        x = rng.standard_normal(n)
        k = EPA.eval_many(-x / h)
        f_hat = float(k.mean()) / h
        sig2 = max(0.0, float(np.mean(k**2)) - float(np.mean(k)) ** 2) / h
        hw = z * math.sqrt(sig2 / (n * h))
        covered += f_hat - hw <= truth <= f_hat + hw
    coverage = covered / reps
    report(
        3,
        0.81 <= coverage <= 0.85,
        f"I_US coverage {coverage:.4f} at population h*_mse = {h:.4f} (target ~0.83)",
        t0,
        capsys,
    )


def test_criterion_4_remark7_collapse(capsys):
    t0 = time.time()
    rng = np.random.default_rng(4004)
    worst_point = worst_var = 0.0
    for i in range(100):
        n = 150
        if i % 3 == 0:  # boundary designs
            x = rng.uniform(0, 1, n)
            x0 = 0.0
        else:
            x = rng.uniform(-1, 1, n)
            x0 = rng.uniform(-0.5, 0.5)
        y = np.sin(3 * x) + rng.standard_normal(n)
        s = RegressionSample(x, y)
        p, h = 1, rng.uniform(0.35, 0.8)
        res = lp_infer(s, x0, p, p + 1, h, h, EPA, EPA, 0.05, HC3)
        fit_q = res.fit_q
        rbc_point = res.m_hat - res.bias_hat
        worst_point = max(
            worst_point, abs(rbc_point - fit_q.m_hat) / max(1e-12, abs(fit_q.m_hat))
        )
        v_q = lp_residual_weights(fit_q, HC3, s)
        var_rbc = lp_variance(res.weights_rbc, v_q, n, h)
        var_q = lp_variance(fit_q.weights, v_q, n, h)
        worst_var = max(worst_var, abs(var_rbc - var_q) / max(1e-12, var_q))
    ok = worst_point < 1e-10 and worst_var < 1e-10
    report(
        4,
        ok,
        f"max rel gaps: point {worst_point:.2e}, variance {worst_var:.2e} "
        "(q=p+1, K=L, rho=1 incl. boundary)",
        t0,
        capsys,
    )


def test_criterion_5_main_simulation_model5(capsys):
    t0 = time.time()
    points = (-2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3)
    cfg = McConfig(
        estimator="lpreg",
        model=5,
        n=500,
        replications=2000,
        evaluation_points=points,
        alpha=0.05,
        p=1,
        q=2,
        rho=1.0,
        vce="hc3",
        bw_rule="dpi",
        seed=5005,
    )
    rep = run_mc(cfg, workers=_WORKERS)
    rbc = rep.coverage["RBC"]
    us = rep.coverage["US"]
    in_band = all(0.90 <= c <= 0.98 for c in rbc)
    idx = {x: i for i, x in enumerate(rep.points)}
    gaps = [rbc[idx[x]] - us[idx[x]] for x in (points[1], points[2])]
    us_below = all(g >= 0.03 for g in gaps)
    detail = (
        "RBC=" + "/".join(f"{c:.3f}" for c in rbc)
        + " US=" + "/".join(f"{c:.3f}" for c in us)
        + f" gaps at -1/3,0: {gaps[0]:.3f},{gaps[1]:.3f}"
        + f" failures={sum(rep.singular_failures) + sum(rep.bandwidth_failures)}"
    )
    report(5, in_band and us_below, detail, t0, capsys)


def test_criterion_6_boundary_validity(capsys):
    t0 = time.time()
    cfg = McConfig(
        estimator="lpreg",
        model=5,
        n=500,
        replications=2000,
        evaluation_points=(0.0,),
        alpha=0.05,
        p=1,
        q=2,
        rho=1.0,
        vce="hc3",
        bw_rule="dpi",
        boundary=True,
        x_law=(0.0, 1.0),
        seed=6006,
    )
    rep = run_mc(cfg, workers=_WORKERS)
    rbc = rep.coverage["RBC"][0]
    hbar = rep.bandwidth_stats[0]["mean"]
    report(
        6,
        0.90 <= rbc <= 0.98,
        f"boundary RBC coverage {rbc:.3f} at x=0 on U[0,1] (mean h={hbar:.3f})",
        t0,
        capsys,
    )


def test_criterion_7_variance_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(7007)
    n, redraws = 200, 10000
    X = np.sort(rng.uniform(-1, 1, n))
    sd = 0.6 + 0.8 * np.abs(X)  # true heteroskedastic Sigma
    h, b, x0, p = 0.4, 0.4, 0.1, 1
    base = RegressionSample(X, np.zeros_like(X))
    res = lp_infer(base, x0, p, p + 1, h, b, EPA, EPA, 0.05, HC3)
    w_us = res.fit_p.weights
    w_rbc = res.weights_rbc
    draws = rng.standard_normal((redraws, n)) * sd
    mc_us = n * h * np.var(draws[:, res.fit_p.window] @ w_us, ddof=1)
    mc_rbc = n * h * np.var(draws[:, res.window] @ w_rbc, ddof=1)
    pop_us = lp_variance(w_us, sd[res.fit_p.window] ** 2, n, h)
    pop_rbc = lp_variance(w_rbc, sd[res.window] ** 2, n, h)
    rel_us = abs(mc_us - pop_us) / pop_us
    rel_rbc = abs(mc_rbc - pop_rbc) / pop_rbc
    report(
        7,
        rel_us < 0.03 and rel_rbc < 0.03,
        f"nh Var(m_hat|X): MC vs formula rel err {rel_us:.4f} (US), {rel_rbc:.4f} (RBC)",
        t0,
        capsys,
    )


def test_criterion_8_exactness_battery(capsys):
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(8008)

    # noise-free polynomial reproduction
    x = rng.uniform(-1, 1, 60)
    s = RegressionSample(x, 2 * x + 1)
    fit = lp_fit(s, 0.2, 1, 0.5, EPA)
    checks.append(abs(fit.m_hat - 1.4) < 1e-10)
    checks.append(float(np.max(np.abs(fit.residuals))) < 1e-10)
    checks.append(abs(lp_infer(s, 0.2, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3).bias_hat) < 1e-10)

    # moments against a 64-node Gauss-Legendre oracle
    glx, glw = np.polynomial.legendre.leggauss(64)
    for name in ("uniform", "triangular", "epanechnikov", "mseopt-order4", "minvar-deriv2"):
        spec = kernel(name)
        for k in (0, 2, 4):
            oracle = 0.0
            for lo, hi, _ in spec.pieces:
                lo, hi = float(lo), float(hi)
                u = 0.5 * (hi - lo) * glx + 0.5 * (hi + lo)
                oracle += 0.5 * (hi - lo) * float(np.sum(glw * u**k * spec.eval_many(u)))
            oracle *= (-1) ** k / math.factorial(k)
            checks.append(abs(spec.moment_mu(k) - oracle) < 1e-10)

    # coverage-error polynomial values
    _q1, q2, q3 = coverage_polys(EPA, critical_value(0.05))
    checks.append(abs(q2 - (-3.2666)) < 1e-3)
    checks.append(abs(q3 - 5.378) < 1e-3)

    # affine / translation / permutation equivariance
    x = rng.uniform(-1, 1, 80)
    y = np.sin(2 * x) + rng.standard_normal(80)
    base = lp_infer(RegressionSample(x, y), 0.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
    aff = lp_infer(
        RegressionSample(x, -2 * y + 3), 0.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3
    )
    checks.append(abs(aff.m_hat - (-2 * base.m_hat + 3)) < 1e-10 * max(1, abs(base.m_hat)))
    checks.append(abs(aff.se_us - 2 * base.se_us) < 1e-10 * base.se_us)
    mov = lp_infer(
        RegressionSample(x + 7, y), 7.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3
    )
    checks.append(abs(mov.m_hat - base.m_hat) < 1e-8 * max(1, abs(base.m_hat)))
    perm = rng.permutation(80)
    per = lp_infer(
        RegressionSample(x[perm], y[perm]), 0.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3
    )
    checks.append(per.m_hat == base.m_hat and per.se_rbc == base.se_rbc)

    bad = [i for i, ok in enumerate(checks) if not ok]
    report(8, not bad, f"{len(checks)} exact-tolerance checks, failing: {bad or 'none'}", t0, capsys)


def test_criterion_9_worker_determinism(capsys):
    t0 = time.time()
    cfg = McConfig(
        estimator="lpreg",
        model=5,
        n=200,
        replications=48,
        evaluation_points=(-1 / 3, 0.0),
        bw_rule="dpi",
        vce="hc3",
        seed=9009,
    )
    blobs = []
    for workers in (1, 2, 8):
        rep = run_mc(cfg, workers=workers)
        blobs.append(json.dumps(rep.to_dict(), sort_keys=True).encode())
    same = blobs[0] == blobs[1] == blobs[2]
    report(9, same, f"McReport JSON bytes identical across workers 1/2/8 ({len(blobs[0])} bytes)", t0, capsys)
