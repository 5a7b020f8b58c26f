import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import bandwidth_reference as reference
from edgeworth_reference import whole_sample_rows
from locpoly_reference import whole_sample_lp_fit
from npinfer import DensitySample, induced_kernel, kernel
from npinfer import bandwidth
from npinfer.bandwidth import (
    RULES,
    BandwidthChoice,
    coverage_polys_at,
    coverage_polys_density,
    dpi_bandwidth_density,
    dpi_bandwidth_lp,
    global_poly_derivative,
    minimize_ce_objective,
    mse_bandwidth_density_normal_ref,
    mse_bandwidth_density_reference,
    mse_bandwidth_lp,
    normal_reference_density_derivative,
    population_mse_bandwidth_density,
    rot_bandwidth,
    select,
    silverman_rot_density,
    _edgeworth_q_hats,
)
from npinfer.errors import MonotoneObjectiveError, ZeroCurvatureError
from npinfer.locpoly import RegressionSample, lp_fit
from npinfer.simulate import (
    DENSITY_MODELS,
    REGRESSION_MODELS,
    gen_density_sample,
    gen_regression_sample,
    replication_rng,
)

EPA = kernel("epanechnikov")
MSE2 = kernel("mseopt-deriv2")


class TestCoveragePolys:
    def test_epanechnikov_q2(self):
        cp = coverage_polys_density(EPA, 0.05)
        assert cp.q2 == pytest.approx(-(1 / 0.6) * 1.95996, abs=1e-4)

    def test_epanechnikov_q3(self):
        cp = coverage_polys_density(EPA, 0.05)
        assert cp.q3 == pytest.approx(5.378, abs=1e-3)

    def test_alpha_near_one_vanishes(self):
        cp = coverage_polys_density(EPA, 1 - 1e-12)
        assert abs(cp.q1) < 1e-9
        assert abs(cp.q2) < 1e-9
        assert abs(cp.q3) < 1e-9

    @pytest.mark.parametrize("name", ["uniform", "epanechnikov", "mseopt-order4"])
    @pytest.mark.parametrize("z", [0.5, 1.0, 1.959964, 2.575])
    def test_exactly_odd_in_z(self, name, z):
        spec = kernel(name)
        plus = coverage_polys_at(spec, z)
        minus = coverage_polys_at(spec, -z)
        for a, b in zip(plus, minus):
            assert a == pytest.approx(-b, abs=1e-14)

    def test_q2_negative_for_valid_kernels(self):
        for name in ["uniform", "triangular", "epanechnikov"]:
            assert coverage_polys_density(kernel(name), 0.05).q2 < 0


class TestNormalReference:
    def test_density_derivatives(self):
        # phi''(0) = -phi(0), phi''''(0) = 3 phi(0)
        assert normal_reference_density_derivative(0, 0, 1, 0) == pytest.approx(
            norm.pdf(0), rel=1e-12
        )
        assert normal_reference_density_derivative(0, 0, 1, 2) == pytest.approx(
            -norm.pdf(0), rel=1e-12
        )
        assert normal_reference_density_derivative(0, 0, 1, 4) == pytest.approx(
            3 * norm.pdf(0), rel=1e-12
        )

    def test_mse_reference_value(self):
        bw = mse_bandwidth_density_reference(0.0, 2000, 2, EPA)
        assert bw.value == pytest.approx(0.596, abs=1e-3)

    def test_zero_curvature_at_inflection(self):
        # the normal second derivative vanishes one sigma from the mean
        with pytest.raises(ZeroCurvatureError):
            mse_bandwidth_density_reference(1.0, 500, 2, EPA)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(400)
        h1 = mse_bandwidth_density_normal_ref(DensitySample(x), 0.3, 2, EPA).value
        h2 = mse_bandwidth_density_normal_ref(DensitySample(5 * x), 1.5, 2, EPA).value
        assert h2 == pytest.approx(5 * h1, rel=1e-12)

    def test_population_balance_bandwidth(self):
        h = population_mse_bandwidth_density(norm.pdf, 0.0, 2000, EPA)
        # defining property: n h bias(h)^2 equals sigma^2(h)
        ek = quad(lambda u: EPA(u) * norm.pdf(u * h), -1, 1)[0]
        ek2 = quad(lambda u: EPA(u) ** 2 * norm.pdf(u * h), -1, 1)[0]
        bias = ek - norm.pdf(0.0)
        sig2 = ek2 - h * ek**2
        assert 2000 * h * bias**2 == pytest.approx(sig2, rel=1e-8)
        # and its large-n limit is the closed-form normal-reference value
        h_big = population_mse_bandwidth_density(norm.pdf, 0.0, 10**8, EPA)
        ref = mse_bandwidth_density_reference(0.0, 10**8, 2, EPA).value
        assert h_big == pytest.approx(ref, rel=0.02)


class TestSilvermanAndRot:
    def test_silverman_value(self):
        a = math.sqrt(499 / 500)  # two-point pattern with sd exactly one
        s = DensitySample(np.array([a, -a] * 250))
        bw = silverman_rot_density(s, 2)
        assert bw.value == pytest.approx(2.34 * 500 ** (-0.2), rel=1e-12)
        assert bw.value == pytest.approx(0.676, abs=1e-3)

    def test_silverman_degenerate_flagged(self):
        with pytest.raises(ZeroCurvatureError, match="^sample standard deviation is zero$"):
            silverman_rot_density(DensitySample(np.zeros(10)), 2)

    def test_silverman_linear_in_sigma(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        b1 = silverman_rot_density(DensitySample(x), 2).value
        b2 = silverman_rot_density(DensitySample(2 * x), 2).value
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_rot_density_kappa2_identity(self):
        assert rot_bandwidth(0.37, "density", 2, 1000).value == pytest.approx(0.37, abs=0)

    def test_rot_lp_interior_p1_identity(self):
        assert rot_bandwidth(0.42, "lp-interior", 1, 700).value == pytest.approx(0.42, abs=0)

    def test_rot_lp_boundary_p1(self):
        bw = rot_bandwidth(1.0, "lp-boundary", 1, 500)
        assert bw.value == pytest.approx(500 ** (-1 / 20), rel=1e-12)
        assert bw.value == pytest.approx(0.733, abs=1e-3)

    def test_rot_exponents_are_printed_rationals(self):
        cases = [
            ("density", 2, 0.0),
            ("density", 4, -2 / (9 * 7)),
            ("lp-interior", 1, 0.0),
            ("lp-interior", 3, -2 / (9 * 7)),
            ("lp-boundary", 1, -1 / 20),
            ("lp-boundary", 3, -3 / (9 * 6)),
        ]
        for context, order, expo in cases:
            bw = rot_bandwidth(1.0, context, order, 1234)
            assert bw.diagnostics["exponent"] == pytest.approx(expo, abs=1e-15)


class TestMinimizer:
    def test_symmetric_root(self):
        H, roots = minimize_ce_objective((1.0, -1.0, 0.0), 4, (1e-2, 1e2))
        assert H == pytest.approx(1.0, rel=1e-14)
        assert roots == [H]

    def test_monotone_raises(self):
        with pytest.raises(MonotoneObjectiveError):
            minimize_ce_objective((2.0, 0.0, 0.0), 4, (1e-2, 1e2))

    def test_stationary_point(self):
        H, roots = minimize_ce_objective((1.0, 1.0, 0.0), 4, (1e-2, 1e2))
        assert H == pytest.approx((1 / 9) ** 0.1, rel=1e-14)
        assert roots == []

    def test_beats_every_scanned_point(self):
        coeffs, exps = (0.73, -2.1, 0.4), (-1, 9, 4)
        lo, hi = 1e-2, 1e2
        H, _roots = minimize_ce_objective(coeffs, 4, (lo, hi))

        def obj(v):
            return (coeffs[0] * v ** exps[0] + coeffs[1] * v ** exps[1] + coeffs[2] * v ** exps[2]) ** 2

        grid = np.geomspace(lo, hi, 200)
        assert obj(H) <= min(obj(v) for v in grid) + 1e-18

    def test_least_objective_among_basin_candidates(self):
        # roots at H = 1 and 1.01 and a stationary point between them lie in one basin
        t1, t2 = 1.0, 1.01**5
        H, roots = minimize_ce_objective((t1 * t2, 1.0, -(t1 + t2)), 4, (1e-2, 1e2))
        assert roots == pytest.approx([1.0, 1.01], rel=1e-12)
        assert H in roots

    def test_far_apart_roots_without_cancellation(self):
        t1, t2 = 0.1**5, 50.0**5
        _H, roots = minimize_ce_objective((t1 * t2, 1.0, -(t1 + t2)), 4, (1e-2, 1e2))
        assert roots == pytest.approx([0.1, 50.0], rel=1e-12)

    def test_two_roots_the_scan_takes_the_larger(self):
        # the reference density study (model 1, n=500), replication 0 at x = 1.0:
        # the objective has roots 4.3503 and 5.0162, and the scan's basin is the second
        s = gen_density_sample(DENSITY_MODELS[1], 500, replication_rng(1, 0))
        diag = dpi_bandwidth_density(s, 1.0, EPA, MSE2, 2, 0.05).diagnostics
        small, large = diag["H_candidates"]
        assert small == pytest.approx(4.3503, abs=1e-4)
        assert large == pytest.approx(5.0162, abs=1e-4)
        assert diag["H"] == pytest.approx(large, rel=1e-12)

    # zero or 1e-4 to 1e3 in magnitude: far smaller coefficients underflow in
    # the oracle's squared scan, which then reads a flat objective as monotone
    _coeff = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-4, 3)),
    )

    @settings(max_examples=300)
    @given(a=_coeff, b=_coeff, c=_coeff, s=st.integers(1, 6), scale=st.floats(0.1, 10.0))
    def test_against_golden_section_oracle(self, a, b, c, s, scale):
        bracket = (0.05 * scale, 20.0 * scale)

        def outcome(solve):
            try:
                return solve()
            except MonotoneObjectiveError:
                return "monotone"

        new = outcome(lambda: minimize_ce_objective((a, b, c), s, bracket))
        old = outcome(
            lambda: reference.minimize_ce_objective((a, b, c), (-1, 1 + 2 * s, s), bracket)
        )
        assert (new == "monotone") == (old == "monotone")
        if old == "monotone":
            return
        H, roots = new
        assert roots == sorted(roots)
        assert all(bracket[0] <= r <= bracket[1] for r in roots)

        def f(v):
            return abs(a / v + b * v ** (1 + 2 * s) + c * v**s)

        assert H == pytest.approx(old, rel=1e-6) or f(H) <= f(old) * (1 + 1e-12)


class TestDensityDpi:
    def test_objective_coefficients_match_symbolic_oracle(self):
        rng = np.random.default_rng(3)
        s = DensitySample(rng.standard_normal(600))
        bw = dpi_bandwidth_density(s, 0.0, EPA, MSE2, 2, 0.05)
        assert not bw.fallback
        a, b, c = bw.diagnostics["objective_coeffs"]

        # independent symbolic evaluation: quadrature moments of M and the
        # closed-form polynomials at the normal quantile
        M = induced_kernel(EPA, MSE2, 2, 1.0)
        lo, hi = M.support
        cuts = sorted({float(p[0]) for p in M.pieces} | {float(p[1]) for p in M.pieces})
        def theta(k):
            return sum(quad(lambda u: M(u) ** k, a_, b_)[0] for a_, b_ in zip(cuts[:-1], cuts[1:]))
        def mu(k):
            raw = sum(quad(lambda u: u**k * M(u), a_, b_)[0] for a_, b_ in zip(cuts[:-1], cuts[1:]))
            return (-1) ** k / math.factorial(k) * raw
        z = norm.ppf(0.975)
        t2, t3, t4 = theta(2), theta(3), theta(4)
        q1 = t2**-2 * t4 * (z**3 - 3 * z) / 6 - t2**-3 * t3**2 * (
            2 * z**3 / 3 + (z**5 - 10 * z**3 + 15 * z) / 9
        )
        q2 = -z / t2
        q3 = t2**-2 * t3 * (2 * z**3 / 3)
        f4 = bw.diagnostics["f_deriv_hat"]
        assert a == pytest.approx(q1, rel=1e-10)
        assert b == pytest.approx((f4 * mu(4)) ** 2 * q2, rel=1e-10)
        assert c == pytest.approx(f4 * mu(4) * q3, rel=1e-10)

    def test_empty_pilot_window_falls_back(self):
        rng = np.random.default_rng(4)
        s = DensitySample(rng.standard_normal(300))
        bw = dpi_bandwidth_density(s, 40.0, EPA, MSE2, 2, 0.05)
        assert bw.fallback

    def test_positive_and_reasonable(self):
        rng = np.random.default_rng(5)
        s = DensitySample(rng.standard_normal(500))
        bw = dpi_bandwidth_density(s, 0.0, EPA, MSE2, 2, 0.05)
        assert 0 < bw.value < np.ptp(s.observations)


class TestGlobalPolyDerivative:
    def test_cubic(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, 60)
        s = RegressionSample(x, x**3)
        for x0 in [-1.0, 0.0, 0.5]:
            assert global_poly_derivative(s, 2, x0) == pytest.approx(6 * x0, abs=1e-8)

    def test_constant(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 40)
        s = RegressionSample(x, np.full(40, 2.0))
        assert global_poly_derivative(s, 2, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_matches_derivative_of_fitted_polynomial(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 200)
        y = np.sin(2 * x) + 0.1 * rng.standard_normal(200)
        s = RegressionSample(x, y)
        k = 3
        # independent path: own least squares fit, exact polynomial derivative
        V = np.vander(s.x_values, N=k + 3, increasing=True)
        gamma = np.linalg.lstsq(V, s.y_values, rcond=None)[0]
        dcoef = np.polynomial.polynomial.polyder(gamma, m=k)
        for x0 in [-0.5, 0.0, 0.25]:
            oracle = np.polynomial.polynomial.polyval(x0, dcoef)
            assert global_poly_derivative(s, k, x0) == pytest.approx(oracle, abs=1e-8)

    def test_needs_enough_observations(self):
        from npinfer.errors import SingularDesignError

        s = RegressionSample(np.arange(6.0), np.arange(6.0))
        with pytest.raises(SingularDesignError):
            global_poly_derivative(s, 2, 0.0)


class TestLpPilots:
    def test_mse_lp_positive(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 400)
        y = np.sin(3 * x) + rng.standard_normal(400)
        bw = mse_bandwidth_lp(RegressionSample(x, y), 0.0, 1, EPA)
        assert 0 < bw.value < 2.0

    def test_mse_lp_zero_curvature_on_linear(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, 300)
        with pytest.raises(ZeroCurvatureError):
            mse_bandwidth_lp(RegressionSample(x, 2 * x), 0.0, 1, EPA)

    def test_boundary_constants_differ(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 400)
        y = np.sin(3 * x) + rng.standard_normal(400)
        s = RegressionSample(x, y)
        interior = mse_bandwidth_lp(s, 0.5, 1, EPA, boundary=False)
        boundary = mse_bandwidth_lp(s, 0.0, 1, EPA, boundary=True)
        assert interior.value != pytest.approx(boundary.value, rel=1e-3)


class TestLpDpi:
    def test_linear_noise_free_falls_back(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, 200)
        bw = dpi_bandwidth_lp(RegressionSample(x, 3 * x + 1), 0.0, 1, False, EPA)
        assert bw.fallback

    def test_q_terms_against_bruteforce_loops(self):
        rng = np.random.default_rng(13)
        n = 24
        x = rng.uniform(-1, 1, n)
        y = np.sin(2 * x) + rng.standard_normal(n)
        s = RegressionSample(x, y)
        h = 0.8
        fit = lp_fit(s, 0.0, 2, h, EPA)
        z = 1.959963984540054
        q1, q2, q3, terms = _edgeworth_q_hats(fit, fit.residuals, z)

        # the loops run over all n observations, zero outside the window
        R, kv, eps = whole_sample_rows(fit, fit.residuals)
        ginv = fit.g_inv
        e0 = np.zeros(fit.p + 1)
        e0[0] = 1.0
        abar = sum(kv[j] * np.outer(R[j], R[j]) for j in range(n)) / n

        def l0(i):
            return kv[i] * float(e0 @ ginv @ R[i])

        def l1(i, j):
            return float(e0 @ ginv @ (abar - kv[j] * np.outer(R[j], R[j])) @ ginv @ R[i]) * kv[i]

        l0v = np.array([l0(i) for i in range(n)])
        A1 = sum(l0v[i] ** 3 * eps[i] ** 3 for i in range(n)) / (n * h)
        A2 = sum(l0v[i] * l1(i, i) * eps[i] ** 2 for i in range(n)) / (n * h)
        A4 = sum(
            l0v[i] ** 2 * kv[i] * float(R[i] @ ginv @ R[i]) * eps[i] ** 2 for i in range(n)
        ) / (n * h)
        v1 = sum(l0v[i] ** 3 * eps[i] ** 3 * R[i] for i in range(n)) / (n * h)
        v2 = sum(kv[j] * R[j] * l0v[j] * eps[j] ** 2 for j in range(n)) / (n * h)
        A5 = float(v1 @ ginv @ v2)
        A6 = sum(
            l0v[i] ** 2 * (float(R[i] @ ginv @ R[j]) * kv[j]) ** 2 * eps[j] ** 2
            for i in range(n)
            for j in range(n)
            if i != j
        ) / (n * (n - 1) * h**2)
        A7 = sum(
            l0v[j] ** 2
            * (float(R[j] @ ginv @ R[i]) * kv[i] * l0v[i])
            * (float(R[j] @ ginv @ R[k]) * kv[k] * l0v[k])
            * eps[i] ** 2
            * eps[k] ** 2
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if i != j and j != k and i != k
        ) / (n * (n - 1) * (n - 2) * h**3)
        A8 = sum(l0v[i] ** 4 * eps[i] ** 4 for i in range(n)) / (n * h)
        cc = sum(l0v[i] ** 2 * eps[i] ** 2 for i in range(n)) / n
        A9 = sum(
            (l0v[i] ** 2 * eps[i] ** 2 - cc) * l0v[i] ** 2 * eps[i] ** 2 for i in range(n)
        ) / (n * h)
        A10 = sum(
            l1(i, j) * l0v[i] * l0v[j] ** 2 * eps[j] ** 2 * eps[i] ** 2
            for i in range(n)
            for j in range(n)
            if i != j
        ) / (n * (n - 1) * h**2)
        A11 = sum(
            l1(i, j) * l0v[i] * (l0v[j] ** 2 * eps[j] ** 2 - cc) * eps[i] ** 2
            for i in range(n)
            for j in range(n)
            if i != j
        ) / (n * (n - 1) * h**2)
        A12 = sum((l0v[i] ** 2 * eps[i] ** 2 - cc) ** 2 for i in range(n)) / (n * h)

        oracle = {
            "A1": A1, "A2": A2, "A4": A4, "A5": A5, "A6": A6, "A7": A7,
            "A8": A8, "A9": A9, "A10": A10, "A11": A11, "A12": A12,
        }
        for key, val in oracle.items():
            assert terms[key] == pytest.approx(val, rel=1e-10, abs=1e-12), key

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 150)
        y = np.sin(3 * x) + rng.standard_normal(150)
        perm = rng.permutation(150)
        b1 = dpi_bandwidth_lp(RegressionSample(x, y), 0.0, 1, False, EPA)
        b2 = dpi_bandwidth_lp(RegressionSample(x[perm], y[perm]), 0.0, 1, False, EPA)
        assert b1.value == b2.value

    def test_model5_bandwidth_distribution(self):
        # summary statistics of the data-driven bandwidth over replications
        rng = np.random.default_rng(15)
        n, reps = 500, 60
        vals = []
        for r in range(reps):
            x = rng.uniform(-1, 1, n)
            m = np.sin(3 * np.pi * x / 2) / (1 + 18 * x**2 * (np.sign(x) + 1))
            s = RegressionSample(x, m + rng.standard_normal(n))
            vals.append(dpi_bandwidth_lp(s, 0.0, 1, False, EPA).value)
        vals = np.array(vals)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        q25, q75 = np.percentile(vals, [25, 75])
        assert 0 < q25 < q75 < 2.0  # strictly inside (0, range of X)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("x0,boundary", [(0.0, False), (0.5, False), (-1.0, True), (1.0, True)])
    def test_whole_sample_pilot_fits_agree_within_rounding(self, seed, p, x0, boundary):
        # the reference selector on fits that sum over all n rows with zeros
        # outside the window (tests/locpoly_reference.py); an even p has no
        # interior MSE pilot, so it would only test the fallback
        s = gen_regression_sample(REGRESSION_MODELS[5], 400, np.random.default_rng(seed))
        got = dpi_bandwidth_lp(s, x0, p, boundary, EPA)
        want = reference.dpi_bandwidth_lp(s, x0, p, boundary, EPA, fit=whole_sample_lp_fit)
        assert not got.fallback and not want.fallback
        # rounding differences grow with the condition of the degree-(p+1)
        # pilot: its rcond is about 2e-6 for p = 3 at the boundary, 1e-3 for p = 1
        rcond = lp_fit(s, x0, p + 1, got.diagnostics["h_mse"], EPA).rcond
        assert got.value == pytest.approx(want.value, rel=max(1e-12, 1e-15 / rcond), abs=0)


def _density_sample():
    return DensitySample(np.random.default_rng(21).standard_normal(300))


def _regression_sample():
    rng = np.random.default_rng(22)
    x = rng.uniform(-1, 1, 300)
    return RegressionSample(x, np.sin(3 * x) + 0.5 * rng.standard_normal(300))


class TestSelect:
    def test_rule_table(self):
        assert RULES == {
            "density": ("dpi", "rot", "mse", "silverman"),
            "lpreg": ("dpi", "rot", "mse"),
        }

    @pytest.mark.parametrize("kappa", [2, 4])
    def test_density_rules_match_their_selectors(self, kappa):
        s = _density_sample()
        mse = mse_bandwidth_density_normal_ref(s, 0.4, kappa, EPA)
        expected = {
            "mse": mse,
            "rot": rot_bandwidth(mse.value, "density", kappa, s.n),
            "silverman": silverman_rot_density(s, kappa),
        }
        if kappa == 2:  # the mseopt-deriv2 bias kernel serves kappa = 2 only
            expected["dpi"] = dpi_bandwidth_density(s, 0.4, EPA, MSE2, kappa, 0.1)
        for rule in expected:
            got = select(rule, s, 0.4, EPA, L=MSE2, kappa=kappa, alpha=0.1)
            assert (got.value, got.rule) == (expected[rule].value, expected[rule].rule)
            assert got.diagnostics == expected[rule].diagnostics

    @pytest.mark.parametrize("p,boundary", [(1, False), (1, True), (3, False), (2, True)])
    def test_lpreg_rules_match_their_selectors(self, p, boundary):
        s = _regression_sample()
        x = -0.95 if boundary else 0.4
        mse = mse_bandwidth_lp(s, x, p, EPA, boundary=boundary)
        context = "lp-boundary" if boundary else "lp-interior"
        expected = {
            "dpi": dpi_bandwidth_lp(s, x, p, boundary, EPA, 0.1),
            "mse": mse,
            "rot": rot_bandwidth(mse.value, context, p, s.n),
        }
        for rule in RULES["lpreg"]:
            got = select(rule, s, x, EPA, p=p, boundary=boundary, alpha=0.1)
            assert (got.value, got.rule) == (expected[rule].value, expected[rule].rule)

    @pytest.mark.parametrize("rule", ["bogus", "fixed", "silverman"])
    def test_unknown_rule_rejected(self, rule):
        with pytest.raises(ValueError, match="bandwidth rule"):
            select(rule, _regression_sample(), 0.0, EPA)

    def test_degenerate_silverman_raises(self):
        with pytest.raises(ZeroCurvatureError, match="^sample standard deviation is zero$"):
            select("silverman", DensitySample(np.ones(10)), 1.0, EPA)

    @pytest.mark.parametrize("rule", RULES["density"])
    def test_one_observation_density_raises(self, rule):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ZeroCurvatureError, match="at least two observations"):
                select(rule, DensitySample([0.3]), 0.0, EPA, L=MSE2)

    @pytest.mark.parametrize("rule", RULES["density"])
    # np.std([0.1] * 3, ddof=1) is 1.7e-17, not zero; the second std underflows to zero
    @pytest.mark.parametrize("values", [[0.1] * 3, [1e-170, 2e-170, 3e-170]])
    def test_roundoff_spread_is_zero_curvature(self, rule, values):
        with pytest.raises(ZeroCurvatureError, match="standard deviation is zero"):
            select(rule, DensitySample(values), 0.0, EPA, L=MSE2)

    def test_density_dpi_zero_sd_is_zero_curvature(self):
        with pytest.raises(ZeroCurvatureError, match="standard deviation is zero"):
            select("dpi", DensitySample(np.ones(10)), 1.0, EPA, L=MSE2)

    def test_lpreg_dpi_zero_sd_is_zero_curvature(self):
        # the scale fallback would return 2.34 * sd * n^rate = 0
        sample = RegressionSample(np.ones(50), np.arange(50.0))
        with pytest.raises(ZeroCurvatureError, match="standard deviation is zero"):
            select("dpi", sample, 1.0, EPA)

    def test_density_dpi_needs_bias_kernel(self):
        with pytest.raises(ValueError, match="bias kernel"):
            select("dpi", _density_sample(), 0.0, EPA)

    def test_sample_type_required(self):
        with pytest.raises(TypeError):
            select("mse", np.zeros(10), 0.0, EPA)

    def test_selectors_looked_up_at_call_time(self, monkeypatch):
        # a selector patched on the module (as a tracer does) must be the one that runs
        stub = BandwidthChoice(value=0.123, rule="dpi")
        monkeypatch.setattr(bandwidth, "dpi_bandwidth_lp", lambda *a, **k: stub)
        monkeypatch.setattr(bandwidth, "dpi_bandwidth_density", lambda *a, **k: stub)
        assert select("dpi", _regression_sample(), 0.0, EPA) is stub
        assert select("dpi", _density_sample(), 0.0, EPA, L=MSE2) is stub


@st.composite
def _spread_cases(draw, n_min):
    """Values that reach the fallbacks: few, tied, partly or wholly constant."""
    n = draw(st.one_of(st.integers(n_min, 12), st.integers(13, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(n)
    shape = draw(st.sampled_from(["continuous", "tied", "constant-block", "constant"]))
    if shape == "tied":
        v = np.round(2 * v) / 2
    elif shape == "constant-block":
        v[: draw(st.integers(1, n))] = v[0]
    elif shape == "constant":
        v[:] = v[0]
    return v


@st.composite
def _evaluation_point(draw, v):
    """An edge of the data, a point inside, in the tail or far outside."""
    where = draw(st.sampled_from(["lo", "hi", "inside", "tail", "far"]))
    if where == "lo":
        return float(v.min())
    if where == "hi":
        return float(v.max())
    if where == "inside":
        return draw(st.floats(float(v.min()), float(v.max())))
    side = draw(st.sampled_from([-1.0, 1.0]))
    return side * (draw(st.floats(2.0, 4.0)) if where == "tail" else 40.0)


def _outcome(call):
    """What a selector call returns or raises, comparable bit for bit."""
    try:
        choice = call()
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return ("raises", type(exc).__name__, str(exc))
    return ("value", choice.value.hex(), choice.rule, repr(choice.diagnostics))


def _assert_same_as_reference(new, ref, values):
    """Equal outcomes, except that every rule raises ZeroCurvatureError for a
    sample without spread, where the reference returned NaN, flagged the
    choice invalid or failed in its own way."""
    if values.size < 2 or np.ptp(values) == 0:
        assert new[:2] == ("raises", "ZeroCurvatureError"), (new, ref)
        if values.size > 1 and float(np.std(values, ddof=1)) > 0:
            return  # the reference took roundoff for spread and returned its bandwidth
        assert ref[0] == "raises" or ref[1] == "nan" or "'invalid': True" in ref[3], (new, ref)
    else:
        assert new == ref


class TestAgainstReference:
    """Every rule against the selectors before one spread check and one
    fallback rule (tests/bandwidth_reference.py)."""

    @settings(max_examples=150)
    @given(data=st.data(), kappa=st.sampled_from([2, 4]), alpha=st.sampled_from([0.05, 0.1]))
    def test_density_rules(self, data, kappa, alpha):
        v = data.draw(_spread_cases(1))
        x = data.draw(_evaluation_point(v))
        s = DensitySample(v)
        K, L = (EPA, MSE2) if kappa == 2 else (kernel("minvar-order4"), kernel("mseopt-order4"))
        for rule in RULES["density"]:
            new = _outcome(lambda: select(rule, s, x, K, L=L, kappa=kappa, alpha=alpha))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ref = _outcome(
                    lambda: reference.select(rule, s, x, K, L=L, kappa=kappa, alpha=alpha)
                )
            _assert_same_as_reference(new, ref, s.observations)

    @settings(max_examples=150)
    @given(
        data=st.data(),
        p=st.integers(0, 3),
        boundary=st.booleans(),
        response=st.sampled_from(["noisy", "cubic", "linear", "constant", "zero-block"]),
    )
    def test_lpreg_rules(self, data, p, boundary, response):
        xv = data.draw(_spread_cases(2))
        x = data.draw(_evaluation_point(xv))
        noise = np.random.default_rng(xv.size).standard_normal(xv.size)
        y = {
            "noisy": np.sin(3 * xv) + 0.3 * noise,
            "cubic": xv**3 - xv,
            "linear": 3 * xv + 1,
            "constant": np.ones_like(xv),
            "zero-block": np.where(np.abs(xv) < 0.5, 0.0, noise),
        }[response]
        s = RegressionSample(xv, y)
        for rule in RULES["lpreg"]:
            new = _outcome(lambda: select(rule, s, x, EPA, p=p, boundary=boundary))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ref = _outcome(lambda: reference.select(rule, s, x, EPA, p=p, boundary=boundary))
            _assert_same_as_reference(new, ref, s.x_values)
