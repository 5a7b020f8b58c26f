"""The bandwidth selectors as they were before one spread check and one
fallback rule served them all, and the coverage-error minimizer as it was
before its closed-form solve.

Each density rule measures the sample's spread with its own inline
``np.std``; Silverman's rule flags a zero spread with an ``invalid``
diagnostic that ``select`` and ``mse_bandwidth_lp`` translate into an
error, and a one-observation sample yields NaN.  Each DPI selector restates
the rule-of-thumb fallback itself.  The minimizer takes generic exponents,
scans 200 points of its squared objective and refines the scan minimum by
golden-section search to 1e-6 relative width.  The code is kept unchanged as the
oracle that ``npinfer.bandwidth`` is checked against; helpers that did not
change are imported from it.

``minimize_ce_objective_on_geomspace`` is the closed-form minimizer as it
was before its scan grid stopped calling ``np.geomspace``.

``population_mse_bandwidth_density`` is a population oracle: the MSE
balance bandwidth of a known density, by quadrature and root finding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

from npinfer.bandwidth import (
    RULES,
    BandwidthChoice,
    _boundary_trunc,
    _ce_objective,
    _ce_optimal,
    _derivative_pilot_bandwidth,
    _edgeworth_q_hats,
    _flagged,
    _lp_kernel_constants,
    _positive_roots,
    coverage_polys,
    mse_bandwidth_density_reference,
    rot_bandwidth,
)
from npinfer.density import (
    DensitySample,
    critical_value,
    density_derivative_estimate,
    density_point_estimate,
)
from npinfer.errors import MonotoneObjectiveError, SingularDesignError, ZeroCurvatureError
from npinfer.kernels import KernelSpec, induced_kernel, kernel, minvar_derivative_kernel
from npinfer.locpoly import RegressionSample, lp_fit


def minimize_ce_objective(coeffs, exponents, bracket) -> float:
    """Minimize |a H^e1 + b H^e2 + c H^e3| over H in the bracket.

    Squares the objective, scans 200 log-spaced points, then refines with
    golden-section search to 1e-6 relative width; ties break toward the
    smaller H.  A scan minimum on a bracket edge raises
    MonotoneObjectiveError (no interior optimum).
    """
    a, b, c = (float(v) for v in coeffs)
    e1, e2, e3 = (float(e) for e in exponents)
    lo, hi = (float(v) for v in bracket)
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def objective(H):
        return (a * H**e1 + b * H**e2 + c * H**e3) ** 2

    grid = np.geomspace(lo, hi, 200)
    vals = np.array([objective(H) for H in grid])
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective is not finite on the bracket")
    idx = int(np.argmin(vals))
    if idx == 0 or idx == len(grid) - 1:
        raise MonotoneObjectiveError(
            "coverage-error objective has its scan minimum at a bracket edge"
        )

    # golden-section refinement on the bracketing triple
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    xl, xr = grid[idx - 1], grid[idx + 1]
    x1 = xr - invphi * (xr - xl)
    x2 = xl + invphi * (xr - xl)
    f1, f2 = objective(x1), objective(x2)
    while (xr - xl) > 1e-6 * xr:
        if f1 <= f2:  # ties move left, toward smaller H
            xr, x2, f2 = x2, x1, f1
            x1 = xr - invphi * (xr - xl)
            f1 = objective(x1)
        else:
            xl, x1, f1 = x1, x2, f2
            x2 = xl + invphi * (xr - xl)
            f2 = objective(x2)
    best = xl if objective(xl) <= objective(xr) else xr
    if objective(grid[idx]) < objective(best):
        best = grid[idx]
    return float(best)


def minimize_ce_objective_on_geomspace(coeffs, s, bracket) -> tuple[float, list]:
    """``bandwidth.minimize_ce_objective`` with its scan on ``np.geomspace(lo, hi, 200)``."""
    a, b, c = coeffs = tuple(float(v) for v in coeffs)
    lo, hi = (float(v) for v in bracket)
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    grid = np.geomspace(lo, hi, 200)
    vals = np.abs(_ce_objective(coeffs, s, grid))
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective is not finite on the bracket")
    idx = int(np.argmin(vals))
    if idx == 0 or idx == len(grid) - 1:
        raise MonotoneObjectiveError(
            "coverage-error objective has its scan minimum at a bracket edge"
        )
    roots = sorted(t ** (1.0 / (1 + s)) for t in _positive_roots(b, c, a))
    stationary = [t ** (1.0 / (1 + s)) for t in _positive_roots((1 + 2 * s) * b, s * c, -a)]
    basin = sorted(H for H in roots + stationary if grid[idx - 1] <= H <= grid[idx + 1])
    best = min(basin, key=lambda H: abs(_ce_objective(coeffs, s, H)), default=grid[idx])
    return float(best), [H for H in roots if lo <= H <= hi]


def mse_bandwidth_density_normal_ref(
    sample: DensitySample, x: float, kappa: int, K: KernelSpec
) -> BandwidthChoice:
    """Same as the reference rule with mu, sigma estimated from the sample."""
    mu = float(np.mean(sample.observations))
    sigma = float(np.std(sample.observations, ddof=1))
    if sigma <= 0:
        raise ZeroCurvatureError("sample standard deviation is zero")
    return mse_bandwidth_density_reference(x, sample.n, kappa, K, mu, sigma)


def silverman_rot_density(sample: DensitySample, r: int = 2) -> BandwidthChoice:
    """Silverman-style rule sigma_hat * 2.34 * n^(-1/(2r+1))."""
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be an even integer >= 2")
    sigma = float(np.std(sample.observations, ddof=1))
    value = sigma * 2.34 * sample.n ** (-1.0 / (2 * r + 1))
    diag = {"sigma": sigma}
    if sigma == 0.0:
        diag["invalid"] = True
    return BandwidthChoice(value=value, rule="silverman-rot", diagnostics=diag)


def dpi_bandwidth_density(
    sample: DensitySample,
    x: float,
    K: KernelSpec,
    L: KernelSpec,
    kappa: int = 2,
    alpha: float = 0.05,
) -> BandwidthChoice:
    """Direct plug-in coverage-error-optimal bandwidth for the RBC density interval.

    Fixes rho = 1, estimates f^(kappa+2)(x) with a minimum-variance
    derivative kernel at its normal-reference pilot bandwidth, and
    minimizes the squared three-term objective in H; the selected
    bandwidth is H * n^(-1/(kappa+3)).  Falls back to the rule-of-thumb
    rescaling (flagged) when a pilot degenerates or the objective is
    monotone on the bracket; a zero sample sd raises ZeroCurvatureError.
    """
    n = sample.n
    sigma_x = float(np.std(sample.observations, ddof=1))
    if sigma_x <= 0:
        raise ZeroCurvatureError("sample standard deviation is zero")
    mu_x = float(np.mean(sample.observations))
    diag: dict = {"pilot": "minvar-derivative-kernel, normal-reference MSE bandwidth"}

    def _fallback(reason: str) -> BandwidthChoice:
        try:
            rot = rot_bandwidth(
                mse_bandwidth_density_normal_ref(sample, x, kappa, K).value,
                "density",
                kappa,
                n,
            )
        except ZeroCurvatureError:
            # reference curvature vanished too; Silverman is always defined
            rot = silverman_rot_density(sample, kappa)
            reason += "; rot undefined, used silverman"
        return _flagged(rot.value, reason, rot.diagnostics, diag)

    nu = kappa + 2
    J = minvar_derivative_kernel(nu)
    try:
        b_pilot = _derivative_pilot_bandwidth(nu, n, mu_x, sigma_x, x, J)
    except ZeroCurvatureError:
        return _fallback("reference curvature for the derivative pilot vanished")
    f_nu = density_derivative_estimate(sample, x, b_pilot, J, nu)
    diag["pilot_bandwidth"] = b_pilot
    diag["f_deriv_hat"] = f_nu
    if abs(f_nu) < 1e-12:
        return _fallback("estimated f^(kappa+2) vanished")

    M = induced_kernel(K, L, kappa, 1.0)
    q1, q2, q3 = coverage_polys(M, critical_value(alpha))
    eta = f_nu * M.moment_mu(kappa + 2)
    try:
        value = _ce_optimal(q1, q2, q3, eta, nu, sigma_x, n, diag)
    except MonotoneObjectiveError as exc:
        return _fallback(str(exc))
    terms = zip(diag["objective_coeffs"], diag["objective_exponents"])
    diag["objective_value"] = abs(sum(c * diag["H"] ** e for c, e in terms))
    return BandwidthChoice(value=value, rule="dpi", diagnostics=diag)


def _global_poly_fit(sample: RegressionSample, degree: int):
    """OLS of Y on raw powers 0..degree of X; returns (gamma, sigma2_hat)."""
    n = sample.n
    if n <= degree + 1:
        raise SingularDesignError(
            f"global degree-{degree} fit needs more than {degree + 1} observations"
        )
    V = np.vander(sample.x_values, N=degree + 1, increasing=True)
    gamma, _res, rank, _sv = np.linalg.lstsq(V, sample.y_values, rcond=None)
    if rank < degree + 1:
        raise SingularDesignError("global polynomial design is rank deficient")
    resid = sample.y_values - V @ gamma
    dof = max(1, n - (degree + 1))
    return gamma, float(resid @ resid / dof)


def global_poly_derivative(sample: RegressionSample, k: int, x: float) -> float:
    """m^(k)(x) from a global polynomial fit of degree k+2.

    The k-th derivative of the fitted degree-(k+2) polynomial is the
    quadratic gamma_{k} k! + gamma_{k+1} (k+1)! x + gamma_{k+2} ((k+2)!/2) x^2
    (0-based coefficient indices), evaluated exactly.
    """
    return _global_poly_pilot(sample, k, x)[0]


def _global_poly_pilot(sample: RegressionSample, k: int, x: float):
    """(m^(k)(x), sigma2_hat) from one global fit of degree k+2."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if sample.n <= k + 6:
        raise SingularDesignError(f"need n > {k + 6} observations for k = {k}")
    gamma, s2 = _global_poly_fit(sample, k + 2)
    out = 0.0
    for j in range(k, k + 3):
        out += gamma[j] * math.factorial(j) / math.factorial(j - k) * x ** (j - k)
    return float(out), s2


def mse_bandwidth_lp(
    sample: RegressionSample,
    x: float,
    p: int,
    K: KernelSpec,
    boundary: bool = False,
) -> BandwidthChoice:
    """Plug-in MSE-optimal local polynomial bandwidth at x.

    Pilots: m^(p+1)(x) and the residual variance from a global polynomial
    fit of degree p+3, and a Silverman-bandwidth kernel density estimate
    for f_X(x).  The kernel constants are integrated over the half
    support when ``boundary`` is set.
    """
    n = sample.n
    m_deriv, sigma2 = _global_poly_pilot(sample, p + 1, x)
    xs = DensitySample(sample.x_values)
    h_f = silverman_rot_density(xs, 2)
    if h_f.diagnostics.get("invalid"):
        raise ZeroCurvatureError("covariates carry no variation")
    f_x = density_point_estimate(xs, x, h_f.value, kernel("epanechnikov"))
    if f_x <= 1e-12:
        raise ZeroCurvatureError(f"design density estimate vanished at x = {x}")
    trunc = _boundary_trunc(sample, x) if boundary else None
    V, B = _lp_kernel_constants(K, p, trunc)
    scale = max(1.0, float(np.max(np.abs(sample.y_values))))
    if abs(m_deriv) < 1e-10 * scale or abs(B) < 1e-14:
        raise ZeroCurvatureError(f"pilot m^({p + 1})({x}) vanishes; MSE bandwidth undefined")
    num = sigma2 * V * math.factorial(p + 1) ** 2
    den = 2.0 * (p + 1) * n * f_x * (m_deriv * B) ** 2
    return BandwidthChoice(
        value=float((num / den) ** (1.0 / (2 * p + 3))),
        rule="mse-normal-ref",
        diagnostics={
            "m_deriv": m_deriv,
            "sigma2": sigma2,
            "f_x": f_x,
            "V": V,
            "B": B,
            "boundary": boundary,
            "pilot": "global-poly degree p+3, Silverman KDE for f_X",
        },
    )


def dpi_bandwidth_lp(
    sample: RegressionSample,
    x: float,
    p: int,
    boundary_flag: bool,
    K: KernelSpec,
    alpha: float = 0.05,
    fit=lp_fit,
) -> BandwidthChoice:
    """Direct plug-in coverage-error-optimal bandwidth for RBC local polynomials.

    Follows the recommended configuration K = L, rho = 1, q = p + 1:
    (1) MSE pilot bandwidth; (2) degree-p pilot residuals; (3) m^(p+2)
    and m^(p+3) from global polynomial fits; (4) plug-in coverage-error
    polynomials and bias constants from the pilot fits; (5) minimize the
    squared objective and rescale by n^(-1/(p+4)) (interior) or
    n^(-1/(p+3)) (boundary).  Falls back to the rule-of-thumb rescaling
    (flagged) when a pilot degenerates or the objective is monotone; a
    zero covariate sd raises ZeroCurvatureError.  The pilot fits come from
    ``fit``: ``lp_fit``, or ``whole_sample_lp_fit`` of
    ``tests/locpoly_reference.py`` for the whole-sample arithmetic.
    """
    n = sample.n
    q = p + 1
    sigma_x = float(np.std(sample.x_values, ddof=1))
    if sigma_x <= 0:
        raise ZeroCurvatureError("sample standard deviation is zero")
    diag: dict = {"boundary": boundary_flag}

    def _scale_fallback(reason: str) -> BandwidthChoice:
        rate = -1.0 / (p + 3) if boundary_flag else -1.0 / (p + 4)
        return _flagged(2.34 * sigma_x * n**rate, reason, diag, {"pilot": "scale"})

    try:
        h_mse = mse_bandwidth_lp(sample, x, p, K, boundary=boundary_flag)
    except (ZeroCurvatureError, SingularDesignError) as exc:
        return _scale_fallback(f"mse pilot failed: {exc}")
    diag["h_mse"] = h_mse.value

    def _rot_fallback(reason: str) -> BandwidthChoice:
        context = "lp-boundary" if boundary_flag else "lp-interior"
        rot = rot_bandwidth(h_mse.value, context, p, n)
        return _flagged(rot.value, reason, diag, rot.diagnostics)

    try:
        fit_p = fit(sample, x, p, h_mse.value, K)
        fit_q = fit(sample, x, q, h_mse.value, K)
    except SingularDesignError as exc:
        return _rot_fallback(f"pilot fit failed: {exc}")
    eps = fit_p.residuals

    try:
        m_p2 = global_poly_derivative(sample, p + 2, x)
        m_p3 = global_poly_derivative(sample, p + 3, x) if not boundary_flag else 0.0
    except SingularDesignError as exc:
        return _rot_fallback(f"global derivative pilot failed: {exc}")

    z = float(ndtri(1.0 - alpha / 2.0))
    qhat = _edgeworth_q_hats(fit_q, eps, z)
    if qhat is None:
        return _rot_fallback("pilot residual variance vanished")
    q1, q2, q3, terms = qhat
    diag["q_hats"] = {"q1": q1, "q2": q2, "q3": q3}

    # bias constants from the sampled design moments at the pilot bandwidth
    lam_p1 = fit_p.Lambda(1)
    lam_p2 = fit_p.Lambda(2)
    g0p = fit_p.g_inv[0]
    gq_row = fit_q.g_inv[p + 1]
    lam_q1 = fit_q.Lambda(1)
    core2 = float(g0p @ (lam_p2 - lam_p1 * float(gq_row @ lam_q1)))
    if boundary_flag:
        eta = m_p2 / math.factorial(p + 2) * core2
    else:
        lam_p3 = fit_p.Lambda(3)
        lam_q2 = fit_q.Lambda(2)
        core3 = float(g0p @ (lam_p3 - lam_p1 * float(gq_row @ lam_q2)))
        eta = (
            m_p2 / math.factorial(p + 2) * core2
            + m_p3 / math.factorial(p + 3) * core3
        )
    diag["eta_bc"] = eta
    y_scale = max(1.0, float(np.max(np.abs(sample.y_values))))
    if not np.isfinite(eta) or abs(eta) < 1e-12 * y_scale:
        return _rot_fallback("plug-in bias constant vanished")
    s = p + 2 if boundary_flag else p + 3  # order of the post-correction bias
    try:
        value = _ce_optimal(q1, q2, q3, eta, s, sigma_x, n, diag)
    except MonotoneObjectiveError as exc:
        return _rot_fallback(str(exc))
    return BandwidthChoice(value=value, rule="dpi", diagnostics=diag)


def select(
    rule: str,
    sample,
    x: float,
    K: KernelSpec,
    *,
    L: KernelSpec | None = None,
    kappa: int = 2,
    p: int = 1,
    boundary: bool = False,
    alpha: float = 0.05,
) -> BandwidthChoice:
    """The bandwidth that ``rule`` selects for ``sample`` at x.

    The estimator follows from the sample's type, and ``RULES`` names the
    rules each estimator offers: "dpi" (coverage-error optimal, which may
    fall back to a rule of thumb but keeps its tag), "mse" (plug-in MSE
    optimal), "rot" (the MSE bandwidth rescaled to the coverage-error
    rate) and, for densities, "silverman".  Density rules use the order
    ``kappa`` and, for "dpi", the bias kernel ``L``; local polynomial rules
    use the degree ``p`` and the ``boundary`` rate.  A degenerate Silverman
    bandwidth raises ZeroCurvatureError and an unknown rule ValueError.
    """
    # selectors are looked up by module name at call time so that a
    # patched (e.g. traced) selector is the one that runs
    if isinstance(sample, DensitySample):
        estimator = "density"
    elif isinstance(sample, RegressionSample):
        estimator = "lpreg"
    else:
        raise TypeError(f"expected a DensitySample or RegressionSample, got {type(sample)!r}")
    if rule not in RULES[estimator]:
        raise ValueError(
            f"unknown {estimator} bandwidth rule {rule!r}; expected one of {RULES[estimator]}"
        )
    if estimator == "density":
        if rule == "dpi":
            if L is None:
                raise ValueError("the density dpi rule needs the bias kernel L")
            return dpi_bandwidth_density(sample, x, K, L, kappa, alpha)
        if rule == "silverman":
            choice = silverman_rot_density(sample, kappa)
            if choice.diagnostics.get("invalid"):
                raise ZeroCurvatureError("silverman bandwidth degenerate")
            return choice
        mse = mse_bandwidth_density_normal_ref(sample, x, kappa, K)
        context, order = "density", kappa
    else:
        if rule == "dpi":
            return dpi_bandwidth_lp(sample, x, p, boundary, K, alpha)
        mse = mse_bandwidth_lp(sample, x, p, K, boundary=boundary)
        context, order = ("lp-boundary" if boundary else "lp-interior"), p
    if rule == "mse":
        return mse
    return rot_bandwidth(mse.value, context, order, sample.n)


def population_mse_bandwidth_density(density, x: float, n: int, K: KernelSpec) -> float:
    """Population bandwidth at which squared bias equals variance exactly.

    Solves n h bias(h)^2 = sigma^2(h) with the exact fixed-n population
    quantities bias(h) = int K(u) f(x - uh) du - f(x) and sigma^2(h) =
    int K(u)^2 f(x - uh) du - h (int K(u) f(x - uh) du)^2 computed by
    quadrature against the true density.  At this bandwidth the
    undersmoothed t-statistic has bias/sd ratio one, so the nominal-95%
    interval covers with probability near 0.83; the closed-form
    normal-reference rule is the large-n limit of this balance point.
    """
    f_x = float(density(x))

    def moments(h):
        ek = ek2 = 0.0
        for lo, hi, _ in K.pieces:
            ek += quad(lambda u: K(u) * density(x - u * h), float(lo), float(hi))[0]
            ek2 += quad(lambda u: K(u) ** 2 * density(x - u * h), float(lo), float(hi))[0]
        return ek - f_x, ek2 - h * ek**2

    def gap(h):
        bias, sig2 = moments(h)
        return n * h * bias**2 - sig2

    lo, hi = 1e-3, 1e-3
    while gap(hi) < 0:
        hi *= 1.6
        if hi > 1e3:
            raise ZeroCurvatureError("population balance bandwidth not found")
    return float(brentq(gap, lo if gap(lo) < 0 else hi / 1e3, hi, xtol=1e-10))
