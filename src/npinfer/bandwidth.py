"""Bandwidth selection: MSE pilots, rule-of-thumb rescaling, and the
direct plug-in coverage-error-optimal selectors.

The coverage-error expansion of a Studentized kernel statistic has three
leading terms in the constant H of h = H * n^(-rate):

    H^(-1) * q1  +  H^(1 + 2s) * (bias const)^2 * q2  +  H^s * (bias const) * q3,

where q1, q2, q3 are odd polynomials in the Normal quantile whose
coefficients depend only on the equivalent kernel (density case) or on
estimable population moments (local polynomial case), and s is the order
of the post-correction bias.  The selectors here estimate the unknown
constants, minimize the absolute value of this three-term objective over
a wide bracket in closed form, and rescale by the appropriate root of n.
When a pilot quantity degenerates the selectors fall back to the
rule-of-thumb rescaling and flag the fallback in the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .density import DensitySample, density_derivative_estimate, density_point_estimate
from .errors import (
    MonotoneObjectiveError,
    SingularDesignError,
    ZeroCurvatureError,
)
from .kernels import KernelSpec, TruncatedSupport, induced_kernel, kernel, minvar_derivative_kernel
from .locpoly import LocPolyFit, RegressionSample, lp_fit

__all__ = [
    "CoveragePolys",
    "BandwidthChoice",
    "RULES",
    "select",
    "coverage_polys_at",
    "coverage_polys_density",
    "normal_reference_density_derivative",
    "mse_bandwidth_density_normal_ref",
    "mse_bandwidth_density_reference",
    "population_mse_bandwidth_density",
    "silverman_rot_density",
    "rot_bandwidth",
    "dpi_bandwidth_density",
    "global_poly_derivative",
    "mse_bandwidth_lp",
    "dpi_bandwidth_lp",
    "minimize_ce_objective",
]


# ----------------------------------------------------------------------
# coverage-error polynomials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoveragePolys:
    """Values of the three coverage-error polynomials at z_{alpha/2}."""

    q1: float
    q2: float
    q3: float
    alpha: float


def coverage_polys_at(N: KernelSpec, z: float):
    """Evaluate (q1, q2, q3) for kernel N at an arbitrary quantile z.

    q1 = t2^-2 t4 (z^3 - 3z)/6 - t2^-3 t3^2 [2z^3/3 + (z^5 - 10z^3 + 15z)/9]
    q2 = -t2^-1 z
    q3 = t2^-2 t3 (2z^3/3)

    with t_k the integral of N(u)^k.
    """
    t2 = N.moment_theta(2)
    t3 = N.moment_theta(3)
    t4 = N.moment_theta(4)
    q1 = t2**-2 * t4 * (z**3 - 3 * z) / 6.0 - t2**-3 * t3**2 * (
        2 * z**3 / 3.0 + (z**5 - 10 * z**3 + 15 * z) / 9.0
    )
    q2 = -z / t2
    q3 = t2**-2 * t3 * (2 * z**3 / 3.0)
    return q1, q2, q3


def coverage_polys_density(N: KernelSpec, alpha: float) -> CoveragePolys:
    """The polynomials at the two-sided Normal critical value for level 1-alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = float(ndtri(1.0 - alpha / 2.0))
    q1, q2, q3 = coverage_polys_at(N, z)
    return CoveragePolys(q1=q1, q2=q2, q3=q3, alpha=alpha)


# ----------------------------------------------------------------------
# bandwidth choices
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BandwidthChoice:
    """A selected bandwidth, its rule tag, and selection diagnostics."""

    value: float
    rule: str  # "mse-normal-ref" | "silverman-rot" | "rot" | "dpi"
    diagnostics: dict = field(default_factory=dict)

    @property
    def fallback(self) -> bool:
        return bool(self.diagnostics.get("fallback"))


# ----------------------------------------------------------------------
# normal-reference machinery
# ----------------------------------------------------------------------

def _hermite_prob(k: int, t: float) -> float:
    """Probabilists' Hermite polynomial He_k(t)."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, t
    for j in range(1, k):
        prev, cur = cur, t * cur - j * prev
    return cur


def normal_reference_density_derivative(x: float, mu: float, sigma: float, k: int) -> float:
    """k-th derivative at x of the Normal(mu, sigma^2) density."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    t = (x - mu) / sigma
    phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return (-1.0) ** k * _hermite_prob(k, t) * phi / sigma ** (k + 1)


def mse_bandwidth_density_reference(
    x: float,
    n: int,
    kappa: int,
    K: KernelSpec,
    mu: float = 0.0,
    sigma: float = 1.0,
) -> BandwidthChoice:
    """MSE-optimal density bandwidth under a Normal(mu, sigma^2) reference.

    Uses the variance = squared-bias balance

        h^(1+2*kappa) = theta_{K,2} f(x) / ( n (mu_{K,kappa} f^(kappa)(x))^2 ),

    the convention under which the undersmoothed interval at h*_mse has
    bias/sd ratio one and hence roughly 83% coverage at the 95% level.
    """
    if kappa not in (2, 4):
        raise ValueError("normal reference supports kappa in {2, 4}")
    f_x = normal_reference_density_derivative(x, mu, sigma, 0)
    f_k = normal_reference_density_derivative(x, mu, sigma, kappa)
    if abs(f_k) < 1e-12:
        raise ZeroCurvatureError(
            f"reference f^({kappa})({x}) vanishes; MSE bandwidth undefined"
        )
    t2 = K.moment_theta(2)
    mu_k = K.moment_mu(kappa)
    ratio = t2 * f_x / (mu_k * f_k) ** 2
    h = (ratio / n) ** (1.0 / (1 + 2 * kappa))
    return BandwidthChoice(
        value=float(h),
        rule="mse-normal-ref",
        diagnostics={"mu": mu, "sigma": sigma, "f_x": f_x, "f_kappa": f_k},
    )


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
    from scipy.integrate import quad
    from scipy.optimize import brentq

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


def _sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation (ddof = 1): the one check that a sample has spread.

    ``values`` are sorted, as both sample types store them.  Raises
    ZeroCurvatureError for fewer than two observations, for equal values,
    whose std may be roundoff (1.7e-17 for three copies of 0.1), and for
    a std that underflows to zero (1e-170, 2e-170, 3e-170).
    """
    if values.size < 2:
        raise ZeroCurvatureError("sample standard deviation needs at least two observations")
    sd = float(np.std(values, ddof=1))
    if values[0] == values[-1] or sd <= 0:
        raise ZeroCurvatureError("sample standard deviation is zero")
    return sd


def mse_bandwidth_density_normal_ref(
    sample: DensitySample, x: float, kappa: int, K: KernelSpec
) -> BandwidthChoice:
    """Same as the reference rule with mu, sigma estimated from the sample."""
    mu = float(np.mean(sample.observations))
    sigma = _sample_sd(sample.observations)
    return mse_bandwidth_density_reference(x, sample.n, kappa, K, mu, sigma)


def silverman_rot_density(sample: DensitySample, r: int = 2) -> BandwidthChoice:
    """Silverman-style rule sigma_hat * 2.34 * n^(-1/(2r+1))."""
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be an even integer >= 2")
    sigma = _sample_sd(sample.observations)
    value = sigma * 2.34 * sample.n ** (-1.0 / (2 * r + 1))
    return BandwidthChoice(value=value, rule="silverman-rot", diagnostics={"sigma": sigma})


def rot_bandwidth(h_mse: float, context: str, order: int, n: int) -> BandwidthChoice:
    """Rescale an MSE-optimal bandwidth to the coverage-error-optimal rate.

    Exponents: density -(kappa-2)/((1+2 kappa)(kappa+3)); local polynomial
    -(p-1)/((2p+3)(p+4)) interior and -p/((2p+3)(p+3)) boundary.  The
    exponent is zero for kappa = 2 (density) and p = 1 (interior), where
    the MSE bandwidth already attains the optimal rate.
    """
    if h_mse <= 0:
        raise ValueError("h_mse must be positive")
    if context == "density":
        kappa = order
        expo = -(kappa - 2) / ((1 + 2 * kappa) * (kappa + 3))
    elif context == "lp-interior":
        p = order
        expo = -(p - 1) / ((2 * p + 3) * (p + 4))
    elif context == "lp-boundary":
        p = order
        expo = -p / ((2 * p + 3) * (p + 3))
    else:
        raise ValueError(f"unknown context {context!r}")
    return BandwidthChoice(
        value=float(h_mse * n**expo),
        rule="rot",
        diagnostics={"h_mse": h_mse, "exponent": expo, "context": context},
    )


# ----------------------------------------------------------------------
# one-dimensional coverage-error objective
# ----------------------------------------------------------------------

def _ce_objective(coeffs, s, H):
    """a H^-1 + b H^(1+2s) + c H^s at H (a float or an array)."""
    a, b, c = coeffs
    return a * H**-1 + b * H ** (1 + 2 * s) + c * H**s


def _positive_roots(A: float, B: float, C: float) -> list:
    """The positive real roots of A t^2 + B t + C."""
    if A == 0.0:
        return [-C / B] if B != 0.0 and -C / B > 0 else []
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return []
    # the two roots without cancellation; q = 0 only for a double root at 0
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return [t for t in (q / A, C / q) if t > 0] if q else []


def minimize_ce_objective(coeffs, s, bracket) -> tuple[float, list]:
    """Minimize |f(H)| = |a H^-1 + b H^(1+2s) + c H^s| over H in the bracket.

    Returns H and the roots of f in the bracket, ascending.  A scan of 200
    log-spaced points picks the basin: its minimum grid[i] on a bracket
    edge raises MonotoneObjectiveError (no interior optimum).  The minimum
    is then solved in closed form: with t = H^(1+s), H f(H) = b t^2 + c t
    + a, and H^2 f'(H) = (1+2s) b t^2 + s c t - a.  Every root and
    stationary point of f is a positive root of one of these quadratics;
    the answer is the one of least |f| in [grid[i-1], grid[i+1]], the
    smaller on a tie, or grid[i] if none lies there.
    """
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


def _ce_optimal(q1, q2, q3, eta, s, sigma_x, n, diag) -> float:
    """The coverage-error-optimal bandwidth H * n^(-1/(s+1)).

    H minimizes |q1 H^-1 + eta^2 q2 H^(1+2s) + eta q3 H^s| over
    [0.05, 20] * sigma_x, with eta the plug-in bias constant and s the order
    of the post-correction bias.  The objective, H and the objective's
    roots in the bracket (``H_candidates``) are recorded in ``diag``.
    Raises MonotoneObjectiveError, with the fallback reason as its message,
    when the coefficients are not finite or the objective has no interior
    minimum on the bracket.
    """
    coeffs = (q1, eta**2 * q2, eta * q3)
    if not all(np.isfinite(coeffs)):
        raise MonotoneObjectiveError("non-finite objective coefficients")
    diag["objective_coeffs"] = list(coeffs)
    diag["objective_exponents"] = [-1, 1 + 2 * s, s]
    try:
        H, roots = minimize_ce_objective(coeffs, s, (0.05 * sigma_x, 20.0 * sigma_x))
    except MonotoneObjectiveError as exc:
        raise MonotoneObjectiveError("objective monotone on the search bracket") from exc
    diag["H"] = H
    diag["H_candidates"] = roots
    return float(H * n ** (-1.0 / (s + 1)))


def _flagged(value: float, reason: str, *diags: dict) -> BandwidthChoice:
    """A DPI fallback to ``value``: the merged ``diags``, flagged with ``reason``."""
    merged = {key: v for d in diags for key, v in d.items()}
    merged.update({"fallback": True, "fallback_reason": reason})
    return BandwidthChoice(value=value, rule="dpi", diagnostics=merged)


# ----------------------------------------------------------------------
# density: direct plug-in
# ----------------------------------------------------------------------

def _derivative_pilot_bandwidth(
    nu: int, n: int, mu: float, sigma: float, x: float, J: KernelSpec
) -> float:
    """Normal-reference MSE-optimal bandwidth for estimating f^(nu) with J."""
    f_x = normal_reference_density_derivative(x, mu, sigma, 0)
    f_next = normal_reference_density_derivative(x, mu, sigma, nu + 2)
    if abs(f_next) < 1e-12:
        raise ZeroCurvatureError(
            f"reference f^({nu + 2})({x}) vanishes; derivative pilot undefined"
        )
    t2 = J.moment_theta(2)
    mu_next = J.moment_mu(nu + 2)
    num = (1 + 2 * nu) * t2 * f_x
    den = 4.0 * (mu_next * f_next) ** 2
    return float((num / (den * n)) ** (1.0 / (2 * nu + 5)))


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
    minimizes the absolute three-term objective in H; the selected
    bandwidth is H * n^(-1/(kappa+3)).  Falls back to the "rot" rule, or
    Silverman's where that is undefined (flagged), when a pilot degenerates
    or the objective is monotone on the bracket; fewer than two
    observations or a zero sample sd raise ZeroCurvatureError.
    """
    n = sample.n
    sigma_x = _sample_sd(sample.observations)
    mu_x = float(np.mean(sample.observations))
    diag: dict = {"pilot": "minvar-derivative-kernel, normal-reference MSE bandwidth"}

    def _fallback(reason: str) -> BandwidthChoice:
        try:
            rot = select("rot", sample, x, K, kappa=kappa)
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
    polys = coverage_polys_density(M, alpha)
    eta = f_nu * M.moment_mu(kappa + 2)
    try:
        value = _ce_optimal(polys.q1, polys.q2, polys.q3, eta, nu, sigma_x, n, diag)
    except MonotoneObjectiveError as exc:
        return _fallback(str(exc))
    diag["objective_value"] = abs(_ce_objective(diag["objective_coeffs"], nu, diag["H"]))
    return BandwidthChoice(value=value, rule="dpi", diagnostics=diag)


# ----------------------------------------------------------------------
# local polynomial: pilots
# ----------------------------------------------------------------------

def global_poly_derivative(sample: RegressionSample, k: int, x: float) -> float:
    """m^(k)(x) from a global polynomial fit of degree k+2.

    The k-th derivative of the fitted degree-(k+2) polynomial is the
    quadratic gamma_{k} k! + gamma_{k+1} (k+1)! x + gamma_{k+2} ((k+2)!/2) x^2
    (0-based coefficient indices), evaluated exactly.
    """
    return _global_poly_pilot(sample, k, x)[0]


def _global_poly_pilot(sample: RegressionSample, k: int, x: float):
    """(m^(k)(x), sigma2_hat) from one OLS fit of Y on raw powers 0..k+2 of X."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if sample.n <= k + 6:
        raise SingularDesignError(f"need n > {k + 6} observations for k = {k}")
    V = np.vander(sample.x_values, N=k + 3, increasing=True)
    gamma, _res, rank, _sv = np.linalg.lstsq(V, sample.y_values, rcond=None)
    if rank < k + 3:
        raise SingularDesignError("global polynomial design is rank deficient")
    resid = sample.y_values - V @ gamma
    out = 0.0
    for j in range(k, k + 3):
        out += gamma[j] * math.factorial(j) / math.factorial(j - k) * x ** (j - k)
    return float(out), float(resid @ resid / (sample.n - (k + 3)))


def _lp_kernel_constants(K: KernelSpec, p: int, trunc: TruncatedSupport | None):
    """Asymptotic variance and bias constants; integrals can be truncated."""
    S = np.empty((p + 1, p + 1))
    T = np.empty((p + 1, p + 1))
    c = np.empty(p + 1)
    for i in range(p + 1):
        c[i] = K.power_weighted_integral(p + 1 + i, 1, trunc)
        for j in range(i, p + 1):
            S[i, j] = S[j, i] = K.power_weighted_integral(i + j, 1, trunc)
            T[i, j] = T[j, i] = K.power_weighted_integral(i + j, 2, trunc)
    S_inv = np.linalg.inv(S)
    V = float(S_inv[0] @ T @ S_inv[0])
    B = float(S_inv[0] @ c)
    return V, B


def _boundary_trunc(sample: RegressionSample, x: float) -> TruncatedSupport:
    """Half-support on the side where the data lives relative to x."""
    left_gap = x - sample.x_values[0]
    right_gap = sample.x_values[-1] - x
    if left_gap <= right_gap:
        return TruncatedSupport(0.0, 1.0)  # left boundary: (X - x)/h >= 0
    return TruncatedSupport(-1.0, 0.0)


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
    xs = DensitySample(sample.x_values)
    h_f = silverman_rot_density(xs, 2).value  # covariates without spread fail here first
    m_deriv, sigma2 = _global_poly_pilot(sample, p + 1, x)
    f_x = density_point_estimate(xs, x, h_f, kernel("epanechnikov"))
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


# ----------------------------------------------------------------------
# local polynomial: direct plug-in
# ----------------------------------------------------------------------

def _edgeworth_q_hats(fit: LocPolyFit, eps: np.ndarray, z: float):
    """Sample analogues of the coverage-error polynomials from one fit.

    ``fit`` is the degree-q pilot fit (with the recommended q = p+1,
    K = L, rho = 1 the RBC polynomials equal the undersmoothing ones at
    degree q); ``eps`` are the degree-p pilot residuals on the same
    window (the same kernel and bandwidth).  Expectations over one
    observation become sample means; expectations over pairs and triples
    become second- and third-order U-statistic averages over distinct
    indices.  Conditional variances v(X_i) use the HC0 plug-in
    eps_i^2, under which the E[l0^4 (eps^4 - v^2)] term vanishes
    identically; it is kept for completeness.

    No pairwise matrix is formed.  l0 and K vanish outside the kernel
    window, so only the fit's n_w rows r_i of the scaled basis R enter,
    and every pair and triple sum is a bilinear form through the
    (q+1) x (q+1) matrix G^-1.  With lev_i = r_i' G^-1 r_i and
    S_w = R' diag(w) R:

    - A6: sum_ij l0_i^2 (r_i' G^-1 r_j)^2 K_j^2 e_j^2 = tr(G^-1 S_a G^-1 S_b),
      a = l0^2, b = K^2 e^2, evaluated as sum_i a_i r_i' G^-1 S_b G^-1 r_i;
      its diagonal is sum l0^2 K^2 e^2 lev^2.
    - A7: with w = K l0 e^2, the row sums are R G^-1 (R' w) - w lev and the
      row sums of squares are r_i' G^-1 S_{w^2} G^-1 r_i - (w lev)^2.
    - A10, A11: a' L1 g = h (a . l0) sum(g) - (R'(a K))' G^-1 (R'(l0 g)),
      minus the diagonal sum a_i L1_ii g_i.  Outside the window the
      centred g of A11 is -center; it enters only through sum(g), and
      the squares of A12 gain (n - n_w) center^2.

    The cost is O(n_w (q+1)^2) time and O(n_w (q+1)) memory.
    """
    n = fit.n
    h = fit.h
    R = fit.basis
    kv = fit.kvals
    n_out = n - kv.size  # observations outside the fit's rows
    ginv = fit.g_inv
    e = eps
    e2 = e**2

    l0 = kv * (R @ ginv[0])
    sig2 = float(l0**2 @ e2 / (n * h))
    if sig2 <= 0:
        return None

    P = R @ ginv  # rows r_i' G^-1

    def quad(weights):
        """r_i' G^-1 (R' diag(weights) R) G^-1 r_i for every in-window i."""
        S = R.T @ (weights[:, None] * R)
        return np.einsum("ij,jk,ik->i", P, S, P)

    lev_raw = np.einsum("ij,jk,ik->i", R, ginv, R)  # r_i' G^-1 r_i
    a_vec = l0 * e2  # l0_i v_hat_i and l0_i eps_i^2 coincide under HC0
    w_vec = kv * a_vec
    v = R.T @ w_vec  # R'(K l0 e^2)
    g_vec = l0 * a_vec  # l0^2 e^2

    A1 = float(l0**3 @ e**3 / (n * h))
    # l1(X_i, X_i) = h l0_i - l0_i K_i r_i' G^-1 r_i
    l1_diag = h * l0 - l0 * kv * lev_raw
    A2 = float((l0 * l1_diag) @ e2 / (n * h))
    A3 = 0.0  # E[l0^4 (eps^4 - v^2)] with v_hat = eps^2
    A4 = float((l0**2 * kv * lev_raw) @ e2 / (n * h))
    vec1 = R.T @ (l0**3 * e**3) / (n * h)
    A5 = float(vec1 @ ginv @ v) / (n * h)

    pair_norm = n * (n - 1)
    t_vec = kv**2 * e2
    full6 = float(l0**2 @ quad(t_vec))
    diag6 = float(np.sum(l0**2 * t_vec * lev_raw**2))
    A6 = (full6 - diag6) / (pair_norm * h**2)

    diag7 = w_vec * lev_raw
    row_sum = P @ v - diag7
    row_sq = quad(w_vec**2) - diag7**2
    triple_norm = n * (n - 1) * (n - 2)
    A7 = float(l0**2 @ (row_sum**2 - row_sq)) / (triple_norm * h**3)

    A8 = float(l0**4 @ e**4 / (n * h))
    center = float(l0**2 @ e2 / n)  # E[l0^2 v]
    D = g_vec - center
    A9 = float(D @ g_vec / (n * h))

    a_l0 = float(a_vec @ l0)

    def l1_form(gv, g_total):
        """Sum over i != j of a_i L1[i, j] gv_j with
        L1[i, j] = h l0_i - l0_j K_i r_i' G^-1 r_j; g_total sums gv over all n."""
        full = h * a_l0 * g_total - float(v @ ginv @ (R.T @ (l0 * gv)))
        return full - float(np.sum(a_vec * l1_diag * gv))

    A10 = l1_form(g_vec, float(g_vec.sum())) / (pair_norm * h**2)
    A11 = l1_form(D, float(D.sum()) - n_out * center) / (pair_norm * h**2)
    A12 = float(D @ D + n_out * center**2) / (n * h)

    s2 = 1.0 / sig2**2
    s4 = s2 * s2
    s6 = s4 * s2
    q1 = 2.0 * (
        s6 * A1**2 * (z**3 / 3.0 + 7.0 * z / 4.0 + sig2 * z * (z**2 - 3.0) / 4.0)
        + s2 * A2 * (-z * (z**2 - 3.0) / 2.0)
        + s4 * A3 * (z * (z**2 - 3.0) / 8.0)
        - s2 * A4 * (z * (z**2 - 1.0) / 2.0)
        - s4 * A5 * (z * (z**2 - 1.0))
        + s2 * A6 * (z * (z**2 - 1.0) / 4.0)
        + s4 * A7 * (z * (z**2 - 1.0) / 2.0)
        + s4 * A8 * (-z * (z**2 - 3.0) / 24.0)
        + s4 * A9 * (z * (z**2 - 1.0) / 4.0)
        + s4 * A10 * (z * (z**2 - 3.0))
        + s4 * A11 * (-z)
        + s4 * A12 * (-z * (z**2 + 1.0) / 8.0)
    )
    q2 = -s2 * sig2 * z  # = -z / sig2
    q3 = s4 * A1 * (2.0 * z**3 / 3.0)
    terms = {
        "A1": A1, "A2": A2, "A3": A3, "A4": A4, "A5": A5, "A6": A6,
        "A7": A7, "A8": A8, "A9": A9, "A10": A10, "A11": A11, "A12": A12,
        "sigma2": sig2,
    }
    return q1, q2, q3, terms


def dpi_bandwidth_lp(
    sample: RegressionSample,
    x: float,
    p: int,
    boundary_flag: bool,
    K: KernelSpec,
    alpha: float = 0.05,
) -> BandwidthChoice:
    """Direct plug-in coverage-error-optimal bandwidth for RBC local polynomials.

    Follows the recommended configuration K = L, rho = 1, q = p + 1:
    (1) MSE pilot bandwidth; (2) degree-p pilot residuals; (3) m^(p+2)
    and m^(p+3) from global polynomial fits; (4) plug-in coverage-error
    polynomials and bias constants from the pilot fits; (5) minimize the
    absolute objective and rescale by n^(-1/(p+4)) (interior) or
    n^(-1/(p+3)) (boundary).  Falls back to the "rot" rule, or to
    2.34 sd n^rate where that is undefined (flagged), when a pilot
    degenerates or the objective is monotone; a zero covariate sd raises
    ZeroCurvatureError.
    """
    n = sample.n
    q = p + 1
    s = p + 2 if boundary_flag else p + 3  # order of the post-correction bias
    sigma_x = _sample_sd(sample.x_values)
    diag: dict = {"boundary": boundary_flag}

    def _fallback(reason: str) -> BandwidthChoice:
        try:
            rot = select("rot", sample, x, K, p=p, boundary=boundary_flag)
        except (ZeroCurvatureError, SingularDesignError):
            h = 2.34 * sigma_x * n ** (-1.0 / (s + 1))
            return _flagged(h, reason, diag, {"pilot": "scale"})
        return _flagged(rot.value, reason, diag, rot.diagnostics)

    try:
        h_mse = mse_bandwidth_lp(sample, x, p, K, boundary=boundary_flag)
    except (ZeroCurvatureError, SingularDesignError) as exc:
        return _fallback(f"mse pilot failed: {exc}")
    diag["h_mse"] = h_mse.value

    try:
        fit_p = lp_fit(sample, x, p, h_mse.value, K)
        fit_q = lp_fit(sample, x, q, h_mse.value, K)
    except SingularDesignError as exc:
        return _fallback(f"pilot fit failed: {exc}")
    eps = fit_p.residuals

    try:
        m_p2 = global_poly_derivative(sample, p + 2, x)
        m_p3 = global_poly_derivative(sample, p + 3, x) if not boundary_flag else 0.0
    except SingularDesignError as exc:
        return _fallback(f"global derivative pilot failed: {exc}")

    z = float(ndtri(1.0 - alpha / 2.0))
    qhat = _edgeworth_q_hats(fit_q, eps, z)
    if qhat is None:
        return _fallback("pilot residual variance vanished")
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
        return _fallback("plug-in bias constant vanished")
    try:
        value = _ce_optimal(q1, q2, q3, eta, s, sigma_x, n, diag)
    except MonotoneObjectiveError as exc:
        return _fallback(str(exc))
    return BandwidthChoice(value=value, rule="dpi", diagnostics=diag)


# ----------------------------------------------------------------------
# rule dispatch
# ----------------------------------------------------------------------

RULES = {"density": ("dpi", "rot", "mse", "silverman"), "lpreg": ("dpi", "rot", "mse")}


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
    use the degree ``p`` and the ``boundary`` rate.  Every rule raises
    ZeroCurvatureError for fewer than two observations or zero spread, and
    an unknown rule raises ValueError.
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
            return silverman_rot_density(sample, kappa)
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
