"""Helper-chain reference for ``lp_infer``.

This is the code that ``npinfer.locpoly`` used before ``lp_infer`` formed
the bias estimate and both sandwiches itself: the bias estimate and the
RBC weights each call ``_bias_parts``, the US and RBC sandwiches are two
functions of the same formula, and the residual weights are computed for
the p-fit and the q-fit separately, so with ``vce="nn"`` the
nearest-neighbor loop runs twice over the same window.  The boundary flag
uses ``K.support[1]`` on both sides, as the old code did; for the
symmetric built-in kernels that is the same flag.  It serves only as the
oracle that the one-pass ``lp_infer`` is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from npinfer.density import interval_triple
from npinfer.errors import DegenerateSampleError
from npinfer.kernels import KernelSpec
from npinfer.locpoly import (
    LocPolyFit,
    LocPolyInference,
    RegressionSample,
    VarianceMethod,
    _bias_parts,
    lp_fit,
    lp_residual_weights,
)


def reference_nn_weights(sample: RegressionSample, window: np.ndarray, J: int) -> np.ndarray:
    """J-nearest-neighbor variance estimates on the rows of ``window``, zeros elsewhere.

    Each row argsorts its distances to all n observations (itself set to
    infinity), stably, so among equal distances the lowest index wins.
    """
    n = sample.n
    if n < J + 1:
        raise DegenerateSampleError(f"nearest-neighbor weights need n >= {J + 1}")
    X, Y = sample.x_values, sample.y_values
    v = np.zeros(n)
    for i in np.flatnonzero(window):
        dist = np.abs(X - X[i])
        dist[i] = np.inf  # exclude self
        order = np.argsort(dist, kind="stable")[:J]
        v[i] = J / (J + 1) * (Y[i] - Y[order].mean()) ** 2
    return v


def _rbc_weights(fit_p: LocPolyFit, fit_q: LocPolyFit, rho: float) -> np.ndarray:
    """Linear weights of the bias-corrected estimate m_hat - bias_hat."""
    c, s = _bias_parts(fit_p, fit_q)
    return fit_p.weights - rho ** (fit_p.p + 1) * c * s


def lp_bias_estimate(
    sample: RegressionSample,
    x: float,
    p: int,
    q: int,
    h: float,
    b: float,
    K: KernelSpec,
    L: KernelSpec,
) -> float:
    """Plug-in conditional-bias estimate h^(p+1) m^(p+1)(x) e0' G_p^-1 Lambda_p / (p+1)!."""
    if q <= p:
        raise ValueError("q must exceed p")
    fit_p = lp_fit(sample, x, p, h, K)
    fit_q = lp_fit(sample, x, q, b, L)
    return _bias_from_fits(fit_p, fit_q, sample)


def _bias_from_fits(fit_p: LocPolyFit, fit_q: LocPolyFit, sample: RegressionSample) -> float:
    rho = fit_p.h / fit_q.h
    c, s = _bias_parts(fit_p, fit_q)
    return rho ** (fit_p.p + 1) * c * float(s @ sample.y_values)


def lp_variance_us(fit_p: LocPolyFit, v_hats: np.ndarray) -> float:
    """Fixed-n sandwich (nh) V[m_hat | X] with Sigma replaced by diag(v_hats)."""
    n = fit_p.u.size
    return float(n * fit_p.h * np.sum(fit_p.weights**2 * v_hats))


def lp_variance_rbc(
    fit_p: LocPolyFit, fit_q: LocPolyFit, rho: float, v_hats: np.ndarray
) -> float:
    """Fixed-n sandwich (nh) V[m_hat - bias_hat | X] with diag(v_hats)."""
    n = fit_p.u.size
    w = _rbc_weights(fit_p, fit_q, rho)
    return float(n * fit_p.h * np.sum(w**2 * v_hats))


def reference_lp_infer(
    sample: RegressionSample,
    x: float,
    p: int = 1,
    q: int = 2,
    h: float = None,
    b: float = None,
    K: KernelSpec = None,
    L: KernelSpec = None,
    alpha: float = 0.05,
    method: VarianceMethod = VarianceMethod("hc3"),
) -> LocPolyInference:
    """US, BC, and RBC confidence intervals for m(x).

    The same formulas apply at interior and boundary points; the fixed-n
    matrices adapt automatically.  Zero-variance windows produce
    zero-width intervals with the degeneracy flag set.
    """
    if q <= p:
        raise ValueError("q must exceed p")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if K is None or L is None or h is None or b is None:
        raise ValueError("h, b, K, and L are all required")
    fit_p = lp_fit(sample, x, p, h, K)
    fit_q = lp_fit(sample, x, q, b, L)
    rho = h / b

    bias_hat = _bias_from_fits(fit_p, fit_q, sample)
    if method.kind == "nn":
        union = fit_p.in_window | fit_q.in_window
        v_p = reference_nn_weights(sample, fit_p.in_window, method.nn_neighbors)
        v_q = reference_nn_weights(sample, union, method.nn_neighbors)
    else:
        v_p = lp_residual_weights(fit_p, method, sample)
        v_q = lp_residual_weights(fit_q, method, sample)
    var_us = lp_variance_us(fit_p, v_p)
    var_rbc = lp_variance_rbc(fit_p, fit_q, rho, v_q)
    # residuals from an exactly reproduced polynomial are pure roundoff;
    # snap the resulting variances to zero so such fits report as degenerate
    y_scale = max(1.0, float(np.max(np.abs(sample.y_values[fit_p.in_window]), initial=0.0)))
    floor = (1e-12 * y_scale) ** 2
    if var_us < floor:
        var_us = 0.0
    if var_rbc < floor:
        var_rbc = 0.0
    se_us = math.sqrt(var_us)
    se_rbc = math.sqrt(var_rbc)
    m_hat = fit_p.m_hat
    intervals = interval_triple(m_hat, bias_hat, se_us, se_rbc, sample.n, h, alpha)
    span = K.support[1]
    boundary = (x - span * h < sample.x_values[0]) or (x + span * h > sample.x_values[-1])
    return LocPolyInference(
        fit_p=fit_p,
        fit_q=fit_q,
        rho=rho,
        m_hat=m_hat,
        bias_hat=bias_hat,
        se_us=se_us,
        se_rbc=se_rbc,
        weights_rbc=_rbc_weights(fit_p, fit_q, rho),
        intervals=intervals,
        boundary_flag=boundary,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
    )
