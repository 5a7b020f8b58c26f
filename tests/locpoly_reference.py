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

``whole_sample_lp_fit`` is ``lp_fit`` as it was before it fit on its
window alone: every per-row array is n long, and sums run over all n
rows with zeros outside the kernel's support.  Its fits have the whole
sample as their window, so the reference chain, run on them with
``fit=whole_sample_lp_fit``, repeats the whole-sample arithmetic that the
window-local code replaced.  (Its degeneracy floor then scales with the
largest |Y| of the whole sample rather than of the window, which matters
only for fits that reproduce Y to roundoff.)
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from npinfer.density import interval_triple
from npinfer.errors import DegenerateSampleError, SingularDesignError
from npinfer.kernels import KernelSpec
from npinfer.locpoly import (
    RCOND_CUTOFF,
    LocPolyFit,
    LocPolyInference,
    RegressionSample,
    VarianceMethod,
    _bias_parts,
    _spread,
    lp_fit,
    lp_residual_weights,
)


def whole_sample_lp_fit(
    sample: RegressionSample, x: float, p: int, h: float, K: KernelSpec
) -> LocPolyFit:
    """The degree-p fit at x over all n rows, with the window the whole sample.

    ``u``, ``kvals``, ``basis``, ``residuals`` and ``weights`` are zero on
    the rows outside the kernel's support (the old ``in_window`` mask), and
    ``effective_n`` counts the rows inside it.
    """
    if not (h > 0) or not np.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    n = sample.n
    X, Y = sample.x_values, sample.y_values
    u = (X - x) / h
    kvals = K.eval_many(u)
    lo, hi = K.support
    inside = (u >= lo) & (u <= hi)
    eff_n = int(np.count_nonzero(inside))
    # edge rows of the window carry zero kernel weight and identify nothing
    distinct = np.unique(X[inside & (kvals != 0)]).size
    if distinct < p + 1:
        raise SingularDesignError(
            f"only {distinct} distinct covariates inside the window at x={x} (need {p + 1})"
        )
    basis = np.vander(u, N=p + 1, increasing=True)
    w = np.where(inside, kvals, 0.0) / h
    Rw = basis * w[:, None]
    G = basis.T @ Rw / n
    G = 0.5 * (G + G.T)

    eig = np.linalg.eigvalsh(G)
    if eig[0] <= 0 or eig[0] / eig[-1] < RCOND_CUTOFF:
        raise SingularDesignError(
            f"scaled design is numerically singular (rcond={eig[0] / eig[-1]:.3e})"
        )
    g_inv = reference_g_inv(G)

    beta_scaled = g_inv @ (Rw.T @ Y) / n
    beta = beta_scaled / h ** np.arange(p + 1)
    fitted = basis @ beta_scaled
    residuals = Y - fitted
    weights = np.zeros(n)
    weights[inside] = (basis[inside] @ g_inv[0]) * kvals[inside] / (n * h)

    return LocPolyFit(
        x=float(x),
        p=p,
        h=float(h),
        n=n,
        window=slice(0, n),
        beta_hat=beta,
        G=G,
        effective_n=eff_n,
        residuals=np.where(inside, residuals, 0.0),
        weights=weights,
        rcond=float(eig[0] / eig[-1]),
        u=np.where(inside, u, 0.0),
        kvals=np.where(inside, kvals, 0.0),
        basis=np.where(inside[:, None], basis, 0.0),
        g_inv=g_inv,
    )


def reference_g_inv(G: np.ndarray) -> np.ndarray:
    """G^-1 through scipy's ``cho_factor`` and ``cho_solve``, as ``lp_fit`` once did."""
    return cho_solve(cho_factor(G), np.eye(G.shape[0]))


def reference_nn_weights(sample: RegressionSample, rows: slice, J: int) -> np.ndarray:
    """J-nearest-neighbor variance estimates on a slice of rows, one per row.

    Each row argsorts its distances to all n observations (itself set to
    infinity), stably, so among equal distances the lowest index wins.
    """
    n = sample.n
    if n < J + 1:
        raise DegenerateSampleError(f"nearest-neighbor weights need n >= {J + 1}")
    X, Y = sample.x_values, sample.y_values
    v = np.zeros(rows.stop - rows.start)
    for i in range(rows.start, rows.stop):
        dist = np.abs(X - X[i])
        dist[i] = np.inf  # exclude self
        order = np.argsort(dist, kind="stable")[:J]
        v[i - rows.start] = J / (J + 1) * (Y[i] - Y[order].mean()) ** 2
    return v


def _union(fit_p: LocPolyFit, fit_q: LocPolyFit) -> slice:
    """The smallest slice of rows that covers both windows."""
    return slice(
        min(fit_p.window.start, fit_q.window.start), max(fit_p.window.stop, fit_q.window.stop)
    )


def _rbc_weights(fit_p: LocPolyFit, fit_q: LocPolyFit, rho: float) -> np.ndarray:
    """Linear weights of the bias-corrected estimate m_hat - bias_hat on both windows."""
    c, s = _bias_parts(fit_p, fit_q)
    window = _union(fit_p, fit_q)
    return _spread(fit_p.weights, fit_p.window, window) - rho ** (fit_p.p + 1) * c * _spread(
        s, fit_q.window, window
    )


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
    return rho ** (fit_p.p + 1) * c * float(s @ sample.y_values[fit_q.window])


def lp_variance_us(fit_p: LocPolyFit, v_hats: np.ndarray) -> float:
    """Fixed-n sandwich (nh) V[m_hat | X] with diag(v_hats) on the p-window."""
    n = fit_p.n
    return float(n * fit_p.h * np.sum(fit_p.weights**2 * v_hats))


def lp_variance_rbc(
    fit_p: LocPolyFit, fit_q: LocPolyFit, rho: float, v_hats: np.ndarray
) -> float:
    """Fixed-n sandwich (nh) V[m_hat - bias_hat | X] with diag(v_hats) on both windows."""
    n = fit_p.n
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
    fit=lp_fit,
) -> LocPolyInference:
    """US, BC, and RBC confidence intervals for m(x), from the fits that ``fit`` makes.

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
    fit_p = fit(sample, x, p, h, K)
    fit_q = fit(sample, x, q, b, L)
    rho = h / b

    bias_hat = _bias_from_fits(fit_p, fit_q, sample)
    union = _union(fit_p, fit_q)
    if method.kind == "nn":
        v_p = reference_nn_weights(sample, fit_p.window, method.nn_neighbors)
        v_q = reference_nn_weights(sample, union, method.nn_neighbors)
    else:
        v_p = lp_residual_weights(fit_p, method, sample)
        v_q = _spread(lp_residual_weights(fit_q, method, sample), fit_q.window, union)
    var_us = lp_variance_us(fit_p, v_p)
    var_rbc = lp_variance_rbc(fit_p, fit_q, rho, v_q)
    # residuals from an exactly reproduced polynomial are pure roundoff;
    # snap the resulting variances to zero so such fits report as degenerate
    y_scale = max(1.0, float(np.max(np.abs(sample.y_values[fit_p.window]), initial=0.0)))
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
        window=union,
        intervals=intervals,
        boundary_flag=boundary,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
    )
