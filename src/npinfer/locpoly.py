"""Local polynomial regression with fixed-n sandwich inference.

The degree-p estimate at x solves kernel-weighted least squares in the
scaled basis r_p((X_i - x)/h); the scaling keeps the Gram matrix

    G_p = R_p' W_p R_p / n,       W_p = diag(K((X_i - x)/h) / h),

well conditioned even for small bandwidths, and the unscaled coefficient
vector is recovered afterwards.  Bias correction estimates m^(p+1) from a
second fit of degree q > p with kernel L and bandwidth b.  Both standard
errors are fixed-n plug-in sandwiches: the US one uses the degree-p
residuals, the RBC one uses the exact linear weights of m_hat - bias_hat
together with degree-q residuals, so the same code path is valid at
interior and boundary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .density import IntervalTriple, interval_triple
from .errors import DegenerateSampleError, LeverageOneError, SingularDesignError
from .kernels import KernelSpec

__all__ = [
    "RegressionSample",
    "LocPolyFit",
    "LocPolyInference",
    "VarianceMethod",
    "lp_fit",
    "lp_residual_weights",
    "lp_variance",
    "lp_infer",
]

RCOND_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class RegressionSample:
    """Paired (X, Y) observations, stored in (x, y)-lexicographic order.

    The canonical ordering makes every downstream computation, including
    nearest-neighbor tie-breaking by observation index, invariant to the
    order in which the data arrived.
    """

    x_values: np.ndarray
    y_values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=float).ravel()
        y = np.asarray(self.y_values, dtype=float).ravel()
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        if x.size < 2:
            raise DegenerateSampleError("regression sample needs at least two observations")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite values")
        order = np.lexsort((y, x))
        object.__setattr__(self, "x_values", x[order])
        object.__setattr__(self, "y_values", y[order])

    @property
    def n(self) -> int:
        return self.x_values.size


@dataclass(frozen=True, eq=False)
class VarianceMethod:
    """Residual weighting for the sandwich: HC0-HC3 or nearest neighbor.

    ``kind`` is one of ``KINDS``, in any letter case.
    """

    KINDS = ("hc0", "hc1", "hc2", "hc3", "nn")

    kind: str = "hc3"
    nn_neighbors: int = 3

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in self.KINDS:
            raise ValueError(f"unknown variance method {self.kind!r}")
        if self.nn_neighbors < 1:
            raise ValueError("nn_neighbors must be >= 1")
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True, eq=False)
class LocPolyFit:
    """One kernel-weighted polynomial fit and its reusable pieces.

    ``beta_hat`` is reported in the unscaled r_p(X_i - x) parameterization,
    so ``beta_hat[0]`` is the point estimate and ``beta_hat[j] * j!``
    estimates m^(j)(x).  ``G`` and ``Lambda1`` are the scaled design
    moments G_p and Lambda_{p,1}; ``weights`` are the linear coefficients
    of the point estimate (m_hat = weights @ Y).
    """

    x: float
    p: int
    h: float
    kernel: KernelSpec
    beta_hat: np.ndarray
    G: np.ndarray
    Lambda1: np.ndarray
    effective_n: int
    residuals: np.ndarray
    weights: np.ndarray
    in_window: np.ndarray
    rcond: float
    # scaled-basis internals reused by variance and bandwidth code
    u: np.ndarray
    kvals: np.ndarray
    basis: np.ndarray
    g_inv: np.ndarray
    beta_scaled: np.ndarray

    @property
    def m_hat(self) -> float:
        return float(self.beta_hat[0])


def lp_fit(sample: RegressionSample, x: float, p: int, h: float, K: KernelSpec) -> LocPolyFit:
    """Fit the degree-p local polynomial at x with bandwidth h.

    Raises
    ------
    SingularDesignError
        Fewer than p+1 distinct in-window covariates of nonzero kernel
        weight, or the scaled Gram matrix has reciprocal condition below
        1e-12.
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
    factor = cho_factor(G)
    g_inv = cho_solve(factor, np.eye(p + 1))

    beta_scaled = g_inv @ (Rw.T @ Y) / n
    beta = beta_scaled / h ** np.arange(p + 1)
    fitted = basis @ beta_scaled
    residuals = Y - fitted
    lambda1 = basis.T @ (w * u ** (p + 1)) / n
    weights = np.zeros(n)
    weights[inside] = (basis[inside] @ g_inv[0]) * kvals[inside] / (n * h)

    return LocPolyFit(
        x=float(x),
        p=p,
        h=float(h),
        kernel=K,
        beta_hat=beta,
        G=G,
        Lambda1=lambda1,
        effective_n=eff_n,
        residuals=residuals,
        weights=weights,
        in_window=inside,
        rcond=float(eig[0] / eig[-1]),
        u=u,
        kvals=np.where(inside, kvals, 0.0),
        basis=basis,
        g_inv=g_inv,
        beta_scaled=beta_scaled,
    )


def _bias_parts(fit_p: LocPolyFit, fit_q: LocPolyFit):
    """(c, s) with bias_hat = rho^(p+1) * c * (s @ Y), for a q-fit of degree q > p.

    c = e_0' G_p^-1 Lambda_p, and s holds the linear weights of
    e_{p+1}' G_q^-1 R_q' W_q Y / n from the degree-q fit.
    """
    p = fit_p.p
    c = float(fit_p.g_inv[0] @ fit_p.Lambda1)
    m = fit_q.in_window
    s = np.zeros_like(fit_q.u)
    s[m] = (fit_q.basis[m] @ fit_q.g_inv[p + 1]) * fit_q.kvals[m] / (fit_q.u.size * fit_q.h)
    return c, s


def lp_residual_weights(
    fit: LocPolyFit, method: VarianceMethod, sample: RegressionSample
) -> np.ndarray:
    """Per-observation variance estimates v_hat(X_i) for the sandwich.

    HC0 squares the fit's own residuals; HC1-HC3 rescale them by the
    leverage of the kernel-weighted projection Q = R G^-1 R' W / n
    (restricted to in-window observations, with in-window counts in the
    HC1 trace correction).  NN ignores the fit's residuals and uses the
    J-nearest-neighbor difference estimate.  Out-of-window observations
    get zeros; they never touch the sandwich.
    """
    n = sample.n
    m = fit.in_window
    v = np.zeros(n)

    if method.kind == "nn":
        J = method.nn_neighbors
        if n < J + 1:
            raise DegenerateSampleError(f"nearest-neighbor weights need n >= {J + 1}")
        X, Y = sample.x_values, sample.y_values
        idx_in = np.flatnonzero(m)
        for i in idx_in:
            dist = np.abs(X - X[i])
            dist[i] = np.inf  # exclude self
            order = np.argsort(dist, kind="stable")[:J]
            v[i] = J / (J + 1) * (Y[i] - Y[order].mean()) ** 2
        return v

    res2 = fit.residuals[m] ** 2
    if method.kind == "hc0":
        v[m] = res2
        return v

    lev = np.einsum(
        "ij,jk,ik->i", fit.basis[m], fit.g_inv, fit.basis[m]
    ) * fit.kvals[m] / (n * fit.h)
    if method.kind == "hc1":
        n_in = fit.effective_n
        A = fit.basis[m].T @ fit.basis[m]
        t2 = fit.g_inv @ A @ fit.g_inv
        scale = (fit.kvals[m] / (n * fit.h)) ** 2
        tr_qq = float(np.einsum("ij,jk,ik->i", fit.basis[m], t2, fit.basis[m]) @ scale)
        divisor = (n_in - 2.0 * lev.sum() + tr_qq) / n_in
        if divisor <= 0:
            raise LeverageOneError("HC1 trace correction is nonpositive; window too small")
        v[m] = res2 / divisor
        return v

    if np.any(lev >= 1.0 - 1e-12):
        raise LeverageOneError(
            "a leverage value reached one under HC2/HC3; enlarge the bandwidth"
        )
    if method.kind == "hc2":
        v[m] = res2 / (1.0 - lev)
    else:  # hc3
        v[m] = res2 / (1.0 - lev) ** 2
    return v


def lp_variance(weights: np.ndarray, v_hats: np.ndarray, h: float) -> float:
    """Fixed-n sandwich (nh) V[weights @ Y | X] with Sigma replaced by diag(v_hats)."""
    return float(weights.size * h * np.sum(weights**2 * v_hats))


@dataclass(frozen=True, eq=False)
class LocPolyInference(IntervalTriple):
    """Point estimates, bias correction, and the three intervals at x.

    ``weights_rbc`` are the linear coefficients of the bias-corrected
    estimate (m_hat - bias_hat = weights_rbc @ Y) that Studentize the RBC
    interval.
    """

    fit_p: LocPolyFit
    fit_q: LocPolyFit
    rho: float
    m_hat: float
    bias_hat: float
    se_us: float
    se_rbc: float
    weights_rbc: np.ndarray
    intervals: tuple
    boundary_flag: bool
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "x": self.fit_p.x,
            "p": self.fit_p.p,
            "q": self.fit_q.p,
            "h": self.fit_p.h,
            "b": self.fit_q.h,
            "rho": self.rho,
            "m_hat": self.m_hat,
            "bias_hat": self.bias_hat,
            "se_us": self.se_us,
            "se_rbc": self.se_rbc,
            "effective_n": self.fit_p.effective_n,
            "intervals": [ci.to_dict() for ci in self.intervals],
            "boundary": self.boundary_flag,
            "degenerate": self.degenerate,
        }


def lp_infer(
    sample: RegressionSample,
    x: float,
    p: int,
    q: int,
    h: float,
    b: float,
    K: KernelSpec,
    L: KernelSpec,
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
    fit_p = lp_fit(sample, x, p, h, K)
    fit_q = lp_fit(sample, x, q, b, L)
    rho = h / b

    c, s = _bias_parts(fit_p, fit_q)
    k = rho ** (p + 1) * c
    bias_hat = k * float(s @ sample.y_values)
    weights_rbc = fit_p.weights - k * s
    v_q = lp_residual_weights(fit_q, method, sample)
    # NN estimates depend on the fit only through its window, and the
    # p-weights vanish outside the p-window
    if method.kind == "nn" and not np.any(fit_p.in_window & ~fit_q.in_window):
        v_p = v_q
    else:
        v_p = lp_residual_weights(fit_p, method, sample)
    var_us = lp_variance(fit_p.weights, v_p, fit_p.h)
    var_rbc = lp_variance(weights_rbc, v_q, fit_p.h)
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
    lo, hi = K.support
    boundary = (x + lo * h < sample.x_values[0]) or (x + hi * h > sample.x_values[-1])
    return LocPolyInference(
        fit_p=fit_p,
        fit_q=fit_q,
        rho=rho,
        m_hat=m_hat,
        bias_hat=bias_hat,
        se_us=se_us,
        se_rbc=se_rbc,
        weights_rbc=weights_rbc,
        intervals=intervals,
        boundary_flag=boundary,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
    )
