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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, lapack

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
    order in which the data arrived.  Values and the covariate range must be finite.

    The sample memoizes the x-free pilot quantities of the local polynomial
    bandwidth selectors, so every evaluation point reuses them: the global
    polynomial fits by degree, the covariates as a ``DensitySample`` with
    their Silverman bandwidth, their sd and max(1, max|Y|).  A computation
    that raises stores nothing, so it raises again on the next call.
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
        x = x[order]
        if not math.isfinite(float(x[-1]) - float(x[0])):  # Python floats do not warn
            raise ValueError("covariate range overflows")
        object.__setattr__(self, "x_values", x)
        object.__setattr__(self, "y_values", y[order])

    @property
    def n(self) -> int:
        return self.x_values.size

    @cached_property
    def _memo(self) -> dict:
        """Pilot quantities keyed by ``("gpoly", k)``, ``"xs"``,
        ``"silverman"``, ``"sd"`` and ``"y_scale"``."""
        return {}

    def _memoized(self, key, compute):
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]


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

    The fit sees only its window: the rows i of the sorted sample with
    lo <= (X_i - x)/h <= hi for the kernel's support [lo, hi], which form
    the slice ``window`` of the sample's ``n`` rows (``effective_n`` of
    them).  ``u``, ``kvals``, ``basis``, ``residuals`` and ``weights`` hold
    one entry per window row; ``weights`` are the linear coefficients of
    the point estimate, m_hat = weights @ Y[window].  ``beta_hat`` is
    reported in the unscaled r_p(X_i - x) parameterization, so
    ``beta_hat[0]`` is the point estimate and ``beta_hat[j] * j!``
    estimates m^(j)(x).  ``G`` is the scaled Gram matrix G_p.
    """

    x: float
    p: int
    h: float
    kernel: KernelSpec
    n: int
    window: slice
    beta_hat: np.ndarray
    G: np.ndarray
    effective_n: int
    residuals: np.ndarray
    weights: np.ndarray
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

    def Lambda(self, k: int) -> np.ndarray:
        """Design moment Lambda_{p,k} = R_p' W_p [u^(p+k)] / n."""
        return self.basis.T @ (self.kvals / self.h * self.u ** (self.p + k)) / self.n


def lp_fit(sample: RegressionSample, x: float, p: int, h: float, K: KernelSpec) -> LocPolyFit:
    """Fit the degree-p local polynomial at x with bandwidth h.

    Raises
    ------
    SingularDesignError
        Fewer than p+1 distinct in-window covariates of nonzero kernel
        weight, or the scaled Gram matrix has reciprocal condition below
        1e-12.
    ValueError
        A bandwidth so small that 1/h, the scale of the design's kernel
        weights K(u)/h, or the scaled Gram matrix overflows.
    """
    if not (h > 0) or not np.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if math.isinf(1.0 / float(h)):
        raise ValueError(f"scaled design overflows at h={h!r}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    n = sample.n
    X, Y = sample.x_values, sample.y_values
    # (X_i - x)/h does not decrease in i, so the support's rows are one slice;
    # the keys are Python floats, whose overflow to inf is silent
    lo, hi = K.support
    xf, hf = float(x), float(h)

    def key(xi):
        return (float(xi) - xf) / hf

    start = bisect_left(X, lo, key=key)
    window = slice(start, bisect_right(X, hi, lo=start, key=key))
    X, Y = X[window], Y[window]
    u = (X - x) / h
    kvals = K.eval_many(u)
    # edge rows of the window carry zero kernel weight and identify nothing;
    # the rest are sorted, so each value change starts a new distinct value
    weighted = X[kvals != 0]
    distinct = int(np.count_nonzero(weighted[1:] != weighted[:-1])) + 1 if weighted.size else 0
    if distinct < p + 1:
        raise SingularDesignError(
            f"only {distinct} distinct covariates inside the window at x={x} (need {p + 1})"
        )
    basis = np.vander(u, N=p + 1, increasing=True)
    Rw = basis * (kvals / h)[:, None]
    G = basis.T @ Rw / n
    G = 0.5 * (G + G.T)
    if not np.all(np.isfinite(G)):
        raise ValueError(f"scaled design overflows at h={h!r}")

    eig = np.linalg.eigvalsh(G)
    if eig[0] <= 0 or eig[0] / eig[-1] < RCOND_CUTOFF:
        raise SingularDesignError(
            f"scaled design is numerically singular (rcond={eig[0] / eig[-1]:.3e})"
        )
    # the LAPACK calls of scipy's cho_factor and cho_solve, without their wrappers
    chol, info = lapack.dpotrf(G, lower=0, clean=0)
    if info == 0:
        g_inv, info = lapack.dpotrs(chol, np.eye(p + 1), lower=0)
    if info != 0:
        raise LinAlgError(f"Cholesky factorization of the scaled design failed (info={info})")

    beta_scaled = g_inv @ (Rw.T @ Y) / n
    return LocPolyFit(
        x=float(x),
        p=p,
        h=float(h),
        kernel=K,
        n=n,
        window=window,
        beta_hat=beta_scaled / h ** np.arange(p + 1),
        G=G,
        effective_n=u.size,
        residuals=Y - basis @ beta_scaled,
        weights=(basis @ g_inv[0]) * kvals / (n * h),
        rcond=float(eig[0] / eig[-1]),
        u=u,
        kvals=kvals,
        basis=basis,
        g_inv=g_inv,
        beta_scaled=beta_scaled,
    )


def _bias_parts(fit_p: LocPolyFit, fit_q: LocPolyFit):
    """(c, s) with bias_hat = rho^(p+1) * c * (s @ Y[fit_q.window]), for q > p.

    c = e_0' G_p^-1 Lambda_{p,1}, and s holds the linear weights of
    e_{p+1}' G_q^-1 R_q' W_q Y / n from the degree-q fit, one per q-window row.
    """
    c = float(fit_p.g_inv[0] @ fit_p.Lambda(1))
    s = (fit_q.basis @ fit_q.g_inv[fit_p.p + 1]) * fit_q.kvals / (fit_q.n * fit_q.h)
    return c, s


def _within(rows: slice, window: slice) -> slice:
    """The rows of the sample, counted from the start of a window that contains them."""
    return slice(rows.start - window.start, rows.stop - window.start)


def _spread(values: np.ndarray, rows: slice, window: slice) -> np.ndarray:
    """Per-row values on rows, zeros on the rest of a window that contains them."""
    out = np.zeros(window.stop - window.start)
    out[_within(rows, window)] = values
    return out


def _nearest_neighbors(X: np.ndarray, rows: np.ndarray, J: int) -> np.ndarray:
    """Indices of the J nearest neighbors of each X[rows] in sorted X, one row each.

    Each row lists its neighbors nearest first and, among equal distances,
    lowest index first: the order of a stable argsort of |X - X[i]| with i
    itself left out.  As X is sorted, the J nearest lie within J places of
    i, except that a block of ties at the J-th distance may reach further
    left; a bisection finds where that block starts.
    """
    n = X.size
    xi = X[rows][:, None]
    step = np.arange(1, J + 1)
    left, right = rows[:, None] - step, rows[:, None] + step
    d_left = np.where(left >= 0, np.abs(X[np.maximum(left, 0)] - xi), np.inf)
    d_right = np.where(right < n, np.abs(X[np.minimum(right, n - 1)] - xi), np.inf)
    d_J = np.partition(np.hstack([d_left, d_right]), J - 1, axis=1)[:, J - 1 : J]
    closer_left = np.count_nonzero(d_left < d_J, axis=1)
    closer_right = np.count_nonzero(d_right < d_J, axis=1)
    # the left rows at distance d_J start here, unless they fill the left window
    start = rows - np.count_nonzero(d_left <= d_J, axis=1)
    far = np.flatnonzero(start == rows - J)
    lo, hi = np.zeros(far.size, dtype=start.dtype), start[far]
    x_far, d_far = xi[far, 0], d_J[far, 0]
    while np.any(lo < hi):  # |X[j] - X[i]| does not increase in j <= i
        mid = (lo + hi) // 2
        tied = np.abs(X[mid] - x_far) <= d_far
        lo, hi = np.where(tied, lo, mid + 1), np.where(tied, mid, hi)
    start[far] = hi
    # in index order: the lowest-indexed ties on the left, the closer left
    # rows, then the right rows (closer ones first, then ties)
    from_ties = np.minimum(J - closer_left - closer_right, rows - closer_left - start)[:, None]
    k = from_ties + closer_left[:, None]
    t = np.arange(J)
    idx = np.where(t < from_ties, start[:, None] + t, rows[:, None] - k + t + (t >= k))
    order = np.argsort(np.abs(X[idx] - xi), axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


def lp_residual_weights(
    fit: LocPolyFit,
    method: VarianceMethod,
    sample: RegressionSample,
    window: slice | None = None,
) -> np.ndarray:
    """Variance estimates v_hat(X_i) for the sandwich, one per window row.

    HC0 squares the fit's own residuals; HC1-HC3 rescale them by the
    leverage of the kernel-weighted projection Q = R G^-1 R' W / n
    (with in-window counts in the HC1 trace correction).  NN ignores the
    fit's residuals and uses the J-nearest-neighbor difference estimate,
    J / (J + 1) times the squared gap between Y_i and the mean of its J
    nearest neighbors among all n observations (lowest index first among
    equal distances), at O(n_w J) cost for n_w rows; NN alone takes a
    ``window`` of rows to estimate in place of the fit's.
    """
    n = fit.n

    if method.kind == "nn":
        J = method.nn_neighbors
        if n < J + 1:
            raise DegenerateSampleError(f"nearest-neighbor weights need n >= {J + 1}")
        X, Y = sample.x_values, sample.y_values
        window = fit.window if window is None else window
        rows = np.arange(window.start, window.stop)
        pick = _nearest_neighbors(X, rows, J)
        # float_power rounds as a scalar ** 2 (C pow) does; an array ** 2 can differ in the last bit
        return J / (J + 1) * np.float_power(Y[rows] - Y[pick].mean(axis=1), 2)
    if window is not None:
        raise ValueError("only nearest-neighbor weights take a window")

    res2 = fit.residuals**2
    if method.kind == "hc0":
        return res2

    R = fit.basis
    lev = np.einsum("ij,jk,ik->i", R, fit.g_inv, R) * fit.kvals / (n * fit.h)
    if method.kind == "hc1":
        n_in = fit.effective_n
        t2 = fit.g_inv @ (R.T @ R) @ fit.g_inv
        scale = (fit.kvals / (n * fit.h)) ** 2
        tr_qq = float(np.einsum("ij,jk,ik->i", R, t2, R) @ scale)
        divisor = (n_in - 2.0 * lev.sum() + tr_qq) / n_in
        if divisor <= 0:
            raise LeverageOneError("HC1 trace correction is nonpositive; window too small")
        return res2 / divisor

    if np.any(lev >= 1.0 - 1e-12):
        raise LeverageOneError(
            "a leverage value reached one under HC2/HC3; enlarge the bandwidth"
        )
    if method.kind == "hc2":
        return res2 / (1.0 - lev)
    return res2 / (1.0 - lev) ** 2  # hc3


def lp_variance(weights: np.ndarray, v_hats: np.ndarray, n: int, h: float) -> float:
    """Fixed-n sandwich (nh) V[weights @ Y | X] with Sigma replaced by diag(v_hats).

    ``weights`` and ``v_hats`` cover the same rows of a sample of n observations.
    """
    return float(n * h * np.sum(weights**2 * v_hats))


@dataclass(frozen=True, eq=False)
class LocPolyInference(IntervalTriple):
    """Point estimates, bias correction, and the three intervals at x.

    ``window`` is the smallest slice of rows that covers the p- and
    q-windows, and ``weights_rbc`` are the linear coefficients of the
    bias-corrected estimate on it (m_hat - bias_hat = weights_rbc @
    Y[window]) that Studentize the RBC interval.
    """

    fit_p: LocPolyFit
    fit_q: LocPolyFit
    rho: float
    m_hat: float
    bias_hat: float
    se_us: float
    se_rbc: float
    weights_rbc: np.ndarray
    window: slice
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
    bias_hat = k * float(s @ sample.y_values[fit_q.window])
    # the RBC weights reach over both windows: the smallest slice that holds them
    window = slice(
        min(fit_p.window.start, fit_q.window.start), max(fit_p.window.stop, fit_q.window.stop)
    )
    weights_rbc = _spread(fit_p.weights, fit_p.window, window) - k * _spread(
        s, fit_q.window, window
    )
    if method.kind == "nn":
        # NN estimates depend on a fit only through its rows: one pass
        # covers both windows, and the US sandwich takes the p-window's part
        v_q = lp_residual_weights(fit_q, method, sample, window=window)
        v_p = v_q[_within(fit_p.window, window)]
    else:
        v_p = lp_residual_weights(fit_p, method, sample)
        v_q = _spread(lp_residual_weights(fit_q, method, sample), fit_q.window, window)
    var_us = lp_variance(fit_p.weights, v_p, sample.n, fit_p.h)
    var_rbc = lp_variance(weights_rbc, v_q, sample.n, fit_p.h)
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
        window=window,
        intervals=intervals,
        boundary_flag=boundary,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
    )
