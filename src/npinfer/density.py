"""Kernel density estimation at a point with bias-corrected inference.

The point estimate is the classical kernel average

    f_hat(x) = (n h)^(-1) sum_i K((x - X_i) / h),

the bias estimate plugs a derivative-kernel estimate of f^(kappa) into the
leading smoothing-bias term, and the variances are fixed-n sample analogues
of

    (n h) V[f_hat] = h^(-1) { E[N((x-X)/h)^2] - E[N((x-X)/h)]^2 },

with N = K for the undersmoothed (US) statistic and N = M_rho, the induced
bias-corrected kernel, for the robust bias-corrected (RBC) one.  Three
confidence intervals result: US centered at f_hat, BC and RBC centered at
f_hat - bias_hat, with BC sharing the US width and RBC carrying the
variance of the bias correction as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateSampleError
from .kernels import KernelSpec, MemoMixin, derivative_part, induced_kernel

__all__ = [
    "DensitySample",
    "ConfidenceInterval",
    "critical_value",
    "interval_triple",
    "DensityInference",
    "density_point_estimate",
    "density_derivative_estimate",
    "density_infer",
    "gj_density_estimate",
]

# the bias kernel L of density inference when the caller names none
DEFAULT_BIAS_KERNEL = "mseopt-deriv2"

# the order of the intervals in every triple that interval_triple builds
METHODS = ("US", "BC", "RBC")


@dataclass(frozen=True, eq=False)
class DensitySample(MemoMixin):
    """An i.i.d. univariate sample; observations and their range must be finite.

    Observations are stored sorted, which makes every downstream sum
    independent of the input ordering (permutation invariance holds
    exactly, not just to rounding).  The sample memoizes its mean and sd
    (keys ``"mean"`` and ``"sd"``), the x-free inputs of the density
    bandwidth selectors, so every evaluation point reuses them.
    """

    observations: np.ndarray

    def __post_init__(self):
        obs = np.sort(np.asarray(self.observations, dtype=float).ravel())
        if obs.size < 1:
            raise DegenerateSampleError("sample must contain at least one observation")
        if not np.all(np.isfinite(obs)):
            raise ValueError("sample contains non-finite values")
        if not math.isfinite(float(obs[-1]) - float(obs[0])):  # Python floats do not warn
            raise ValueError("sample range overflows")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.size


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric interval with its nominal level and method tag."""

    center: float
    half_width: float
    level: float
    flavor: str  # one of METHODS

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "center": self.center,
            "half_width": self.half_width,
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
        }


def critical_value(alpha: float) -> float:
    """z = Phi^(-1)(1 - alpha/2), the two-sided Normal critical value at level 1 - alpha.

    The intervals and the coverage-error objectives of both estimators are
    evaluated at this z; an alpha outside (0, 1), NaN included, raises
    ValueError.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(ndtri(1.0 - alpha / 2.0))


def interval_triple(
    point: float, bias: float, se_us: float, se_rbc: float, n: int, h: float, alpha: float
) -> tuple:
    """The US, BC and RBC intervals around a point estimate, in METHODS order.

    Half-widths are z * se / sqrt(nh) with z = critical_value(alpha).  US
    is centered at the point estimate; BC and RBC at the point estimate
    minus the bias estimate, BC with the US width and RBC with se_rbc.
    """
    z = critical_value(alpha)
    scale = math.sqrt(n * h)
    center_bc = point - bias
    hw_us = z * se_us / scale
    parts = ((point, hw_us), (center_bc, hw_us), (center_bc, z * se_rbc / scale))
    return tuple(ConfidenceInterval(c, hw, 1.0 - alpha, m) for (c, hw), m in zip(parts, METHODS))


class IntervalTriple:
    """Named access to an ``intervals`` triple that interval_triple built."""

    ci_us = property(lambda self: self.intervals[0])
    ci_bc = property(lambda self: self.intervals[1])
    ci_rbc = property(lambda self: self.intervals[2])


@dataclass(frozen=True)
class DensityInference(IntervalTriple):
    """All point-and-interval output for one evaluation point."""

    x: float
    h: float
    b: float
    rho: float
    kappa: int
    f_hat: float
    bias_hat: float
    se_us: float
    se_rbc: float
    intervals: tuple
    degenerate: bool
    negative_center: bool

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "h": self.h,
            # b = +inf encodes rho = 0 (no correction); JSON has no inf
            "b": self.b if np.isfinite(self.b) else None,
            "rho": self.rho,
            "kappa": self.kappa,
            "f_hat": self.f_hat,
            "bias_hat": self.bias_hat,
            "se_us": self.se_us,
            "se_rbc": self.se_rbc,
            "intervals": [ci.to_dict() for ci in self.intervals],
            "degenerate": self.degenerate,
            "negative_center": self.negative_center,
        }


def _check_bandwidth(h: float, name: str = "h") -> None:
    if not (h > 0) or not np.isfinite(h):
        raise ValueError(f"{name} must be a positive finite number, got {h!r}")


def _check_bias_bandwidth(b: float) -> None:
    # b = +inf encodes rho = h/b = 0, the uncorrected limit
    if not (b > 0) or np.isnan(b):
        raise ValueError(f"b must be positive, got {b!r}")


def density_point_estimate(sample: DensitySample, x: float, h: float, K: KernelSpec) -> float:
    """(n h)^(-1) sum_i K((x - X_i)/h)."""
    _check_bandwidth(h)
    u = (x - sample.observations) / h
    return float(np.sum(K.eval_many(u)) / (sample.n * h))


def density_derivative_estimate(
    sample: DensitySample, x: float, b: float, L: KernelSpec, kappa: int
) -> float:
    """Derivative estimate (n b^(1+kappa))^(-1) sum_i L^(kappa)((x - X_i)/b)."""
    _check_bias_bandwidth(b)
    if np.isinf(b):
        return 0.0
    lk = derivative_part(L, kappa)
    u = (x - sample.observations) / b
    return float(np.sum(lk.eval_many(u)) / (sample.n * b ** (1 + kappa)))


def _fixedn_variance(vals: np.ndarray, h: float) -> float:
    """h^(-1) (mean N^2 - (mean N)^2) from the kernel values N((x - X_i)/h)."""
    # np.add.reduce(v) / v.size is np.mean's arithmetic without its argument handling
    mean_sq = float(np.add.reduce(vals**2) / vals.size)
    sq_mean = float(np.add.reduce(vals) / vals.size) ** 2
    return max(0.0, (mean_sq - sq_mean) / h)


def density_infer(
    sample: DensitySample,
    x: float,
    h: float,
    b: float,
    K: KernelSpec,
    L: KernelSpec,
    kappa: int = 2,
    alpha: float = 0.05,
) -> DensityInference:
    """Assemble the US, BC, and RBC confidence intervals at one point.

    Each kernel is evaluated once over the sample: K((x - X_i)/h) gives
    both f_hat and sigma_US^2, L^(kappa)((x - X_i)/b) the bias estimate
    h^kappa f^(kappa)(x) mu_{K,kappa} (zero for b = +inf), and the induced
    kernel M_rho sigma_RBC^2.  All three intervals use the Normal quantile
    z = critical_value(alpha) and half-widths z * se / sqrt(nh);
    zero-variance windows yield zero-width intervals and set the
    degeneracy flag instead of failing.
    """
    critical_value(alpha)  # an invalid alpha fails before any work
    _check_bandwidth(h)
    f_kappa = density_derivative_estimate(sample, x, b, L, kappa)
    if sample.n < 2:
        raise DegenerateSampleError("variance estimation requires n >= 2")
    rho = 0.0 if np.isinf(b) else h / b
    u = (x - sample.observations) / h
    k_vals = K.eval_many(u)
    f_hat = float(np.sum(k_vals) / (sample.n * h))
    bias_hat = float(h**kappa * f_kappa * K.moment_mu(kappa))
    m_vals = induced_kernel(K, L, kappa, rho).eval_many(u)
    se_us = float(np.sqrt(_fixedn_variance(k_vals, h)))
    se_rbc = float(np.sqrt(_fixedn_variance(m_vals, h)))
    intervals = interval_triple(f_hat, bias_hat, se_us, se_rbc, sample.n, h, alpha)
    return DensityInference(
        x=x,
        h=h,
        b=b,
        rho=rho,
        kappa=kappa,
        f_hat=f_hat,
        bias_hat=bias_hat,
        se_us=se_us,
        se_rbc=se_rbc,
        intervals=intervals,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
        negative_center=(f_hat < 0.0 or intervals[1].center < 0.0),
    )


# ----------------------------------------------------------------------
# generalized jackknife
# ----------------------------------------------------------------------

def _gj_ratio(h1: float, h2: float, K1: KernelSpec, K2: KernelSpec) -> float:
    return (h1**2 * K1.moment_mu(2)) / (h2**2 * K2.moment_mu(2))


def gj_density_estimate(
    sample: DensitySample,
    x: float,
    h1: float,
    h2: float,
    K1: KernelSpec,
    K2: KernelSpec,
) -> float:
    """Bias-nulling combination (f1 - R f2) / (1 - R) of two kernel estimates.

    R = (h1^2 mu_{K1,2}) / (h2^2 mu_{K2,2}) kills the leading bias term
    exactly; R within 1e-12 of one is a degenerate combination and is
    rejected.
    """
    _check_bandwidth(h1, "h1")
    _check_bandwidth(h2, "h2")
    R = _gj_ratio(h1, h2, K1, K2)
    if abs(R - 1.0) <= 1e-12:
        raise ValueError(f"degenerate jackknife combination: R = {R!r}")
    f1 = density_point_estimate(sample, x, h1, K1)
    f2 = density_point_estimate(sample, x, h2, K2)
    return (f1 - R * f2) / (1.0 - R)

