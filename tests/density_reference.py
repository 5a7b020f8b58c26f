"""Helper-chain reference for ``density_infer``.

This is the code that ``npinfer.density`` used before ``density_infer``
evaluated each kernel once: the point estimate, the bias estimate and the
two fixed-n variances each re-check their bandwidths and evaluate their
kernel over the whole sample, so K is evaluated twice per call.  It serves
only as the oracle that the one-pass ``density_infer`` is checked against.
"""

from __future__ import annotations

import numpy as np

from npinfer.density import (
    DensityInference,
    DensitySample,
    _check_bandwidth,
    _check_bias_bandwidth,
    density_derivative_estimate,
    density_point_estimate,
    interval_triple,
)
from npinfer.errors import DegenerateSampleError
from npinfer.kernels import KernelSpec, induced_kernel


def density_bias_estimate(
    sample: DensitySample,
    x: float,
    h: float,
    b: float,
    K: KernelSpec,
    L: KernelSpec,
    kappa: int,
) -> float:
    """Plug-in estimate of the leading smoothing bias h^kappa f^(kappa)(x) mu_{K,kappa}."""
    _check_bandwidth(h)
    _check_bias_bandwidth(b)
    fk = density_derivative_estimate(sample, x, b, L, kappa)
    return float(h**kappa * fk * K.moment_mu(kappa))


def _fixedn_variance(sample: DensitySample, x: float, h: float, N: KernelSpec) -> float:
    if sample.n < 2:
        raise DegenerateSampleError("variance estimation requires n >= 2")
    vals = N.eval_many((x - sample.observations) / h)
    mean_sq = float(np.mean(vals**2))
    sq_mean = float(np.mean(vals)) ** 2
    return max(0.0, (mean_sq - sq_mean) / h)


def density_variance_us(sample: DensitySample, x: float, h: float, K: KernelSpec) -> float:
    """Fixed-n variance estimate sigma_US^2 of sqrt(nh) f_hat."""
    _check_bandwidth(h)
    return _fixedn_variance(sample, x, h, K)


def density_variance_rbc(
    sample: DensitySample,
    x: float,
    h: float,
    b: float,
    K: KernelSpec,
    L: KernelSpec,
    kappa: int,
) -> float:
    """Fixed-n variance estimate sigma_RBC^2, with the induced kernel M in place of K."""
    _check_bandwidth(h)
    _check_bias_bandwidth(b)
    rho = 0.0 if np.isinf(b) else h / b
    M = induced_kernel(K, L, kappa, rho)
    return _fixedn_variance(sample, x, h, M)


def reference_density_infer(
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

    All three intervals use the Normal quantile z = Phi^(-1)(1 - alpha/2)
    and half-widths z * se / sqrt(nh); zero-variance windows yield
    zero-width intervals and set the degeneracy flag instead of failing.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    f_hat = density_point_estimate(sample, x, h, K)
    bias_hat = density_bias_estimate(sample, x, h, b, K, L, kappa)
    var_us = density_variance_us(sample, x, h, K)
    var_rbc = density_variance_rbc(sample, x, h, b, K, L, kappa)
    se_us = float(np.sqrt(var_us))
    se_rbc = float(np.sqrt(var_rbc))
    intervals = interval_triple(f_hat, bias_hat, se_us, se_rbc, sample.n, h, alpha)
    return DensityInference(
        x=x,
        h=h,
        b=b,
        rho=0.0 if np.isinf(b) else h / b,
        kappa=kappa,
        f_hat=f_hat,
        bias_hat=bias_hat,
        se_us=se_us,
        se_rbc=se_rbc,
        intervals=intervals,
        degenerate=(se_us == 0.0 or se_rbc == 0.0),
        negative_center=(f_hat < 0.0 or intervals[1].center < 0.0),
    )
