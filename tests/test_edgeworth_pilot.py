"""The linear-time Edgeworth pilot against the dense O(n^2) reference."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from edgeworth_reference import dense_edgeworth_q_hats
from npinfer.bandwidth import _edgeworth_q_hats
from npinfer.errors import SingularDesignError
from npinfer.kernels import kernel
from npinfer.locpoly import RegressionSample, lp_fit

Z = 1.959963984540054
TERMS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "sigma2")
# A1 enters q1 squared over sigma2^3, these over sigma2, the rest over sigma2^2
SIGMA2_SCALED = ("A2", "A4", "A6")


@st.composite
def pilot_cases(draw):
    """A degree-q pilot fit and degree-(q-1) residuals, as dpi_bandwidth_lp builds them.

    The bandwidth puts the k nearest covariates in the window, for k from
    q + 2 up to the whole sample (and beyond, for k = n).  The residuals
    come from the degree-(q-1) fit on the same window.
    """
    n = draw(st.integers(30, 400))
    q = draw(st.sampled_from([2, 3]))
    K = kernel(draw(st.sampled_from(["epanechnikov", "triangular", "uniform"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(3.0 * x) + draw(st.floats(0.1, 3.0)) * rng.standard_normal(n)
    sample = RegressionSample(x, y)
    x0 = draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    k = draw(st.integers(q + 2, n))
    widen = draw(st.floats(1.0, 1.5)) if k == n else 1.0
    h = float(np.sort(np.abs(sample.x_values - x0))[k - 1]) * (1.0 + 1e-9) * widen
    try:
        fit_q = lp_fit(sample, x0, q, h, K)
        eps = lp_fit(sample, x0, q - 1, h, K).residuals
    except SingularDesignError:
        reject()
    return fit_q, eps


def _magnitudes(fit, eps):
    """Sizes of the reference terms before cancellation.

    The reference is rerun on |R|, |G^-1|, |K| and |eps|, which removes the
    cancellation inside every r_i' G^-1 r_j, l0_i and lev_i.  Rounding in
    those products dominates when the window holds few points or G is
    ill-conditioned, and it can leave a term that is zero in exact
    arithmetic (a pair term of a window with q + 1 weighted points) at
    rounding level in both implementations.
    """
    fit_abs = dataclasses.replace(
        fit, basis=np.abs(fit.basis), g_inv=np.abs(fit.g_inv), kvals=np.abs(fit.kvals)
    )
    terms = dense_edgeworth_q_hats(fit_abs, np.abs(eps), Z)[3]
    return {key: abs(val) for key, val in terms.items()}


def _q1_scale(s, mags):
    """Largest term of q1 after its sigma2 scaling; q1 can cancel far below it."""
    parts = [mags["A1"] ** 2 / s**3]
    for key in TERMS[1:-1]:
        parts.append(mags[key] / (s if key in SIGMA2_SCALED else s**2))
    return (1.0 + Z) ** 5 * max(parts)


@settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(pilot_cases())
def test_pilot_matches_dense_reference(case):
    fit, eps = case
    dense = dense_edgeworth_q_hats(fit, eps, Z)
    fast = _edgeworth_q_hats(fit, eps, Z)
    assert (dense is None) == (fast is None)
    if dense is None:
        return
    mags = _magnitudes(fit, eps)
    for key in TERMS:
        assert fast[3][key] == pytest.approx(
            dense[3][key], rel=1e-10, abs=1e-10 * mags[key]
        ), key
    s = dense[3]["sigma2"]
    q1_floor = 1e-10 * _q1_scale(s, mags)
    q3_floor = 1e-10 * Z**3 * mags["A1"] / s**2
    assert fast[0] == pytest.approx(dense[0], rel=1e-10, abs=q1_floor)
    assert fast[1] == pytest.approx(dense[1], rel=1e-10)
    assert fast[2] == pytest.approx(dense[2], rel=1e-10, abs=q3_floor)


def test_pilot_memory_is_linear_in_n():
    # the whole sample in the window, the largest in-window set at this n;
    # one dense n x n float64 array alone would take 128 MB
    rng = np.random.default_rng(41)
    n = 4000
    x = rng.uniform(-1.0, 1.0, n)
    sample = RegressionSample(x, np.sin(3.0 * x) + rng.standard_normal(n))
    K = kernel("epanechnikov")
    fit_q = lp_fit(sample, 0.0, 2, 1.5, K)
    eps = lp_fit(sample, 0.0, 1, 1.5, K).residuals
    assert fit_q.effective_n == n
    tracemalloc.start()
    try:
        result = _edgeworth_q_hats(fit_q, eps, Z)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak < 8 * 2**20, f"pilot peak {peak / 2**20:.1f} MB"
