"""Pinned BandwidthChoice of every reachable DPI fallback reason.

Each case drives ``dpi_bandwidth_density`` or ``dpi_bandwidth_lp`` into one
fallback (or, for the two ``ok`` cases, through the full coverage-error
solve) and compares the selected value by ``float.hex`` and the whole
diagnostics dict with the values recorded before the two selectors
shared one coverage-error solve.  The two ``ok`` cases were re-recorded
when that solve became closed form: H moved by 3.9e-7 (density) and
4.0e-7 (lp) relative, the golden-section search's error, and the
diagnostics gained ``H_candidates``, the objective's roots in the bracket.  Reasons no data set reaches cheaply are
forced by patching the stage that fails.
"""

import math

import numpy as np
import pytest

from npinfer import DensitySample, bandwidth, kernel
from npinfer.bandwidth import dpi_bandwidth_density, dpi_bandwidth_lp
from npinfer.errors import MonotoneObjectiveError
from npinfer.locpoly import RegressionSample

EPA = kernel("epanechnikov")
MSE2 = kernel("mseopt-deriv2")
inf = math.inf


def _density_sample():
    return DensitySample(np.random.default_rng(4).standard_normal(300))


def _density_at(x):
    return lambda mp: dpi_bandwidth_density(_density_sample(), x, EPA, MSE2, 2, 0.05)


def _density_reference_curvature(mp):
    # x at a root of He_6: the normal-reference f^(6) of the pilot vanishes
    s = _density_sample()
    mu = float(np.mean(s.observations))
    sd = float(np.std(s.observations, ddof=1))
    root = float(np.polynomial.hermite_e.hermeroots([0] * 6 + [1])[3])
    return dpi_bandwidth_density(s, mu + sd * root, EPA, MSE2, 2, 0.05)


def _monotone(*args):
    raise MonotoneObjectiveError("forced")


def _density_monotone(mp):
    mp.setattr(bandwidth, "minimize_ce_objective", _monotone)
    return _density_at(0.0)(mp)


def _uniform_x(seed, n):
    return np.random.default_rng(seed).uniform(-1, 1, n)


def _lp(x, y, at=0.0, boundary=False):
    return dpi_bandwidth_lp(RegressionSample(x, y), at, 1, boundary, EPA)


def _lp_ok(mp):
    x = _uniform_x(22, 300)
    return _lp(x, np.sin(3 * x) + 0.5 * np.random.default_rng(23).standard_normal(300))


def _lp_mse_pilot(mp):
    x = _uniform_x(12, 200)
    return _lp(x, 3 * x + 1)


def _lp_pilot_fit(boundary):
    # noise-free quadratic: the MSE pilot is tiny and its window empty
    def case(mp):
        x = _uniform_x(3, 200)
        return _lp(x, x**2, -0.95 if boundary else 0.0, boundary)
    return case


def _lp_global_pilot(mp):
    # n = 9 serves the degree-4 MSE pilot but not the degree-5 m''' pilot
    x = _uniform_x(1, 9)
    return _lp(x, np.sin(3 * x) + 0.1 * np.random.default_rng(2).standard_normal(9))


def _quadratic_with_orthogonal_noise():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 200)
    V = np.vander(x, 7, increasing=True)
    e = 0.3 * rng.standard_normal(200)
    return x, rng, x**2 + (e - V @ np.linalg.lstsq(V, e, rcond=None)[0])


def _lp_bias_constant(mp):
    # noise orthogonal to degree-6 polynomials: m''' and m'''' fit to zero
    x, _rng, y = _quadratic_with_orthogonal_noise()
    return _lp(x, y)


def _lp_residual_variance(mp):
    # Y is exactly zero on the pilot window, so the pilot residuals are too
    x, rng, _y = _quadratic_with_orthogonal_noise()
    y = np.where(np.abs(x) < 0.5, 0.0, (np.abs(x) - 0.5) * 4 + rng.standard_normal(200))
    return _lp(x, y)


def _lp_non_finite(mp):
    real = bandwidth._edgeworth_q_hats
    mp.setattr(bandwidth, "_edgeworth_q_hats", lambda *a: (inf,) + real(*a)[1:])
    return _lp_ok(mp)


def _lp_monotone(mp):
    mp.setattr(bandwidth, "minimize_ce_objective", _monotone)
    return _lp_ok(mp)


CASES = {
    "density-ok": _density_at(0.0),
    "density-reference-curvature": _density_reference_curvature,
    "density-reference-curvature-silverman": _density_at(40.0),
    "density-pilot-vanished": _density_at(6.0),
    "density-monotone": _density_monotone,
    "lp-ok": _lp_ok,
    "lp-mse-pilot": _lp_mse_pilot,
    "lp-pilot-fit": _lp_pilot_fit(False),
    "lp-pilot-fit-boundary": _lp_pilot_fit(True),
    "lp-global-pilot": _lp_global_pilot,
    "lp-residual-variance": _lp_residual_variance,
    "lp-bias-constant": _lp_bias_constant,
    "lp-non-finite": _lp_non_finite,
    "lp-monotone": _lp_monotone,
}

PINS = {
    'density-monotone': (
        '0x1.c4357ab33fd0bp-1',
        {'h_mse': 0.8832205146608499, 'exponent': 0.0, 'context': 'density', 'pilot': 'minvar-derivative-kernel, normal-reference MSE bandwidth', 'pilot_bandwidth': 1.820086643293135, 'f_deriv_hat': 0.6435833085666295, 'objective_coeffs': [-3.042755750411729, -2.556739901561829e-06, -0.005935713167666253], 'objective_exponents': [-1, 9, 4], 'fallback': True, 'fallback_reason': 'objective monotone on the search bracket'},
    ),
    'density-ok': (
        '0x1.a6db5be6eb5cbp-1',
        {'pilot': 'minvar-derivative-kernel, normal-reference MSE bandwidth', 'pilot_bandwidth': 1.820086643293135, 'f_deriv_hat': 0.6435833085666295, 'objective_coeffs': [-3.042755750411729, -2.556739901561829e-06, -0.005935713167666253], 'objective_exponents': [-1, 9, 4], 'H': 2.5843282908665928, 'H_candidates': [], 'objective_value': 1.4553010040104137},
    ),
    'density-pilot-vanished': (
        '0x1.a6c57944d7b58p+2',
        {'h_mse': 6.605802838544001, 'exponent': 0.0, 'context': 'density', 'pilot': 'minvar-derivative-kernel, normal-reference MSE bandwidth', 'pilot_bandwidth': 2.1678754325734624, 'f_deriv_hat': 0.0, 'fallback': True, 'fallback_reason': 'estimated f^(kappa+2) vanished'},
    ),
    'density-reference-curvature': (
        '0x1.1af7127fe5120p+0',
        {'h_mse': 1.1053325235598734, 'exponent': 0.0, 'context': 'density', 'pilot': 'minvar-derivative-kernel, normal-reference MSE bandwidth', 'fallback': True, 'fallback_reason': 'reference curvature for the derivative pilot vanished'},
    ),
    'density-reference-curvature-silverman': (
        '0x1.8242339f5645bp-1',
        {'sigma': 1.0088267625033662, 'pilot': 'minvar-derivative-kernel, normal-reference MSE bandwidth', 'fallback': True, 'fallback_reason': 'reference curvature for the derivative pilot vanished; rot undefined, used silverman'},
    ),
    'lp-bias-constant': (
        '0x1.4129f692673a4p-2',
        {'boundary': False, 'h_mse': 0.31363663929533403, 'q_hats': {'q1': 6366.102563753773, 'q2': -12.47530870268997, 'q3': -696.7924735840191}, 'eta_bc': -1.2889048086013237e-16, 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'plug-in bias constant vanished'},
    ),
    'lp-global-pilot': (
        '0x1.2dd375400e275p+0',
        {'boundary': False, 'h_mse': 1.17900784314966, 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'global derivative pilot failed: need n > 9 observations for k = 3'},
    ),
    'lp-monotone': (
        '0x1.222d31a6abcebp-1',
        {'boundary': False, 'h_mse': 0.5667510524707756, 'q_hats': {'q1': 22.975692056821103, 'q2': -2.9341844063930766, 'q3': 0.7059788923362297}, 'eta_bc': 0.027569629593728804, 'objective_coeffs': [22.975692056821103, -0.002230228016831125, 0.0194635765627008], 'objective_exponents': [-1, 9, 4], 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'objective monotone on the search bracket'},
    ),
    'lp-mse-pilot': (
        '0x1.fcd3b1df571e3p-2',
        {'boundary': False, 'fallback': True, 'fallback_reason': 'mse pilot failed: pilot m^(2)(0.0) vanishes; MSE bandwidth undefined', 'pilot': 'scale'},
    ),
    'lp-non-finite': (
        '0x1.222d31a6abcebp-1',
        {'boundary': False, 'h_mse': 0.5667510524707756, 'q_hats': {'q1': inf, 'q2': -2.9341844063930766, 'q3': 0.7059788923362297}, 'eta_bc': 0.027569629593728804, 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'non-finite objective coefficients'},
    ),
    'lp-ok': (
        '0x1.9fc96bbf21e49p-1',
        {'boundary': False, 'h_mse': 0.5667510524707756, 'q_hats': {'q1': 22.975692056821103, 'q2': -2.9341844063930766, 'q3': 0.7059788923362297}, 'eta_bc': 0.027569629593728804, 'objective_coeffs': [22.975692056821103, -0.002230228016831125, 0.0194635765627008], 'objective_exponents': [-1, 9, 4], 'H': 2.54111890949308, 'H_candidates': [2.54111890949308]},
    ),
    'lp-pilot-fit': (
        '0x1.6b5756251bc6bp-22',
        {'boundary': False, 'h_mse': 3.3838782293507677e-07, 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'pilot fit failed: only 0 distinct covariates inside the window at x=0.0 (need 2)'},
    ),
    'lp-pilot-fit-boundary': (
        '0x1.32dafe65594e8p-21',
        {'boundary': True, 'h_mse': 7.449299895245999e-07, 'exponent': -0.05, 'context': 'lp-boundary', 'fallback': True, 'fallback_reason': 'pilot fit failed: only 0 distinct covariates inside the window at x=-0.95 (need 2)'},
    ),
    'lp-residual-variance': (
        '0x1.b0c3f3e26ecbbp-2',
        {'boundary': False, 'h_mse': 0.42262250012909036, 'exponent': 0.0, 'context': 'lp-interior', 'fallback': True, 'fallback_reason': 'pilot residual variance vanished'},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dpi_choice_pinned(name, monkeypatch):
    bw = CASES[name](monkeypatch)
    value, diagnostics = PINS[name]
    assert bw.rule == "dpi"
    assert bw.value.hex() == value
    assert bw.diagnostics == diagnostics
