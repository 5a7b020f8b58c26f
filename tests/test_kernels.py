import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kernel_reference import reference_eval_many
from npinfer import (
    DensitySample,
    KernelSpec,
    McConfig,
    TruncatedSupport,
    custom_kernel,
    density_infer,
    gj_equivalent_kernel,
    induced_kernel,
    kernel,
    kernel_names,
    minvar_derivative_kernel,
    run_mc,
)

LEVEL_KERNELS = ["uniform", "triangular", "epanechnikov", "minvar-order4", "mseopt-order4"]
ALL_KERNELS = LEVEL_KERNELS + ["minvar-deriv2", "mseopt-deriv2"]


def _gl_integral(spec, integrand, trunc=None):
    """Integrate ``integrand(u, K(u))`` over the support of ``spec``.

    A 64-node Gauss-Legendre rule is applied on each polynomial piece, so
    it shares no code with the exact ``Fraction`` algebra in ``npinfer``.
    The rule is exact for polynomials of degree up to 127, which covers
    every piecewise-polynomial integrand in this file. What is left is
    float rounding in the nodes, the weights and the sum; it grows with
    the size of the integrand, not with the degree. See ``oracle_approx``.
    """
    lo, hi = spec.support
    if trunc is not None:
        lo, hi = max(lo, trunc.lower), min(hi, trunc.upper)
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    breaks = sorted({float(p[0]) for p in spec.pieces} | {float(p[1]) for p in spec.pieces} | {lo, hi})
    breaks = [b for b in breaks if lo - 1e-15 <= b <= hi + 1e-15]
    for a, b in zip(breaks[:-1], breaks[1:]):
        u = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(w * integrand(u, spec.eval_many(u)))
    return total


def gl_mu(spec, k, trunc=None):
    """Quadrature oracle for mu_k = (-1)^k / k! * int u^k K(u) du."""
    return (-1) ** k / math.factorial(k) * _gl_integral(spec, lambda u, K: u**k * K, trunc)


def gl_theta(spec, k, trunc=None):
    """Quadrature oracle for theta_k = int K(u)^k du."""
    return _gl_integral(spec, lambda u, K: K**k, trunc)


def oracle_approx(oracle):
    """The bound for an exact kernel moment against a quadrature oracle.

    The oracle's rounding error scales with the magnitude of what it sums:
    theta_6 of minvar-deriv2 is about 1.9e4, its integrand reaches
    7.5^6 ~ 1.8e5, and the oracle misses the exact value by ~3.6e-10
    (1.9e-14 relative) whatever the node count. So the bound is relative
    (1e-12) with a 1e-10 floor for values near 0; below |value| = 100 it
    is exactly 1e-10. The worst oracle error over the cases in this file
    is about 1/48 of this bound, while an error in the exact algebra shows
    up as an O(1) relative error.
    """
    return pytest.approx(oracle, rel=1e-12, abs=1e-10)


class TestEval:
    def test_epanechnikov_center(self):
        assert kernel("epanechnikov")(0.0) == 0.75

    def test_outside_support_is_exact_zero(self):
        assert kernel("epanechnikov")(1.5) == 0.0
        assert kernel("epanechnikov")(-1.0001) == 0.0

    def test_minvar_deriv2_center(self):
        assert kernel("minvar-deriv2")(0.0) == -3.75

    def test_triangular_shape(self):
        tri = kernel("triangular")
        for u in [-0.75, -0.2, 0.0, 0.3, 1.0]:
            assert tri(u) == pytest.approx(1 - abs(u), abs=0)

    def test_vectorized_matches_scalar(self):
        spec = kernel("mseopt-order4")
        u = np.linspace(-1.3, 1.3, 57)
        assert_allclose(spec.eval_many(u), [spec(v) for v in u], rtol=0, atol=0)


# ----------------------------------------------------------------------
# the piece-at-a-time evaluator against the per-point piece lookup
# ----------------------------------------------------------------------

_EPA, _TRI, _MSE2 = kernel("epanechnikov"), kernel("triangular"), kernel("mseopt-deriv2")
EVAL_SPECS = (
    [kernel(name).derivative(d) for name in ALL_KERNELS for d in (0, 1, 2)]
    + [induced_kernel(K, _MSE2, 2, rho) for K in (_EPA, _TRI) for rho in (0.0, 0.3, 0.29999999999999993)]
    + [minvar_derivative_kernel(nu) for nu in (2, 4, 6)]
    + [
        gj_equivalent_kernel(_EPA, kernel("uniform"), 0.3, 0.5),
        custom_kernel([Fraction(1, 2), Fraction(3, 10), 0, Fraction(-1, 5)], kappa=2, name="skew"),
    ]
)
eval_specs = st.one_of(
    st.sampled_from(EVAL_SPECS),
    st.builds(
        lambda K, L, rho: induced_kernel(kernel(K), kernel(L), 2, rho),
        st.sampled_from(LEVEL_KERNELS),
        st.sampled_from(ALL_KERNELS),
        st.floats(0.05, 3.0),
    ),
)


@given(spec=eval_specs, draws=st.lists(st.floats(-4.0, 4.0), max_size=40), seed=st.integers(0, 2**32 - 1))
def test_eval_many_matches_per_point_lookup(spec, draws, seed):
    breaks = sorted({float(b) for lo, hi, _ in spec.pieces for b in (lo, hi)})
    edges = [v for b in breaks for v in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]
    u = np.random.default_rng(seed).permutation(edges + [0.0, -0.0, np.inf, -np.inf, np.nan] + draws)
    for points in (u, u[: u.size // 2 * 2].reshape(2, -1), np.array(draws), np.empty(0), np.empty((0, 3))):
        got, expected = spec.eval_many(points), reference_eval_many(spec, points)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestMoments:
    def test_epanechnikov_mu2(self):
        assert kernel("epanechnikov").moment_mu(2) == pytest.approx(0.1, abs=1e-15)

    def test_epanechnikov_mu1_zero(self):
        assert kernel("epanechnikov").moment_mu(1) == 0.0

    def test_uniform_mu2(self):
        assert kernel("uniform").moment_mu(2) == pytest.approx(1 / 6, abs=1e-15)

    def test_epanechnikov_thetas(self):
        epa = kernel("epanechnikov")
        assert epa.moment_theta(2) == pytest.approx(0.6, abs=1e-15)
        assert epa.moment_theta(3) == pytest.approx(27 / 70, abs=1e-15)
        assert epa.moment_theta(4) == pytest.approx(9 / 35, abs=1e-15)

    def test_minvar_deriv2_theta6_exact(self):
        # int_{-1}^{1} (a + b u^2)^6 du with K = -15/4 + 45/4 u^2, expanded
        # binomially; the oracle checks above cannot hold this value to the bit
        a, b = Fraction(-15, 4), Fraction(45, 4)
        exact = sum(math.comb(6, j) * a ** (6 - j) * b**j * Fraction(2, 2 * j + 1) for j in range(7))
        assert exact == Fraction(603703125, 32032)
        assert kernel("minvar-deriv2").moment_theta(6) == float(exact)

    @pytest.mark.parametrize("name", LEVEL_KERNELS)
    def test_level_kernels_integrate_to_one(self, name):
        assert abs(kernel(name).moment_mu(0) - 1.0) < 1e-14

    @pytest.mark.parametrize("name", ALL_KERNELS)
    @pytest.mark.parametrize("j", [1, 3, 5, 7])
    def test_odd_moments_vanish(self, name, j):
        assert abs(kernel(name).moment_mu(j)) < 1e-14

    @pytest.mark.parametrize("name", LEVEL_KERNELS)
    def test_kernel_order(self, name):
        spec = kernel(name)
        for j in range(1, spec.kappa):
            assert abs(spec.moment_mu(j)) < 1e-14
        assert abs(spec.moment_mu(spec.kappa)) > 1e-6

    @pytest.mark.parametrize("name", ALL_KERNELS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_mu_against_quadrature_oracle(self, name, k):
        spec = kernel(name)
        assert spec.moment_mu(k) == oracle_approx(gl_mu(spec, k))

    @pytest.mark.parametrize("name", ALL_KERNELS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_theta_against_quadrature_oracle(self, name, k):
        spec = kernel(name)
        assert spec.moment_theta(k) == oracle_approx(gl_theta(spec, k))

    def test_truncated_odd_moment_survives(self):
        trunc = TruncatedSupport(0.0, 1.0)
        epa = kernel("epanechnikov")
        val = epa.moment_mu(1, trunc)
        assert abs(val) > 1e-3
        assert val == pytest.approx(gl_mu(epa, 1, trunc), abs=1e-12)

    def test_truncated_support_validation(self):
        with pytest.raises(ValueError):
            TruncatedSupport(0.5, 1.0)
        with pytest.raises(ValueError):
            TruncatedSupport(-1.0, 1.5)


class TestDerivative:
    def test_second_derivative_of_epanechnikov(self):
        assert kernel("epanechnikov").derivative(2)(0.5) == -1.5

    def test_zeroth_derivative_is_identity(self):
        spec = kernel("mseopt-order4")
        for u in [-0.9, 0.0, 0.4]:
            assert spec.derivative(0)(u) == spec(u)

    def test_uniform_first_derivative(self):
        assert kernel("uniform").derivative(1)(0.5) == 0.0

    def test_outside_support(self):
        assert kernel("epanechnikov").derivative(1)(2.0) == 0.0

    def test_finite_difference_oracle(self):
        spec = kernel("mseopt-deriv2")
        eps = 1e-6
        for u in [-0.6, -0.1, 0.3, 0.8]:
            fd = (spec(u + eps) - spec(u - eps)) / (2 * eps)
            assert spec.derivative(1)(u) == pytest.approx(fd, abs=1e-5)


class TestInducedKernel:
    def test_minimum_variance_identity(self):
        # uniform K with the minimum-variance second-derivative kernel at
        # rho = 1 reproduces the fourth-order minimum variance kernel
        u = np.linspace(-1, 1, 1001)
        vals = induced_kernel(kernel("uniform"), kernel("minvar-deriv2"), 2, 1.0).eval_many(u)
        target = (3.0 / 8.0) * (3.0 - 5.0 * u**2)
        assert np.max(np.abs(vals - target)) < 1e-12

    def test_rho_zero_returns_k(self):
        epa = kernel("epanechnikov")
        for u in [-0.8, 0.0, 0.3, 0.99]:
            assert induced_kernel(epa, kernel("mseopt-deriv2"), 2, 0.0)(u) == epa(u)

    def test_direct_substitution_at_zero(self):
        val = induced_kernel(kernel("epanechnikov"), kernel("minvar-deriv2"), 2, 1.0)(0.0)
        assert val == pytest.approx(0.75 - 0.1 * (-3.75), abs=1e-15)

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            induced_kernel(kernel("epanechnikov"), kernel("minvar-deriv2"), 2, -0.5)

    def test_level_bias_kernel_is_differentiated(self):
        # a level kernel used as L gets differentiated kappa times
        epa = kernel("epanechnikov")
        m = induced_kernel(epa, epa, 2, 1.0)
        # L'' of epanechnikov is -3/2 on the support
        expected = epa(0.3) - 1.0 * 0.1 * (-1.5)
        assert m(0.3) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_support_scales_with_rho(self, rho):
        m = induced_kernel(kernel("epanechnikov"), kernel("mseopt-deriv2"), 2, rho)
        hi = max(1.0, 1.0 / rho)
        assert m.support == (pytest.approx(-hi), pytest.approx(hi))
        assert m(hi + 1e-9) == 0.0

    @pytest.mark.parametrize("rho", [0.5, 1.0, 1.7])
    def test_induced_moments_vs_quadrature(self, rho):
        m = induced_kernel(kernel("epanechnikov"), kernel("mseopt-deriv2"), 2, rho)
        for k in [2, 3, 4]:
            assert m.moment_theta(k) == oracle_approx(gl_theta(m, k))
        assert m.moment_mu(4) == oracle_approx(gl_mu(m, 4))

    def test_mu4_closed_form(self):
        # mu_{M,4} = mu_{K,4} - rho^{-2} mu_{K,2} mu_{L,2} with
        # mu_{L,2} read off the stored derivative kernel's (kappa+2)-moment
        K = kernel("epanechnikov")
        J = kernel("mseopt-deriv2")
        for rho in [0.5, 1.0, 2.0]:
            m = induced_kernel(K, J, 2, rho)
            expect = K.moment_mu(4) - rho**-2 * K.moment_mu(2) * J.moment_mu(4)
            assert m.moment_mu(4) == pytest.approx(expect, rel=1e-12)


class TestCustomKernels:
    def test_valid_custom(self):
        spec = custom_kernel([0.75, 0, -0.75], kappa=2)
        assert spec(0.2) == pytest.approx(0.75 * (1 - 0.04), abs=1e-15)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            custom_kernel([0.8, 0, -0.75], kappa=2)

    def test_custom_derivative_kernel(self):
        spec = custom_kernel([-3.75, 0, 11.25], kappa=2, derivative_target=2)
        assert spec(0.0) == -3.75

    def test_minvar_derivative_builder_matches_builtin(self):
        built = minvar_derivative_kernel(2)
        ref = kernel("minvar-deriv2")
        u = np.linspace(-1, 1, 101)
        assert_allclose(built.eval_many(u), ref.eval_many(u), atol=1e-12)

    def test_minvar_deriv4_moments(self):
        j4 = minvar_derivative_kernel(4)
        assert j4.moment_mu(0) == pytest.approx(0.0, abs=1e-14)
        assert j4.moment_mu(2) == pytest.approx(0.0, abs=1e-14)
        assert j4.moment_mu(4) == pytest.approx(1.0, abs=1e-14)


def test_kernel_names_and_aliases():
    assert "epanechnikov" in kernel_names()
    assert kernel("EPANECHNIKOV").name == "epanechnikov"
    assert kernel("minvar_deriv2").name == "minvar-deriv2"
    with pytest.raises(ValueError):
        kernel("gaussian")


# ----------------------------------------------------------------------
# cached kernel algebra against a fresh, uncached computation
# ----------------------------------------------------------------------

@st.composite
def shared_specs(draw):
    """A spec as the library hands it out: from ``kernel()``,
    ``minvar_derivative_kernel`` or ``induced_kernel``, all cached."""
    source = draw(st.sampled_from(["builtin", "minvar", "induced"]))
    if source == "builtin":
        return kernel(draw(st.sampled_from(ALL_KERNELS)))
    if source == "minvar":
        return minvar_derivative_kernel(draw(st.sampled_from([2, 4, 6])))
    K = kernel(draw(st.sampled_from(LEVEL_KERNELS)))
    L = kernel(draw(st.sampled_from(ALL_KERNELS)))
    return induced_kernel(K, L, 2, draw(st.floats(0.05, 3.0)))


truncations = st.one_of(
    st.none(),
    st.just(TruncatedSupport(-1.0, 1.0)),
    st.tuples(st.floats(-1.0, 0.0), st.floats(0.0, 1.0))
    .filter(lambda t: t[0] < t[1])
    .map(lambda t: TruncatedSupport(*t)),
)

# every cached KernelSpec result, called as (spec, k, power, trunc)
CACHED_OPS = {
    "moment_mu_exact": lambda spec, k, power, trunc: spec.moment_mu_exact(k, trunc),
    "moment_mu": lambda spec, k, power, trunc: spec.moment_mu(k, trunc),
    "moment_theta": lambda spec, k, power, trunc: spec.moment_theta(k + 1, trunc),
    "power_weighted_integral": lambda spec, k, power, trunc: spec.power_weighted_integral(
        k, power, trunc
    ),
    "derivative": lambda spec, k, power, trunc: spec.derivative(k),
}


def assert_identical(got, expected):
    """Exact for Fractions and specs, bitwise for floats."""
    assert type(got) is type(expected)
    if isinstance(expected, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


@given(
    spec=shared_specs(),
    op=st.sampled_from(sorted(CACHED_OPS)),
    k=st.integers(0, 6),
    power=st.integers(1, 4),
    trunc=truncations,
)
def test_cached_results_match_fresh_spec(spec, op, k, power, trunc):
    # a spec rebuilt from the same fields starts with an empty memo
    fresh = KernelSpec(spec.name, spec.pieces, spec.kappa, spec.derivative_target)
    call = CACHED_OPS[op]
    expected = call(fresh, k, power, trunc)
    for _ in range(2):
        assert_identical(call(spec, k, power, trunc), expected)


class TestCaching:
    def test_aliases_share_one_instance(self):
        assert kernel("epa") is kernel("Epanechnikov")
        assert kernel("minvar_deriv2") is kernel("minvar-deriv2")

    def test_derived_kernels_are_shared(self):
        epa, J = kernel("epanechnikov"), kernel("mseopt-deriv2")
        assert minvar_derivative_kernel(4) is minvar_derivative_kernel(4)
        assert induced_kernel(epa, J, 2, 0.3) is induced_kernel(epa, J, 2, 0.3)
        assert epa.derivative(2) is epa.derivative(2)

    def test_neighbouring_rho_keys_stay_apart(self):
        # h / (h / 0.3) can be 0.29999999999999993, whose exact kernel differs
        K, L = kernel("epanechnikov"), kernel("mseopt-deriv2")
        near = induced_kernel(K, L, 2, 0.29999999999999993)
        assert near.pieces != induced_kernel(K, L, 2, 0.3).pieces

    def test_shared_spec_stays_frozen(self):
        with pytest.raises(FrozenInstanceError):
            kernel("epa").kappa = 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kernel("gaussian"),
            lambda: minvar_derivative_kernel(3),
            lambda: induced_kernel(kernel("epa"), kernel("minvar-deriv2"), 2, -0.5),
            lambda: induced_kernel(kernel("epa"), kernel("minvar-deriv2"), 4, 1.0),
            lambda: kernel("epa").moment_theta(0),
        ],
    )
    def test_errors_are_not_cached(self, call):
        for _ in range(3):
            with pytest.raises(ValueError):
                call()

    def test_equal_custom_kernels_share_a_cache_entry(self):
        coeffs = [Fraction(3, 4), 0, Fraction(-3, 4)]
        a, b = custom_kernel(coeffs, 2), custom_kernel(coeffs, 2)
        assert a is not b and a == b and hash(a) == hash(b)
        L = kernel("mseopt-deriv2")
        induced_kernel.cache_clear()
        first = induced_kernel(a, L, 2, 1.0)
        assert induced_kernel(b, L, 2, 1.0) is first
        assert induced_kernel.cache_info().hits == 1

    def test_equal_hashes_of_unequal_specs_stay_apart(self):
        # the hash skips the coefficients, so equality must tell these apart
        a = custom_kernel([Fraction(3, 4), 0, Fraction(-3, 4)], 2)
        b = custom_kernel([Fraction(1, 2)], 2)
        assert hash(a) == hash(b) and a != b
        L = kernel("mseopt-deriv2")
        assert induced_kernel(a, L, 2, 1.0).pieces != induced_kernel(b, L, 2, 1.0).pieces

    @pytest.mark.parametrize("name", ALL_KERNELS)
    @pytest.mark.parametrize(
        "trunc", [None, TruncatedSupport(-1.0, 1.0), TruncatedSupport(0.0, 1.0), TruncatedSupport(-1.0, 0.3)]
    )
    def test_memoized_floats_are_floats_of_the_exact_values(self, name, trunc):
        spec = kernel(name)
        # a spec rebuilt from the same fields computes the exact values afresh
        exact = KernelSpec(spec.name, spec.pieces, spec.kappa, spec.derivative_target)
        for k in range(9):
            for _ in range(2):  # computed, then read from the memo
                assert spec.moment_mu(k, trunc).hex() == float(exact.moment_mu_exact(k, trunc)).hex()
                for power in range(1, 5):
                    expected = float(exact._integral(k, power, trunc)).hex()
                    assert spec.power_weighted_integral(k, power, trunc).hex() == expected
                if k >= 1:
                    expected = float(exact._integral(0, k, trunc)).hex()
                    assert spec.moment_theta(k, trunc).hex() == expected
            assert ("mu", k, trunc) in spec._memo

    def test_induced_cache_stays_bounded(self):
        # b = h / 0.3 makes h / b one of 0.3 and 0.29999999999999993, and
        # DPI adds rho = 1: a study at rho = 0.3 asks for a few keys only
        induced_kernel.cache_clear()
        config = McConfig(
            estimator="density", model=1, n=100, replications=100, seed=3,
            evaluation_points=(-0.5, 0.0, 0.5, 1.0), bw_rule="dpi", rho=0.3,
        )
        run_mc(config, workers=1)
        assert induced_kernel.cache_info().currsize <= 3
        # a bias bandwidth chosen apart from h gives a new rho on every call
        sample = DensitySample(np.random.default_rng(5).standard_normal(200))
        K, L = kernel("epanechnikov"), kernel("mseopt-deriv2")
        maxsize = induced_kernel.cache_info().maxsize
        for b in np.linspace(0.5, 2.0, 2 * maxsize):
            density_infer(sample, 0.0, 0.4, b, K, L)
        info = induced_kernel.cache_info()
        assert info.misses > 2 * maxsize
        assert info.currsize == maxsize
