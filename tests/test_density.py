import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from density_reference import reference_density_infer
from npinfer import (
    DensitySample,
    KernelSpec,
    density_derivative_estimate,
    density_infer,
    density_point_estimate,
    gj_density_estimate,
    gj_equivalent_kernel,
    induced_kernel,
    kernel,
    kernel_names,
)

EPA = kernel("epanechnikov")
UNI = kernel("uniform")
MSE2 = kernel("mseopt-deriv2")


def piecewise_quad(spec, f):
    """Integrate spec(u) * f(u) piece by piece with adaptive quadrature."""
    total = 0.0
    for lo, hi, _ in spec.pieces:
        val, _err = quad(lambda u: spec(u) * f(u), float(lo), float(hi), limit=200)
        total += val
    return total


class TestPointEstimate:
    def test_single_observation_at_point(self):
        s = DensitySample(np.array([0.0]))
        assert density_point_estimate(s, 0.0, 1.0, EPA) == 0.75

    def test_empty_window(self):
        s = DensitySample(np.array([5.0, 6.0, 7.0]))
        assert density_point_estimate(s, 0.0, 1.0, EPA) == 0.0

    def test_uniform_two_points(self):
        s = DensitySample(np.array([-0.5, 0.5]))
        assert density_point_estimate(s, 0.0, 1.0, UNI) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_bandwidth(self):
        s = DensitySample(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            density_point_estimate(s, 0.0, 0.0, EPA)
        with pytest.raises(ValueError):
            density_point_estimate(s, 0.0, -1.0, EPA)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        a = density_point_estimate(DensitySample(x), 0.1, 0.7, EPA)
        b = density_point_estimate(DensitySample(x[::-1].copy()), 0.1, 0.7, EPA)
        assert a == b

    def test_sample_compares_and_hashes_by_identity(self):
        # an ndarray field has no truth value, so samples compare like RegressionSample
        x = np.array([0.3, -1.2, 0.5])
        a, b = DensitySample(x), DensitySample(x)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_overflowing_range_rejected(self):
        # each value is finite, but the spread a bandwidth rule measures is not
        with pytest.raises(ValueError, match="range overflows"):
            DensitySample([-1e308, 0.0, 1e308, 1.5e308])


class TestBiasEstimate:
    def test_direct_substitution(self):
        # L = Epanechnikov as a level kernel: L'' is -3/2 on the support
        s = DensitySample(np.array([-0.5, 0.5]))
        val = density_infer(s, 0.0, 1.0, 1.0, EPA, EPA, 2).bias_hat
        assert val == pytest.approx(0.1 * (-1.5), abs=1e-15)

    def test_empty_window(self):
        s = DensitySample(np.array([5.0, -7.0]))
        assert density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2).bias_hat == 0.0

    def test_scaling_halves_bias(self):
        # doubling data, x, h, b multiplies the bias estimate by 2^kappa * 2^(-1-kappa) = 1/2
        rng = np.random.default_rng(11)
        x = rng.normal(size=60)
        b1 = density_infer(DensitySample(x), 0.2, 0.8, 0.8, EPA, MSE2, 2).bias_hat
        b2 = density_infer(DensitySample(2 * x), 0.4, 1.6, 1.6, EPA, MSE2, 2).bias_hat
        assert b2 == pytest.approx(0.5 * b1, rel=1e-12)

    def test_bias_constant_sign_quadrature_oracle(self):
        # E[f_hat - bias_hat] - f at x = 0 for standard normal data behaves
        # like h^4 mu_{M,4} f''''(0); pins the sign of the induced moment
        M = induced_kernel(EPA, MSE2, 2, 1.0)
        h = 0.1
        exact_bias = piecewise_quad(M, lambda u: norm.pdf(-u * h)) - norm.pdf(0.0)
        predicted = h**4 * M.moment_mu(4) * 3.0 * norm.pdf(0.0)
        assert exact_bias == pytest.approx(predicted, rel=0.05)


class TestVariance:
    def test_all_outside_window(self):
        s = DensitySample(np.array([5.0, 9.0]))
        assert density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2).se_us == 0.0

    def test_symmetric_pair_zero_variance(self):
        s = DensitySample(np.array([-0.5, 0.5]))
        assert density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2).se_us == 0.0

    def test_rbc_with_rho_zero_equals_us(self):
        rng = np.random.default_rng(3)
        s = DensitySample(rng.normal(size=100))
        res = density_infer(s, 0.0, 0.5, np.inf, EPA, MSE2, 2)
        assert res.se_rbc == res.se_us

    def test_rejects_single_observation(self):
        from npinfer import DegenerateSampleError

        s = DensitySample(np.array([0.0]))
        with pytest.raises(DegenerateSampleError):
            density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2)

    def test_population_variance_oracle(self):
        # nh Var(f_hat(0)) over 5000 replications of n = 500 standard
        # normal draws vs the fixed-n population formula by quadrature
        n, reps, h = 500, 5000, 0.5
        rng = np.random.default_rng(20240517)
        draws = rng.standard_normal((reps, n))
        kvals = EPA.eval_many(-draws / h)
        f_hats = kvals.sum(axis=1) / (n * h)
        mc = n * h * np.var(f_hats, ddof=1)
        e_k = piecewise_quad(EPA, lambda u: norm.pdf(-u * h))
        e_k2 = sum(
            quad(lambda u: EPA(u) ** 2 * norm.pdf(-u * h), float(lo), float(hi))[0]
            for lo, hi, _ in EPA.pieces
        )
        population = e_k2 - h * e_k**2
        assert mc == pytest.approx(population, rel=0.05)


class TestInfer:
    def test_critical_value(self):
        from scipy.special import ndtri

        assert ndtri(0.975) == pytest.approx(1.95996, abs=1e-5)

    def test_interval_structure(self):
        rng = np.random.default_rng(5)
        s = DensitySample(rng.normal(size=300))
        res = density_infer(s, 0.0, 0.4, 0.4, EPA, MSE2, 2, 0.05)
        us, bc, rbc = res.intervals
        assert us.center == res.f_hat
        assert bc.center == rbc.center == res.f_hat - res.bias_hat
        assert bc.half_width == us.half_width
        if res.se_us > 0:
            assert rbc.half_width / bc.half_width == pytest.approx(
                res.se_rbc / res.se_us, rel=1e-14
            )
        assert not res.degenerate

    def test_degenerate_window_flagged(self):
        # two symmetric observations give one repeated kernel value
        s = DensitySample(np.array([-0.5, 0.5]))
        res = density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2, 0.05)
        assert res.degenerate
        assert res.ci_us.half_width == 0.0
        assert res.ci_us.lower == res.ci_us.upper == res.f_hat

    def test_rejects_bad_alpha(self):
        s = DensitySample(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            density_infer(s, 0.0, 1.0, 1.0, EPA, MSE2, 2, 1.5)

    def test_location_scale_equivariance(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=120)
        s = DensitySample(x)
        base = density_infer(s, 0.3, 0.5, 0.6, EPA, MSE2, 2, 0.05)

        shifted = density_infer(DensitySample(x + 2.5), 2.8, 0.5, 0.6, EPA, MSE2, 2, 0.05)
        assert shifted.f_hat == pytest.approx(base.f_hat, rel=1e-12)
        assert shifted.bias_hat == pytest.approx(base.bias_hat, rel=1e-12)
        assert shifted.se_us == pytest.approx(base.se_us, rel=1e-12)
        assert shifted.se_rbc == pytest.approx(base.se_rbc, rel=1e-12)

        c = 3.0
        scaled = density_infer(
            DensitySample(c * x), c * 0.3, c * 0.5, c * 0.6, EPA, MSE2, 2, 0.05
        )
        # densities scale as 1/c, (nh)-scaled variances as 1/c, so the
        # interval half-widths z*se/sqrt(nh) scale as 1/c as well
        assert scaled.f_hat == pytest.approx(base.f_hat / c, rel=1e-12)
        assert scaled.bias_hat == pytest.approx(base.bias_hat / c, rel=1e-12)
        assert scaled.se_us**2 == pytest.approx(base.se_us**2 / c, rel=1e-12)
        assert scaled.se_rbc**2 == pytest.approx(base.se_rbc**2 / c, rel=1e-12)
        assert scaled.ci_us.half_width == pytest.approx(
            base.ci_us.half_width / c, rel=1e-12
        )
        assert scaled.ci_rbc.half_width == pytest.approx(
            base.ci_rbc.half_width / c, rel=1e-12
        )

    def test_corrected_estimate_equals_induced_kernel_average(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=80)
        s = DensitySample(x)
        h, b = 0.5, 0.7
        res = density_infer(s, 0.1, h, b, EPA, MSE2, 2, 0.05)
        M = induced_kernel(EPA, MSE2, 2, h / b)
        direct = float(np.sum(M.eval_many((0.1 - x) / h)) / (s.n * h))
        assert res.f_hat - res.bias_hat == pytest.approx(direct, rel=1e-12)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(314)
        x = rng.standard_normal(800)
        s = DensitySample(x)
        h = 0.35
        grid = np.arange(-5.0, 5.0, h / 10)
        vals = np.array([density_point_estimate(s, g, h, EPA) for g in grid])
        integral = np.trapezoid(vals, grid)
        assert 0.99 <= integral <= 1.01


class TestOnePass:
    """density_infer against the helper chain it replaced (tests/density_reference.py)."""

    @given(
        values=st.lists(
            # quarter-grid values tie with each other and with kernel edges
            st.one_of(st.integers(-12, 12).map(lambda k: k / 4), st.floats(-3.0, 3.0)),
            min_size=2,
            max_size=60,
        ),
        x=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-6.0, 6.0)),
        h=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 2.0)),
        b=st.one_of(st.just(math.inf), st.sampled_from([0.25, 1.0]), st.floats(0.05, 3.0)),
        K=st.sampled_from([k for k in kernel_names() if kernel(k).derivative_target == 0]),
        L=st.sampled_from(["mseopt-deriv2", "minvar-deriv2", "epanechnikov"]),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
    )
    def test_matches_helper_chain_bit_for_bit(self, values, x, h, b, K, L, alpha):
        s = DensitySample(np.array(values))
        args = (s, x, h, b, kernel(K), kernel(L), 2, alpha)
        got, want = density_infer(*args), reference_density_infer(*args)
        fields = ("f_hat", "bias_hat", "se_us", "se_rbc")
        assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]
        bounds = [(ci.lower.hex(), ci.upper.hex()) for ci in got.intervals]
        assert bounds == [(ci.lower.hex(), ci.upper.hex()) for ci in want.intervals]
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("b,calls", [(0.7, 3), (math.inf, 2)])
    def test_each_kernel_evaluated_once(self, b, calls, monkeypatch):
        # K serves f_hat and sigma_US, L^(kappa) the bias, M sigma_RBC;
        # b = +inf drops the bias term and with it L^(kappa)
        evaluated = []
        real = KernelSpec.eval_many

        def counting(self, u):
            evaluated.append(self.name)
            return real(self, u)

        monkeypatch.setattr(KernelSpec, "eval_many", counting)
        s = DensitySample(np.random.default_rng(8).normal(size=200))
        density_infer(s, 0.1, 0.5, b, EPA, MSE2, 2, 0.05)
        assert len(evaluated) == calls


class TestGeneralizedJackknife:
    def test_degenerate_ratio_rejected(self):
        s = DensitySample(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            gj_density_estimate(s, 0.0, 1.0, 1.0, EPA, EPA)

    def test_single_point_value(self):
        s = DensitySample(np.array([0.0]))
        val = gj_density_estimate(s, 0.0, 1.0, 2.0, EPA, EPA)
        assert val == pytest.approx(0.875, abs=1e-15)

    @pytest.mark.parametrize("pair", [(1.0, 2.0), (0.8, 0.5), (0.6, 0.9)])
    def test_equivalent_kernel_path(self, pair):
        h1, h2 = pair
        rng = np.random.default_rng(2718)
        for _ in range(100):
            x = rng.normal(size=200)
            s = DensitySample(x)
            direct = gj_density_estimate(s, 0.2, h1, h2, EPA, UNI)
            M = gj_equivalent_kernel(EPA, UNI, h1, h2)
            viakernel = float(np.sum(M.eval_many((x - 0.2) / h1)) / (s.n * h1))
            assert direct == pytest.approx(viakernel, rel=1e-10)
