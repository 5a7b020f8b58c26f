import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from locpoly_reference import (
    reference_g_inv,
    reference_lp_infer,
    reference_nn_weights,
    whole_sample_lp_fit,
)
from npinfer import KernelSpec, kernel, locpoly
from npinfer.errors import (
    DegenerateSampleError,
    LeverageOneError,
    NpinferError,
    SingularDesignError,
)
from npinfer.locpoly import (
    LocPolyFit,
    RegressionSample,
    VarianceMethod,
    lp_fit,
    lp_infer,
    lp_residual_weights,
    lp_variance,
)
from npinfer.simulate import REGRESSION_MODELS, gen_regression_sample

EPA = kernel("epanechnikov")
HC3 = VarianceMethod("hc3")
HC0 = VarianceMethod("hc0")
# K(u) = 2(1 - u) on [0, 1]: a one-sided kernel that looks right of x only
RIGHT = KernelSpec("right-sided", ((Fraction(0), Fraction(1), (Fraction(2), Fraction(-2))),), 1)


def normal_equations_oracle(sample, x, p, h, K):
    """Brute-force weighted normal equations in raw powers of (X - x)."""
    d = sample.x_values - x
    w = K.eval_many(d / h) / h
    R = np.vander(d, N=p + 1, increasing=True)
    A = R.T @ (R * w[:, None])
    bvec = R.T @ (w * sample.y_values)
    beta = np.linalg.solve(A, bvec)
    return beta[0]


def make_sample(rng, n=50, law=(-1.0, 1.0), fn=None, noise=1.0):
    x = rng.uniform(law[0], law[1], size=n)
    y = (fn(x) if fn is not None else np.zeros(n)) + noise * rng.standard_normal(n)
    return RegressionSample(x, y)


class TestFit:
    def test_linear_reproduction(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 30)
        s = RegressionSample(x, 2 * x + 1)
        for x0 in [-0.5, 0.0, 0.7]:
            fit = lp_fit(s, x0, 1, 0.6, EPA)
            assert fit.m_hat == pytest.approx(2 * x0 + 1, rel=1e-12)
            assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_constant_reproduction(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 25)
        s = RegressionSample(x, np.full(25, 3.25))
        for p in [0, 1, 2, 3]:
            assert lp_fit(s, 0.4, p, 0.5, EPA).m_hat == pytest.approx(3.25, rel=1e-13)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = make_sample(rng, n=50, fn=np.sin)
            x0 = rng.uniform(-0.5, 0.5)
            fit = lp_fit(s, x0, 1, 0.5, EPA)
            assert fit.m_hat == pytest.approx(
                normal_equations_oracle(s, x0, 1, 0.5, EPA), rel=1e-10
            )

    def test_beta_parameterization(self):
        # fitting y = 1 + 2(x - x0) + 3(x - x0)^2 recovers those coefficients
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 40)
        x0 = 0.25
        y = 1 + 2 * (x - x0) + 3 * (x - x0) ** 2
        fit = lp_fit(RegressionSample(x, y), x0, 2, 0.8, EPA)
        assert_allclose(fit.beta_hat, [1.0, 2.0, 3.0], rtol=1e-10)

    def test_singular_when_no_distinct_points(self):
        s = RegressionSample([0.0, 0.0, 5.0], [1.0, 2.0, 3.0])
        with pytest.raises(SingularDesignError):
            lp_fit(s, 0.0, 1, 0.5, EPA)

    def test_singular_when_window_empty(self):
        s = RegressionSample([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        with pytest.raises(SingularDesignError):
            lp_fit(s, 0.0, 1, 0.5, EPA)

    def test_effective_n_counts_window(self):
        s = RegressionSample([-0.2, 0.1, 0.9, 3.0], [0.0, 1.0, 2.0, 3.0])
        fit = lp_fit(s, 0.0, 1, 1.0, EPA)
        assert fit.effective_n == 3

    def test_zero_weight_edge_rows_are_not_distinct_covariates(self):
        # X = -1 and 1 sit on the window's edges, where the kernel vanishes
        s = RegressionSample([-1.0, 1.0, 5.0], [0.0, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularDesignError) as exc:
                lp_fit(s, 0.0, 1, 1.0, EPA)
        assert str(exc.value) == (
            "only 0 distinct covariates inside the window at x=0.0 (need 2)"
        )

    def test_one_sided_kernel_window(self):
        # only 0 <= (X - x)/h <= 1 is in the window: X in [0, 0.5]
        x = np.arange(-16, 17) / 16
        fit = lp_fit(RegressionSample(x, x**2), 0.0, 1, 0.5, RIGHT)
        assert fit.effective_n == 9
        rows = np.flatnonzero((x >= 0.0) & (x <= 0.5))
        assert np.array_equal(np.arange(x.size)[fit.window], rows)

    @settings(max_examples=300)
    @given(
        # grid covariates tie with each other and sit exactly on window edges
        xs=st.lists(
            st.one_of(st.integers(-24, 24).map(lambda k: k / 8), st.floats(-3.0, 3.0)),
            min_size=2,
            max_size=40,
        ),
        x=st.one_of(st.integers(-16, 16).map(lambda k: k / 8), st.floats(-3.0, 3.0)),
        h=st.one_of(st.sampled_from([0.125, 0.25, 0.375, 0.5, 1.0]), st.floats(1e-3, 4.0)),
        K=st.sampled_from(["epanechnikov", "triangular", "uniform", "right"]),
    )
    def test_window_is_the_support_mask(self, xs, x, h, K):
        K = RIGHT if K == "right" else kernel(K)
        s = RegressionSample(xs, np.arange(len(xs), dtype=float))
        u = (s.x_values - x) / h
        lo, hi = K.support
        mask = (u >= lo) & (u <= hi)
        try:
            fit = lp_fit(s, x, 0, h, K)
        except SingularDesignError:
            # only rows where the kernel vanishes, or none, are in the mask
            assert not np.any(K.eval_many(u[mask]))
            return
        assert np.array_equal(np.arange(s.n)[fit.window], np.flatnonzero(mask))
        assert fit.effective_n == np.count_nonzero(mask)
        assert [v.hex() for v in fit.u] == [v.hex() for v in u[mask]]

    @settings(max_examples=300)
    @given(
        # tied covariates, signed zeros among them, and grid points on the window's edges
        xs=st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0]),
                st.integers(-24, 24).map(lambda k: k / 8),
                st.floats(-3.0, 3.0),
            ),
            min_size=2,
            max_size=40,
        ),
        x=st.one_of(st.integers(-16, 16).map(lambda k: k / 8), st.floats(-3.0, 3.0)),
        h=st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(1e-2, 4.0)),
        p=st.integers(0, 3),
        K=st.sampled_from(["epanechnikov", "triangular", "uniform", "right"]),
    )
    def test_distinct_count_and_inverse_match_the_library_routines(self, xs, x, h, p, K):
        # np.unique for the distinct count, cho_factor/cho_solve for G^-1, bit for bit
        K = RIGHT if K == "right" else kernel(K)
        s = RegressionSample(xs, np.sin(np.arange(len(xs), dtype=float)))
        u = (s.x_values - x) / h
        lo, hi = K.support
        inside = (u >= lo) & (u <= hi)
        distinct = np.unique(s.x_values[inside & (K.eval_many(u) != 0)]).size
        try:
            fit = lp_fit(s, x, p, h, K)
        except SingularDesignError as exc:
            if distinct < p + 1:
                assert str(exc).startswith(f"only {distinct} distinct covariates")
            else:
                assert str(exc).startswith("scaled design is numerically singular")
            return
        assert distinct >= p + 1
        assert fit.g_inv.tobytes() == reference_g_inv(fit.G).tobytes()

    def test_failed_factorization_raises(self, monkeypatch):
        # cho_factor raised LinAlgError for a nonzero LAPACK info, and so does lp_fit
        class Lapack:
            @staticmethod
            def dpotrf(G, **_kwargs):
                return G, 2

        monkeypatch.setattr(locpoly, "lapack", Lapack)
        with pytest.raises(np.linalg.LinAlgError, match="info=2"):
            lp_fit(make_sample(np.random.default_rng(4), n=60), 0.0, 1, 0.5, EPA)

    def test_overflowing_design_raises_value_error(self):
        # K(0)/h overflows for a subnormal h; cho_factor's finiteness check raised ValueError
        s = RegressionSample(np.linspace(0.0, 1.0, 11), np.arange(11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="scaled design overflows"):
                lp_fit(s, 0.5, 0, 1e-320, EPA)

    def test_g_is_spd(self):
        rng = np.random.default_rng(4)
        s = make_sample(rng, n=60, fn=np.cos)
        fit = lp_fit(s, 0.0, 2, 0.5, EPA)
        assert_allclose(fit.G, fit.G.T, atol=0)
        assert np.all(np.linalg.eigvalsh(fit.G) > 0)


class TestBias:
    def test_zero_for_low_degree_truth(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 50)
        s = RegressionSample(x, 2 * x + 1)
        val = lp_infer(s, 0.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC0).bias_hat
        assert abs(val) < 1e-12

    def test_quadratic_truth_fully_corrected(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 60)
        s = RegressionSample(x, x**2)
        for x0 in [-0.3, 0.0, 0.4]:
            res = lp_infer(s, x0, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC0)
            assert res.m_hat - res.bias_hat == pytest.approx(x0**2, abs=1e-12)

    def test_remark7_point_estimate_collapse(self):
        # q = p+1, K = L, rho = 1: the corrected estimate is the degree-q fit
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = make_sample(rng, n=80, fn=lambda t: np.sin(3 * t), noise=1.0)
            x0 = rng.uniform(-0.9, 0.9)
            h = rng.uniform(0.3, 0.8)
            res = lp_infer(s, x0, 1, 2, h, h, EPA, EPA, 0.05, HC0)
            assert res.m_hat - res.bias_hat == pytest.approx(
                res.fit_q.m_hat, rel=1e-10, abs=1e-12
            )


class TestResidualWeights:
    def test_noise_free_all_zero(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 40)
        s = RegressionSample(x, 1 - x)
        fit = lp_fit(s, 0.0, 1, 0.7, EPA)
        for kind in ["hc0", "hc1", "hc2", "hc3"]:
            v = lp_residual_weights(fit, VarianceMethod(kind), s)
            assert np.max(np.abs(v)) < 1e-24

    def test_nn_direct_substitution(self):
        s = RegressionSample([0.0, 0.1, 5.0], [2.0, 0.0, 9.0])
        fit = lp_fit(s, 0.05, 0, 0.2, EPA)
        v = lp_residual_weights(fit, VarianceMethod("nn", nn_neighbors=1), s)
        i = int(np.flatnonzero(s.y_values == 2.0)[0])
        assert v[i] == pytest.approx(0.5 * (2.0 - 0.0) ** 2, abs=1e-15)

    def test_hc3_dominates_hc0(self):
        rng = np.random.default_rng(9)
        s = make_sample(rng, n=60, fn=np.sin)
        fit = lp_fit(s, 0.0, 1, 0.5, EPA)
        v0 = lp_residual_weights(fit, HC0, s)
        v3 = lp_residual_weights(fit, HC3, s)
        assert np.all(v3 >= v0 - 1e-15)

    def test_out_of_window_zeros(self):
        # out-of-window rows get no estimate at all: one per window row
        rng = np.random.default_rng(10)
        s = make_sample(rng, n=60, fn=np.sin)
        fit = lp_fit(s, 0.0, 1, 0.3, EPA)
        assert fit.effective_n < s.n
        for kind in ["hc0", "hc3", "nn"]:
            v = lp_residual_weights(fit, VarianceMethod(kind), s)
            assert v.shape == (fit.effective_n,)

    def test_leverage_one_raises(self):
        # two in-window points and a degree-1 fit put every leverage at one
        s = RegressionSample([-0.01, 0.01, 9.0, 9.5], [0.0, 1.0, 2.0, 3.0])
        fit = lp_fit(s, 0.0, 1, 0.05, EPA)
        with pytest.raises(LeverageOneError):
            lp_residual_weights(fit, VarianceMethod("hc3"), s)

    def test_nn_tie_break_by_index(self):
        # duplicated covariates: stable order prefers lower index
        s = RegressionSample([0.0, 0.0, 0.0, 1.0], [5.0, 1.0, 3.0, 0.0])
        fit = lp_fit(s, 0.0, 0, 2.0, EPA)
        v = lp_residual_weights(fit, VarianceMethod("nn", nn_neighbors=1), s)
        # sorted sample is x=[0,0,0,1], y=[1,3,5,0]; the first obs (y=1)
        # takes the next tied observation (y=3) as its neighbor
        assert v[0] == pytest.approx(0.5 * (1.0 - 3.0) ** 2)

    def test_nn_needs_more_than_J_observations(self):
        s = RegressionSample([0.0, 0.1, 0.2], [1.0, 2.0, 0.0])
        fit = lp_fit(s, 0.1, 0, 1.0, EPA)
        with pytest.raises(DegenerateSampleError):
            lp_residual_weights(fit, VarianceMethod("nn", nn_neighbors=3), s)

    def test_only_nn_takes_a_window(self):
        s = make_sample(np.random.default_rng(10), n=60, fn=np.sin)
        fit = lp_fit(s, 0.0, 1, 0.3, EPA)
        with pytest.raises(ValueError, match="window"):
            lp_residual_weights(fit, HC3, s, window=fit.window)

    @settings(max_examples=400)
    @given(
        data=st.data(),
        n_extra=st.one_of(st.integers(1, 3), st.integers(4, 60)),
        J=st.one_of(st.integers(1, 5), st.integers(6, 12)),
        # grid covariates give long tie blocks on both sides of a row
        spacing=st.sampled_from([0.0, 0.5, 0.1, None]),
        where=st.sampled_from(["all", "low end", "high end", "middle"]),
    )
    def test_nn_matches_argsort_loop_bit_for_bit(self, data, n_extra, J, spacing, where):
        n = J + n_extra
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if spacing is None:
            x = rng.standard_normal(n)
        elif spacing == 0.0:
            x = np.full(n, 0.1)
        else:
            x = rng.integers(-4, 5, n) * spacing + 0.03
        s = RegressionSample(x, rng.standard_normal(n))
        lo, hi = sorted(data.draw(st.integers(0, n)) for _ in range(2))
        window = {
            "all": slice(0, n),
            "low end": slice(0, hi),
            "high end": slice(lo, n),
            "middle": slice(lo, hi),
        }[where]
        fit = lp_fit(s, 0.0, 0, 1e6, kernel("uniform"))  # any fit: the window replaces its own
        got = lp_residual_weights(fit, VarianceMethod("nn", J), s, window=window)
        want = reference_nn_weights(s, window, J)
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestVariances:
    def test_zero_meat_gives_zero(self):
        rng = np.random.default_rng(11)
        s = make_sample(rng, n=40, fn=np.sin)
        fit = lp_fit(s, 0.0, 1, 0.5, EPA)
        assert lp_variance(fit.weights, np.zeros(fit.effective_n), s.n, fit.h) == 0.0

    def test_rbc_with_rho_zero_equals_us(self):
        # lp_infer takes a finite b, so rho > 0; the bias factor rho^(p+1) c
        # vanishes instead through c = 0: a local constant on a design that is
        # exactly symmetric about x.  The RBC weights are then the US weights,
        # and with NN residuals on a shared window the two sandwiches agree.
        rng = np.random.default_rng(12)
        half = np.arange(1, 9) / 8
        s = RegressionSample(np.concatenate([-half, half]), rng.standard_normal(16))
        res = lp_infer(s, 0.0, 0, 1, 1.0, 1.0, EPA, EPA, 0.05, VarianceMethod("nn", 2))
        assert res.bias_hat == 0.0
        assert np.array_equal(res.weights_rbc, res.fit_p.weights)
        assert res.se_rbc == res.se_us > 0

    def test_conditional_mc_oracle_us(self):
        # fixed design, heteroskedastic truth, 10000 epsilon redraws
        rng = np.random.default_rng(13)
        X = np.sort(rng.uniform(-1, 1, 100))
        sd = 0.5 + np.abs(X)
        h, x0 = 0.45, 0.2
        base = RegressionSample(X, np.zeros_like(X))
        fit = lp_fit(base, x0, 1, h, EPA)
        draws = rng.standard_normal((10000, X.size)) * sd
        m_hats = draws[:, fit.window] @ fit.weights
        mc = X.size * h * np.var(m_hats, ddof=1)
        pop = lp_variance(fit.weights, sd[fit.window] ** 2, X.size, h)
        assert mc == pytest.approx(pop, rel=0.05)

    def test_conditional_mc_oracle_rbc_general_rho(self):
        # pins the rho power in the bias-correction weights
        rng = np.random.default_rng(14)
        X = np.sort(rng.uniform(-1, 1, 100))
        h, b, x0 = 0.4, 0.65, 0.1
        base = RegressionSample(X, np.zeros_like(X))
        res = lp_infer(base, x0, 1, 2, h, b, EPA, EPA, 0.05, HC0)
        w = res.weights_rbc
        draws = rng.standard_normal((20000, X.size))
        stats = draws[:, res.window] @ w
        mc = X.size * h * np.var(stats, ddof=1)
        pop = lp_variance(w, np.ones(w.size), X.size, h)
        assert mc == pytest.approx(pop, rel=0.04)

    def test_remark7_variance_collapse(self):
        rng = np.random.default_rng(15)
        s = make_sample(rng, n=90, fn=lambda t: np.exp(t), noise=0.5)
        h = 0.5
        res = lp_infer(s, 0.0, 1, 2, h, h, EPA, EPA, 0.05, HC3)
        v_q = lp_residual_weights(res.fit_q, HC3, s)
        rbc = lp_variance(res.weights_rbc, v_q, s.n, h)
        us_q = lp_variance(res.fit_q.weights, v_q, s.n, h)
        assert rbc == pytest.approx(us_q, rel=1e-10)


class TestInfer:
    def test_noise_free_linear_degenerate_at_truth(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-1, 1, 50)
        s = RegressionSample(x, 3 * x - 2)
        res = lp_infer(s, 0.2, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        assert res.degenerate
        for ci in res.intervals:
            assert ci.half_width < 1e-10
            assert ci.center == pytest.approx(3 * 0.2 - 2, rel=1e-10)

    def test_boundary_exactness(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, 60)
        s = RegressionSample(x, 1 + 4 * x)
        res = lp_infer(s, 0.0, 1, 2, 0.3, 0.3, EPA, EPA, 0.05, HC3)
        assert res.boundary_flag
        assert res.m_hat == pytest.approx(1.0, rel=1e-10)
        assert res.m_hat - res.bias_hat == pytest.approx(1.0, rel=1e-10)

    def test_boundary_flag_follows_the_support(self):
        # the window [x, x + h] = [-0.8, -0.3] lies inside the data, though
        # [x - h, x + h] would not
        x = np.arange(-16, 17) / 16
        s = RegressionSample(x, np.sin(3 * x) + np.random.default_rng(23).standard_normal(33))
        assert not lp_infer(s, -0.8, 1, 2, 0.5, 0.5, RIGHT, RIGHT, 0.05, HC0).boundary_flag
        assert lp_infer(s, 0.7, 1, 2, 0.5, 0.5, RIGHT, RIGHT, 0.05, HC0).boundary_flag

    def test_interval_structure(self):
        rng = np.random.default_rng(18)
        s = make_sample(rng, n=120, fn=lambda t: np.sin(2 * t))
        res = lp_infer(s, 0.1, 1, 2, 0.4, 0.4, EPA, EPA, 0.05, HC3)
        us, bc, rbc = res.intervals
        assert us.center == res.m_hat
        assert bc.center == rbc.center == res.m_hat - res.bias_hat
        assert bc.half_width == us.half_width
        assert rbc.half_width / bc.half_width == pytest.approx(
            res.se_rbc / res.se_us, rel=1e-14
        )

    def test_affine_equivariance_in_y(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-1, 1, 80)
        y = np.sin(2 * x) + rng.standard_normal(80)
        a, c = -2.5, 4.0
        base = lp_infer(RegressionSample(x, y), 0.2, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        mapped = lp_infer(
            RegressionSample(x, a * y + c), 0.2, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3
        )
        assert mapped.m_hat == pytest.approx(a * base.m_hat + c, rel=1e-12)
        assert mapped.bias_hat == pytest.approx(a * base.bias_hat, rel=1e-12)
        assert mapped.se_us == pytest.approx(abs(a) * base.se_us, rel=1e-12)
        assert mapped.se_rbc == pytest.approx(abs(a) * base.se_rbc, rel=1e-12)

    def test_translation_equivariance_in_x(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(-1, 1, 80)
        y = np.cos(x) + rng.standard_normal(80)
        base = lp_infer(RegressionSample(x, y), 0.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        moved = lp_infer(
            RegressionSample(x + 10.0, y), 10.1, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3
        )
        assert moved.m_hat == pytest.approx(base.m_hat, rel=1e-9)
        assert moved.se_rbc == pytest.approx(base.se_rbc, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 60)
        y = np.sin(x) + rng.standard_normal(60)
        perm = rng.permutation(60)
        a = lp_infer(RegressionSample(x, y), 0.0, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        b = lp_infer(RegressionSample(x[perm], y[perm]), 0.0, 1, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        assert a.m_hat == b.m_hat
        assert a.se_rbc == b.se_rbc

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(22)
        s = make_sample(rng, n=30)
        with pytest.raises(ValueError):
            lp_infer(s, 0.0, 2, 2, 0.5, 0.5, EPA, EPA, 0.05, HC3)
        with pytest.raises(ValueError):
            lp_infer(s, 0.0, 1, 2, 0.5, 0.5, EPA, EPA, 1.2, HC3)


def _outcome(infer, *args):
    try:
        return infer(*args)
    except NpinferError as exc:
        return type(exc), str(exc)


class TestOnePass:
    """lp_infer against the helper chain it replaced (tests/locpoly_reference.py)."""

    @settings(max_examples=300)
    @given(
        points=st.lists(
            st.tuples(
                # grid covariates tie with each other and with window edges
                st.one_of(st.integers(-40, 40).map(lambda k: k / 20), st.floats(-2.0, 2.0)),
                st.floats(-5.0, 5.0),
            ),
            min_size=12,
            max_size=50,
        ),
        x=st.one_of(st.sampled_from([-2.0, 0.0, 2.0]), st.floats(-2.5, 2.5)),
        h=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 4.0)),
        rho=st.one_of(st.sampled_from([0.5, 1.0, 1.3, 2.0]), st.floats(0.3, 3.0)),
        p=st.integers(0, 2),
        extra=st.integers(1, 2),
        # the nonnegative built-ins: a fourth-order kernel makes G indefinite
        K=st.sampled_from(["epanechnikov", "triangular", "uniform"]),
        L=st.sampled_from(["epanechnikov", "triangular", "uniform"]),
        # NN weights are shared between the fits when the windows nest: draw it often
        kind=st.one_of(st.just("nn"), st.sampled_from(VarianceMethod.KINDS)),
        J=st.integers(1, 3),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_matches_helper_chain_bit_for_bit(
        self, points, x, h, rho, p, extra, K, L, kind, J, alpha
    ):
        s = RegressionSample(*np.array(points).T)
        method = VarianceMethod(kind, J)
        args = (s, x, p, p + extra, h, h / rho, kernel(K), kernel(L), alpha, method)
        got, want = _outcome(lp_infer, *args), _outcome(reference_lp_infer, *args)
        if isinstance(want, tuple):
            assert got == want
            return
        fields = ("m_hat", "bias_hat", "se_us", "se_rbc")
        assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]
        bounds = [(ci.lower.hex(), ci.upper.hex()) for ci in got.intervals]
        assert bounds == [(ci.lower.hex(), ci.upper.hex()) for ci in want.intervals]
        assert [w.hex() for w in got.weights_rbc] == [w.hex() for w in want.weights_rbc]
        assert got.window == want.window
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_nn_weights_once_on_a_shared_window(self, rho, monkeypatch):
        # one NN pass over the union of the p- and q-windows serves both
        # sandwiches, whichever window is the wider one
        kinds = []
        real = locpoly.lp_residual_weights

        def counting(fit, method, sample, **kwargs):
            kinds.append(method.kind)
            return real(fit, method, sample, **kwargs)

        monkeypatch.setattr(locpoly, "lp_residual_weights", counting)
        s = make_sample(np.random.default_rng(24), n=200, fn=np.sin)
        lp_infer(s, 0.0, 1, 2, 0.4, 0.4 / rho, EPA, EPA, 0.05, VarianceMethod("nn", 3))
        assert kinds == ["nn"]

    def test_nn_rbc_sandwich_covers_the_p_window(self):
        # at rho = 2 the RBC weights of the 103 p-window rows outside the
        # q-window are the p-weights; their NN estimates enter se_rbc
        s = gen_regression_sample(REGRESSION_MODELS[5], 500, np.random.default_rng(1))
        res = lp_infer(s, 0.0, 1, 2, 0.4, 0.2, EPA, EPA, 0.05, VarianceMethod("nn", 3))
        assert res.window == res.fit_p.window
        assert res.fit_p.effective_n - res.fit_q.effective_n == 103
        v = reference_nn_weights(s, res.window, 3)
        assert res.se_rbc == pytest.approx(6.4166, abs=1e-4)
        assert res.se_rbc == pytest.approx(np.sqrt(lp_variance(res.weights_rbc, v, s.n, 0.4)))


class TestWholeSample:
    """lp_infer against the helper chain run on whole-sample fits, which sum
    over all n rows with zeros outside the window (tests/locpoly_reference.py).

    Summing n_w terms instead of n groups the additions differently, so the
    two may differ by rounding only.
    """

    @pytest.mark.parametrize("kind", VarianceMethod.KINDS)
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x0", [-1.0, -0.75, 0.0, 0.4, 1.0])
    def test_lp_infer_within_rounding(self, kind, rho, x0):
        s = gen_regression_sample(REGRESSION_MODELS[5], 400, np.random.default_rng(3))
        args = (s, x0, 1, 2, 0.4, 0.4 / rho, EPA, EPA, 0.05, VarianceMethod(kind))
        got = lp_infer(*args)
        want = reference_lp_infer(*args, fit=whole_sample_lp_fit)
        assert want.window == slice(0, s.n)
        for f in ("m_hat", "bias_hat", "se_us", "se_rbc"):
            assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=0), f
        for a, b in zip(got.intervals, want.intervals):
            assert (a.lower, a.upper) == pytest.approx((b.lower, b.upper), rel=1e-12, abs=0)
        assert got.boundary_flag == want.boundary_flag == (abs(x0) + 0.4 > 1.0)
        w = want.weights_rbc
        assert not np.any(np.delete(w, np.arange(s.n)[got.window]))
        assert_allclose(got.weights_rbc, w[got.window], rtol=0, atol=1e-12 * np.max(np.abs(w)))


def test_variance_method_parsing():
    assert VarianceMethod("HC3").kind == "hc3"
    assert VarianceMethod("nn", nn_neighbors=5).nn_neighbors == 5
    with pytest.raises(ValueError):
        VarianceMethod("hc9")
    with pytest.raises(ValueError):
        VarianceMethod("nn", nn_neighbors=0)


def test_overflowing_covariate_range_rejected():
    # each value is finite, but 1.5e308 - (-1e308) is not, and nearest-neighbor
    # distances would overflow
    with pytest.raises(ValueError, match="range overflows"):
        RegressionSample([-1e308, 0.0, 1e308, 1.5e308], [0.0, 1.0, 2.0, 3.0])
