import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

import npinfer
from npinfer import simulate
from npinfer.errors import ConfigError, NpinferError
from npinfer.simulate import (
    DENSITY_MODELS,
    REGRESSION_MODELS,
    DensityModel,
    McConfig,
    RegressionModel,
    bandwidth_grid_sweep,
    curve_rows,
    gen_density_sample,
    gen_regression_sample,
    replication_rng,
    run_mc,
)


def report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


class TestModels:
    def test_density_model_means(self):
        rng = replication_rng(11, 0)
        m1 = gen_density_sample(DENSITY_MODELS[1], 10**6, rng).observations.mean()
        assert abs(m1) < 0.005
        rng = replication_rng(11, 1)
        m3 = gen_density_sample(DENSITY_MODELS[3], 10**6, rng).observations.mean()
        assert abs(m3) < 0.01
        rng = replication_rng(11, 2)
        m4 = gen_density_sample(DENSITY_MODELS[4], 10**6, rng).observations.mean()
        assert DENSITY_MODELS[4].mean == pytest.approx(0.375, abs=1e-15)
        assert abs(m4 - 0.375) < 0.01

    def test_density_model_pdf_integrates(self):
        from scipy.integrate import quad

        for model in DENSITY_MODELS.values():
            val = quad(model.density, -12, 12, limit=200)[0]
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            DensityModel(9, ((0.5, 0.0, 1.0),))
        with pytest.raises(ValueError):
            DensityModel(9, ((1.0, 0.0, -1.0),))

    def test_regression_model_values(self):
        assert REGRESSION_MODELS[5].m(np.asarray(0.0)) == 0.0
        assert float(REGRESSION_MODELS[2].m(np.asarray(-2 / 3))) == pytest.approx(
            -4 / 3, abs=1e-9
        )

    def test_unit_noise_variance(self):
        rng = replication_rng(12, 0)
        s = gen_regression_sample(REGRESSION_MODELS[5], 200000, rng)
        eps = s.y_values - REGRESSION_MODELS[5].m(s.x_values)
        assert np.var(eps) == pytest.approx(1.0, abs=0.02)

    def test_x_law_override(self):
        rng = replication_rng(13, 0)
        s = gen_regression_sample(REGRESSION_MODELS[5], 5000, rng, x_law=(0.0, 1.0))
        assert s.x_values.min() >= 0.0
        assert s.x_values.max() <= 1.0


class TestDeterminism:
    def test_identical_bytes_across_worker_counts(self):
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=100,
            replications=16,
            evaluation_points=(0.0, 0.5),
            bw_rule="dpi",
            seed=314,
        )
        b1 = report_bytes(run_mc(cfg, workers=1))
        b2 = report_bytes(run_mc(cfg, workers=2))
        assert b1 == b2

    def test_substreams_depend_on_rep_only(self):
        a = replication_rng(7, 3).integers(0, 2**32, 5)
        b = replication_rng(7, 3).integers(0, 2**32, 5)
        c = replication_rng(7, 4).integers(0, 2**32, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_differ(self):
        cfg = McConfig(
            estimator="density",
            model=1,
            n=80,
            replications=8,
            evaluation_points=(0.0,),
            bw_rule="silverman",
            seed=1,
        )
        r1 = report_bytes(run_mc(cfg))
        r2 = report_bytes(run_mc(replace(cfg, seed=2)))
        assert r1 != r2


class TestEngine:
    def test_full_line_oracle_covers_everything(self, monkeypatch):
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=50,
            replications=12,
            evaluation_points=(0.0,),
            bw_rule="fixed",
            fixed_h=0.4,
            seed=5,
        )

        def whole_line(config, rep):
            ivals = tuple((0.0, math.inf) for _ in range(3))
            return [(0, 0.4, ivals) for _ in config.evaluation_points]

        monkeypatch.setattr(simulate, "_one_replication", whole_line)
        report = run_mc(cfg)
        assert report.coverage["US"] == [1.0]
        assert report.coverage["RBC"] == [1.0]

    def test_noise_free_linear_model_degenerate_exactness(self):
        REGRESSION_MODELS[99] = RegressionModel(99, lambda x: 2 * x + 1, noise_sd=0.0)
        try:
            cfg = McConfig(
                estimator="lpreg",
                model=99,
                n=60,
                replications=10,
                evaluation_points=(0.2,),
                bw_rule="fixed",
                fixed_h=0.5,
                seed=8,
            )
            report = run_mc(cfg)
        finally:
            del REGRESSION_MODELS[99]
        for m in ("US", "BC", "RBC"):
            assert report.coverage[m] == [1.0]
            assert report.mean_length[m] == [0.0]
            assert report.degenerate[m] == [10]

    def test_nominal_oracle_self_test(self, monkeypatch):
        # an interval built from the true sampling distribution of a
        # Normal pivot must cover at the nominal rate up to MC noise
        alpha, reps = 0.10, 4000
        z = ndtri(1 - alpha / 2)
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=10,
            replications=reps,
            evaluation_points=(0.0,),
            alpha=alpha,
            bw_rule="fixed",
            fixed_h=0.5,
            seed=21,
        )
        truth = 0.0
        sd = 1.3

        def oracle(config, rep):
            rng = replication_rng(config.seed, rep)
            center = truth + sd * float(ndtri(rng.integers(1, 2**53) / 2**53))
            ivals = tuple((center, z * sd) for _ in range(3))
            return [(0, 0.5, ivals)]

        monkeypatch.setattr(simulate, "_one_replication", oracle)
        report = run_mc(cfg)
        mc_se = math.sqrt(alpha * (1 - alpha) / reps)
        assert abs(report.coverage["US"][0] - (1 - alpha)) <= 3 * mc_se

    def test_failures_excluded_from_denominator(self, monkeypatch):
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=40,
            replications=10,
            evaluation_points=(0.0,),
            bw_rule="fixed",
            fixed_h=0.4,
            seed=9,
        )

        def flaky(config, rep):
            if rep % 2 == 0:
                return [(1, 0.4, None)]  # singular
            return [(0, 0.4, tuple((0.0, math.inf) for _ in range(3)))]

        monkeypatch.setattr(simulate, "_one_replication", flaky)
        report = run_mc(cfg)
        assert report.singular_failures == (5,)
        assert report.used_replications == (5,)
        assert report.coverage["US"] == [1.0]

    def test_bandwidth_failure_counted(self):
        # evaluation far outside the data makes every pilot degenerate
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=60,
            replications=4,
            evaluation_points=(25.0,),
            bw_rule="mse",
            seed=10,
        )
        report = run_mc(cfg)
        assert report.bandwidth_failures[0] + report.singular_failures[0] == 4
        assert report.coverage["US"] == [None]

    def test_paper_scale_no_failures(self):
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=500,
            replications=6,
            evaluation_points=(-1 / 3, 0.0),
            bw_rule="dpi",
            seed=77,
        )
        report = run_mc(cfg)
        assert report.singular_failures == (0, 0)
        assert report.bandwidth_failures == (0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(
                estimator="lpreg", model=5, n=100, replications=0,
                evaluation_points=(0.0,),
            )
        with pytest.raises(ValueError):
            McConfig(
                estimator="lpreg", model=5, n=100, replications=5,
                evaluation_points=(0.0,), bw_rule="fixed",
            )
        with pytest.raises(ValueError):
            McConfig(
                estimator="density", model=9, n=100, replications=5,
                evaluation_points=(0.0,),
            )
        with pytest.raises(ValueError):
            McConfig(
                estimator="lpreg", model=5, n=100, replications=5,
                evaluation_points=(0.0,), rho=0.0,
            )


def _lpreg_config(**overrides):
    settings = dict(
        estimator="lpreg", model=5, n=100, replications=5, evaluation_points=(0.0,)
    )
    settings.update(overrides)
    return McConfig(**settings)


def _shut_down_pool():
    if simulate._POOL is not None:
        simulate._POOL[1].shutdown(wait=True)
        simulate._POOL = None


@pytest.fixture
def no_pool():
    """Start the test with no process pool and shut down the one it leaves
    (a shut-down pool must not be restored into the cache)."""
    _shut_down_pool()
    yield
    _shut_down_pool()


def _pid(config, rep):
    return os.getpid()


def _exit_worker(config, rep):
    os._exit(3)


def _worker_pids(workers, rep_fn=_pid):
    return set(simulate._run_replications(_lpreg_config(replications=8), rep_fn, workers))


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestProcessPool:
    def test_consecutive_calls_run_on_the_same_workers(self, no_pool):
        first = _worker_pids(2)
        workers = _children()
        second = _worker_pids(2)
        assert len(workers) == 2
        assert first | second <= workers
        assert _children() == workers

    def test_repeated_pooled_reports_equal_the_one_worker_report(self, no_pool):
        cfg = _lpreg_config(replications=8, evaluation_points=(0.0, 0.5), seed=17)
        want = report_bytes(run_mc(cfg, workers=1))
        assert [report_bytes(run_mc(cfg, workers=2)) for _ in range(3)] == [want] * 3

    def test_another_worker_count_replaces_the_pool(self, no_pool):
        _worker_pids(2)
        old = _children()
        assert _worker_pids(3) <= _children()
        assert len(old) == 2 and len(_children()) == 3
        assert not old & _children()
        assert not any(_alive(pid) for pid in old)

    def test_a_broken_pool_fails_its_call_and_the_next_call_gets_a_new_one(self, no_pool):
        with pytest.raises(BrokenProcessPool):
            _worker_pids(2, _exit_worker)
        assert _worker_pids(2) <= _children()
        assert len(_children()) == 2

    def test_no_worker_outlives_the_interpreter(self):
        script = (
            "import json, multiprocessing\n"
            "from npinfer.simulate import McConfig, run_mc\n"
            "cfg = McConfig(estimator='lpreg', model=5, n=100, replications=8,\n"
            "               evaluation_points=(0.0,), bw_rule='rot')\n"
            "run_mc(cfg, workers=2)\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
        )
        path = [os.path.dirname(os.path.dirname(npinfer.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        pids = json.loads(done.stdout)
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)


class TestConfigErrors:
    """Each invalid setting fails at construction, before any replication."""

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, NpinferError)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            _lpreg_config(alpha=alpha)

    @pytest.mark.parametrize("n", [1, 0])
    def test_sample_size_below_two(self, n):
        with pytest.raises(ConfigError, match="n must be"):
            _lpreg_config(n=n)

    @pytest.mark.parametrize("q", [1, 0])
    def test_bias_degree_not_above_p(self, q):
        with pytest.raises(ConfigError, match="q > p"):
            _lpreg_config(p=1, q=q)

    def test_negative_degree(self):
        with pytest.raises(ConfigError, match="q > p >= 0"):
            _lpreg_config(p=-1, q=0)

    @pytest.mark.parametrize("bw_rule", ["mse", "rot", "dpi"])
    def test_even_degree_interior_rule(self, bw_rule):
        with pytest.raises(ConfigError, match="degree p = 2 with kernel 'epanechnikov'"):
            _lpreg_config(p=2, q=3, bw_rule=bw_rule)

    @pytest.mark.parametrize("kernel_name", ["minvar-order4", "mseopt-order4"])
    def test_singular_kernel_moments(self, kernel_name):
        # a higher-order kernel's second moment vanishes: S is singular at p = 1
        with pytest.raises(ConfigError, match=rf"kernel '{kernel_name}' .* p = 1: its second"):
            _lpreg_config(kernel_name=kernel_name, bw_rule="mse")

    @pytest.mark.parametrize("overrides", [{"bw_rule": "fixed", "fixed_h": 0.3}, {"boundary": True}])
    def test_even_degree_stays_open_for_fixed_and_boundary(self, overrides):
        assert _lpreg_config(p=2, q=3, **overrides).p == 2

    @pytest.mark.parametrize("bw_rule", ["dpi", "rot", "mse"])
    def test_fixed_h_without_fixed_rule(self, bw_rule):
        # the rule would ignore fixed_h while the report echoed it
        with pytest.raises(ConfigError, match="fixed_h=0.3 is used only by the fixed"):
            _lpreg_config(bw_rule=bw_rule, fixed_h=0.3)

    def test_empty_evaluation_points(self):
        with pytest.raises(ConfigError, match="evaluation_points"):
            _lpreg_config(evaluation_points=())

    @pytest.mark.parametrize("fixed_h", [math.inf, math.nan, -0.2, 0.0])
    def test_fixed_bandwidth_not_positive_finite(self, fixed_h):
        with pytest.raises(ConfigError, match="fixed_h"):
            _lpreg_config(bw_rule="fixed", fixed_h=fixed_h)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"vce": "hc9"}, "variance method"),
            ({"kernel_name": "nope"}, "unknown kernel"),
            ({"bias_kernel_name": "nope"}, "unknown kernel"),
            ({"bw_rule": "bogus"}, "bandwidth rule"),
            ({"bw_rule": "silverman"}, "bandwidth rule"),
            ({"vce": "nn", "nn_neighbors": 0}, "nn_neighbors"),
        ],
    )
    def test_unknown_names_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            _lpreg_config(**overrides)

    @pytest.mark.parametrize("estimator,model", [("density", 1), ("lpreg", 5)])
    @pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
    def test_rho_not_finite(self, estimator, model, rho):
        with pytest.raises(ConfigError, match="rho must be finite"):
            McConfig(
                estimator=estimator, model=model, n=100, replications=1,
                evaluation_points=(0.0,), rho=rho,
            )

    def test_bias_kernel_order_mismatch(self):
        # the default bias kernel estimates f'' only
        with pytest.raises(ConfigError, match="order-4 derivative kernel"):
            McConfig(
                estimator="density", model=1, n=100, replications=1,
                evaluation_points=(0.0,), kappa=4,
            )

    def test_uncorrected_density_needs_no_bias_kernel(self):
        # rho = 0 without DPI never forms the bias kernel's derivative
        cfg = McConfig(
            estimator="density", model=1, n=100, replications=1,
            evaluation_points=(0.0,), kappa=4, rho=0.0, bw_rule="mse",
        )
        assert run_mc(cfg, workers=1).used_replications == (1,)

    def test_density_accepts_silverman(self):
        cfg = McConfig(
            estimator="density", model=1, n=100, replications=5,
            evaluation_points=(0.0,), bw_rule="silverman",
        )
        assert cfg.bw_rule == "silverman"

    def test_density_rejects_regression_degrees(self):
        with pytest.raises(ConfigError, match="density estimation never reads p=2, q=2"):
            McConfig(
                estimator="density", model=1, n=100, replications=5,
                evaluation_points=(0.0,), p=2, q=2,
            )

    @pytest.mark.parametrize(
        "overrides", [{"q": 5}, {"vce": "nn"}, {"nn_neighbors": 5}, {"boundary": True}],
        ids=["q", "vce", "nn_neighbors", "boundary"],
    )
    def test_density_rejects_each_regression_setting(self, overrides):
        ((name, _),) = overrides.items()
        with pytest.raises(ConfigError, match=f"density estimation never reads {name}="):
            McConfig(estimator="density", model=1, n=100, replications=5,
                     evaluation_points=(0.0,), **overrides)

    @pytest.mark.parametrize("estimator,model,p", [("density", 1, 1), ("lpreg", 5, 3)])
    def test_q_defaults_to_p_plus_one(self, estimator, model, p):
        cfg = McConfig(estimator=estimator, model=model, n=100, replications=5,
                       evaluation_points=(0.0,), p=p)
        assert cfg.q == p + 1
        # the resolved q counts as unset, so a rebuilt config stays valid
        assert replace(cfg, n=50).q == p + 1

    @pytest.mark.parametrize(
        "x_law",
        [(1.0,), (0.0, 0.0), (1.0, -1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, 0.5, 1.0),
         1.0, ("a", "b")],
    )
    def test_malformed_x_law(self, x_law, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulate, "_one_replication", must_not_run)
        with pytest.raises(ConfigError, match="x_law"):
            run_mc(_lpreg_config(x_law=x_law), workers=1)

    def test_echo_names_kernels_and_lists_x_law(self):
        echoed = json.loads(json.dumps(_lpreg_config(x_law=[0, 1]).echo()))
        assert echoed["kernel"] == "epanechnikov" and echoed["bias_kernel"] is None
        assert echoed["x_law"] == [0.0, 1.0]
        assert "kernel_name" not in echoed and "bias_kernel_name" not in echoed

    def test_valid_config_accepted(self):
        cfg = _lpreg_config(bw_rule="fixed", fixed_h=0.4, alpha=0.1, n=2)
        assert cfg.evaluation_points == (0.0,)


class TestSweep:
    def test_single_point_grid_matches_fixed_run(self):
        cfg = McConfig(
            estimator="lpreg",
            model=5,
            n=90,
            replications=15,
            evaluation_points=(0.0,),
            bw_rule="dpi",
            seed=30,
        )
        rows = bandwidth_grid_sweep(cfg, [0.35])
        fixed = run_mc(replace(cfg, bw_rule="fixed", fixed_h=0.35))
        by_method = {r["method"]: r for r in rows}
        for m in ("US", "BC", "RBC"):
            assert by_method[m]["coverage"] == fixed.coverage[m][0]
            assert by_method[m]["mean_length"] == fixed.mean_length[m][0]

    def test_grid_validation(self):
        cfg = McConfig(
            estimator="lpreg", model=5, n=50, replications=3,
            evaluation_points=(0.0,), bw_rule="dpi", seed=1,
        )
        with pytest.raises(ValueError):
            bandwidth_grid_sweep(cfg, [0.5, 0.4])
        with pytest.raises(ValueError):
            bandwidth_grid_sweep(cfg, [-0.1, 0.5])
        with pytest.raises(ValueError, match="non-empty"):
            bandwidth_grid_sweep(cfg, [])

    @pytest.mark.parametrize(
        "cfg",
        [
            McConfig(estimator="lpreg", model=5, n=80, replications=6,
                     evaluation_points=(-0.9, 0.0, 0.5), bw_rule="dpi", seed=31),
            McConfig(estimator="density", model=2, n=120, replications=5,
                     evaluation_points=(-1.0, 0.5), bw_rule="silverman", seed=32),
        ],
        ids=["lpreg", "density"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_the_per_h_run_mc_loop(self, cfg, workers):
        # the slow reference: one fixed-rule study per grid bandwidth
        grid = [0.08, 0.2, 0.45]
        expected = []
        for h in grid:
            report = run_mc(replace(cfg, bw_rule="fixed", fixed_h=h))
            expected += curve_rows(report, [h] * len(report.points))
        rows = bandwidth_grid_sweep(cfg, grid, workers=workers)
        assert json.dumps(rows) == json.dumps(expected)

    def test_sweep_draws_each_replication_once(self, monkeypatch):
        drawn = []

        def counting(*args):
            drawn.append(args)
            return gen_regression_sample(*args)

        monkeypatch.setattr(simulate, "gen_regression_sample", counting)
        cfg = _lpreg_config(n=60, replications=4, evaluation_points=(0.0, 0.3))
        rows = bandwidth_grid_sweep(cfg, [0.2, 0.3, 0.5, 0.8], workers=1)
        assert len(rows) == 4 * 2 * 3
        assert len(drawn) == cfg.replications

    def test_sweep_and_run_mc_share_one_process_pool(self, no_pool, monkeypatch):
        pools = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        cfg = _lpreg_config(n=60, replications=4)
        bandwidth_grid_sweep(cfg, [0.2, 0.3, 0.5], workers=2)
        run_mc(cfg, workers=2)
        assert pools == [{"max_workers": 2}]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grid_value_rejected_before_any_sample(self, bad, monkeypatch):
        def must_not_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(simulate, "gen_regression_sample", must_not_draw)
        with pytest.raises(ConfigError, match="finite fixed_h"):
            bandwidth_grid_sweep(_lpreg_config(), [0.3, bad])

    def test_us_coverage_curve_has_interior_maximum(self):
        # model 5 at x = 0: US coverage rises with h (escaping the
        # small-effective-sample Studentization penalty), peaks, then
        # collapses as the smoothing bias takes over
        cfg = McConfig(
            estimator="lpreg", model=5, n=500, replications=1500,
            evaluation_points=(0.0,), bw_rule="fixed", fixed_h=0.3, seed=606,
        )
        grid = [0.02, 0.06, 0.12, 0.25, 0.45, 0.8, 1.2]
        rows = bandwidth_grid_sweep(cfg, grid, workers=2)
        us = [r["coverage"] for r in rows if r["method"] == "US"]
        interior_max = max(us[1:-1])
        assert interior_max > us[0]
        assert interior_max > us[-1]

    def test_rbc_tracks_or_beats_us_near_mse_bandwidth(self):
        # matched-bandwidth comparison on [0.5, 1.5] x h*_mse
        h_star = 0.35
        cfg = McConfig(
            estimator="lpreg", model=5, n=500, replications=2000,
            evaluation_points=(0.0,), bw_rule="fixed", fixed_h=h_star, seed=707,
        )
        grid = list(np.linspace(0.5 * h_star, 1.5 * h_star, 5))
        rows = bandwidth_grid_sweep(cfg, grid, workers=2)
        by_h = {}
        for r in rows:
            by_h.setdefault(r["h"], {})[r["method"]] = r["coverage"]
        for h, methods in by_h.items():
            assert methods["RBC"] >= methods["US"] - 0.01, (h, methods)
