"""Monte Carlo engine: simulation models, reproducible parallel replication,
and coverage/length reporting.

Replication r of a run with seed s always draws from the counter-based
Philox stream keyed by (s, r), so results are identical for any worker
count; uniforms are mapped to Normals by the inverse CDF.  Aggregation
happens single-threaded in replication order, which makes the assembled
report byte-for-byte reproducible.  A bandwidth sweep is one such run:
each sample is drawn once for every grid bandwidth.  Every multi-worker run
of a process uses one process pool, started by the first such run and kept
until exit, so its workers see npinfer's module state as it was when they
forked.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import product, repeat
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .bandwidth import RULES, _lp_bias_constants, select
from .density import DEFAULT_BIAS_KERNEL, METHODS, DensitySample, critical_value, density_infer
from .errors import ConfigError, NpinferError, SingularDesignError, ZeroCurvatureError
from .kernels import derivative_part, kernel
from .locpoly import RegressionSample, VarianceMethod, lp_infer

__all__ = [
    "DensityModel",
    "RegressionModel",
    "DENSITY_MODELS",
    "REGRESSION_MODELS",
    "InferenceConfig",
    "McConfig",
    "McReport",
    "gen_density_sample",
    "gen_regression_sample",
    "replication_rng",
    "run_mc",
    "bandwidth_grid_sweep",
    "curve_rows",
]

# slack for the coverage indicator so exact noise-free reproduction scores
# as covered despite roundoff-width intervals
_COVER_SLACK = 1e-9


# ----------------------------------------------------------------------
# data-generating processes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DensityModel:
    """A Gaussian mixture density: components are (weight, mean, sd)."""

    id: int
    mixture: tuple

    def __post_init__(self):
        w = sum(c[0] for c in self.mixture)
        if abs(w - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")
        if any(c[2] <= 0 for c in self.mixture):
            raise ValueError("component standard deviations must be positive")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for w, m, s in self.mixture:
            total += w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        return total if total.ndim else float(total)

    @property
    def mean(self) -> float:
        return sum(w * m for w, m, _ in self.mixture)


DENSITY_MODELS = {
    1: DensityModel(1, ((1.0, 0.0, 1.0),)),
    2: DensityModel(
        2,
        (
            (1 / 5, 0.0, 1.0),
            (1 / 5, 1 / 2, 2 / 3),
            (3 / 5, 13 / 12, 5 / 9),
        ),
    ),
    3: DensityModel(3, ((1 / 2, -1.0, 2 / 3), (1 / 2, 1.0, 2 / 3))),
    4: DensityModel(4, ((3 / 4, 0.0, 1.0), (1 / 4, 3 / 2, 1 / 3))),
}


def _m1(x):
    return np.sin(4 * x) + 2 * np.exp(-64 * x**2)


def _m2(x):
    return 2 * x + 2 * np.exp(-64 * x**2)


def _m3(x):
    return 0.3 * np.exp(-4 * (2 * x + 1) ** 2) + 0.7 * np.exp(-16 * (2 * x - 1) ** 2)


def _m4(x):
    return x + 5 * np.exp(-50 * x**2) / math.sqrt(2 * math.pi)


def _m5(x):
    return np.sin(3 * np.pi * x / 2) / (1 + 18 * x**2 * (np.sign(x) + 1))


def _m6(x):
    return np.sin(np.pi * x / 2) / (1 + 2 * x**2 * (np.sign(x) + 1))


@dataclass(frozen=True)
class RegressionModel:
    """Y = m(X) + eps with X uniform on x_law and eps standard Normal."""

    id: int
    m: Callable
    noise_sd: float = 1.0
    x_law: tuple = (-1.0, 1.0)


REGRESSION_MODELS = {
    1: RegressionModel(1, _m1),
    2: RegressionModel(2, _m2),
    3: RegressionModel(3, _m3),
    4: RegressionModel(4, _m4),
    5: RegressionModel(5, _m5),
    6: RegressionModel(6, _m6),
}


# ----------------------------------------------------------------------
# reproducible draws
# ----------------------------------------------------------------------

def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based substream for one replication: Philox keyed by (seed, rep)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, rep & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1), safe for the inverse Normal CDF."""
    return rng.integers(1, 2**53, size=size).astype(float) / 2**53


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    return ndtri(_open_uniform(rng, size))


def gen_density_sample(model: DensityModel, n: int, rng: np.random.Generator) -> DensitySample:
    """n i.i.d. draws from the Gaussian mixture (component pick, then Normal)."""
    u = _open_uniform(rng, n)
    z = _standard_normal(rng, n)
    weights = np.array([c[0] for c in model.mixture])
    means = np.array([c[1] for c in model.mixture])
    sds = np.array([c[2] for c in model.mixture])
    comp = np.searchsorted(np.cumsum(weights), u)
    comp = np.clip(comp, 0, len(weights) - 1)
    return DensitySample(means[comp] + sds[comp] * z)


def gen_regression_sample(
    model: RegressionModel, n: int, rng: np.random.Generator, x_law: tuple | None = None
) -> RegressionSample:
    """n i.i.d. draws of (X, Y) with X uniform and Normal errors."""
    lo, hi = x_law if x_law is not None else model.x_law
    x = lo + (hi - lo) * _open_uniform(rng, n)
    eps = _standard_normal(rng, n)
    return RegressionSample(x, model.m(x) + model.noise_sd * eps)


# ----------------------------------------------------------------------
# configuration and report
# ----------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class InferenceConfig:
    """One inference setting; an invalid one raises ``ConfigError`` when it
    is built, before any data are read or drawn.

    ``bw_rule`` is one of ``bandwidth.RULES[estimator]`` or "fixed", the
    one rule that takes ``fixed_h`` (and requires it).  ``boundary``
    switches the local polynomial selectors to the boundary rate.
    """

    estimator: str  # "density" | "lpreg"
    alpha: float = 0.05
    p: int = 1
    q: int = 2
    rho: float = 1.0
    kappa: int = 2
    kernel_name: str = "epanechnikov"
    bias_kernel_name: str | None = None
    vce: str = "hc3"
    nn_neighbors: int = 3
    bw_rule: str = "dpi"
    fixed_h: float | None = None
    boundary: bool = False

    def __post_init__(self):
        try:
            self._check()
        except ConfigError:
            raise
        except ValueError as exc:  # a kernel, variance method or level that the library rejects
            raise ConfigError(str(exc)) from exc

    def _check(self):
        if self.estimator not in RULES:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        rules = RULES[self.estimator] + ("fixed",)
        if self.bw_rule not in rules:
            raise ConfigError(
                f"unknown {self.estimator} bandwidth rule {self.bw_rule!r}; expected one of {rules}"
            )
        K, L, _ = self.resolve()
        lpreg = self.estimator == "lpreg"
        # rho = h/b; for densities rho = 0 means b = inf: no bias correction
        if not math.isfinite(self.rho):
            raise ConfigError(f"rho must be finite, got {self.rho!r}")
        if lpreg and not self.rho > 0:
            raise ConfigError(f"rho must be positive for local polynomial estimation, got {self.rho!r}")
        if self.rho < 0:
            raise ConfigError(f"rho must be nonnegative, got {self.rho!r}")
        if not lpreg and (self.rho > 0 or self.bw_rule == "dpi"):
            # the bias kernel's kappa-th derivative enters the bias estimate
            # and the induced kernel; rho = 0 without DPI never forms it
            derivative_part(L, self.kappa)
        critical_value(self.alpha)
        if self.bw_rule == "fixed" and not (
            self.fixed_h is not None and math.isfinite(self.fixed_h) and self.fixed_h > 0
        ):
            raise ConfigError("fixed bandwidth rule requires a positive, finite fixed_h")
        if self.bw_rule != "fixed" and self.fixed_h is not None:
            raise ConfigError(
                f"fixed_h={self.fixed_h!r} is used only by the fixed bandwidth rule, "
                f"not by bw_rule={self.bw_rule!r}"
            )
        if lpreg and not 0 <= self.p < self.q:
            raise ConfigError(
                f"local polynomial estimation requires q > p >= 0, got p={self.p}, q={self.q}"
            )
        if lpreg and self.bw_rule != "fixed" and not self.boundary:
            _lp_bias_constants(K, self.p)

    def resolve(self):
        """(K, L, method): the kernel, the bias kernel (by default
        DEFAULT_BIAS_KERNEL for densities and K for lpreg) and the lpreg
        VarianceMethod (None for densities)."""
        default = DEFAULT_BIAS_KERNEL if self.estimator == "density" else self.kernel_name
        K, L = kernel(self.kernel_name), kernel(self.bias_kernel_name or default)
        return K, L, VarianceMethod(self.vce, self.nn_neighbors) if self.estimator == "lpreg" else None

    def on_sample(self, sample):
        """(bandwidth, infer) on one sample: ``bandwidth(x)`` is ``fixed_h`` or
        what ``bw_rule`` selects at x, and ``infer(x, h)`` runs the estimator
        at x with b = inf if rho = 0, else h/rho."""
        K, L, method = self.resolve()

        def bandwidth(x):
            if self.bw_rule == "fixed":
                return self.fixed_h
            return select(
                self.bw_rule, sample, x, K, L=L, kappa=self.kappa, p=self.p,
                boundary=self.boundary, alpha=self.alpha,
            ).value

        def infer(x, h):
            b = math.inf if self.rho == 0 else h / self.rho
            if self.estimator == "density":
                return density_infer(sample, x, h, b, K, L, self.kappa, self.alpha)
            return lp_infer(sample, x, self.p, self.q, h, b, K, L, self.alpha, method)

        return bandwidth, infer


@dataclass(frozen=True, kw_only=True)
class McConfig(InferenceConfig):
    """One Monte Carlo experiment: an inference setting on ``replications``
    samples of size ``n`` from a simulation model.  ``x_law``, when set, is
    the (lo, hi) support of the uniform regression design.  The worker
    count is an argument of ``run_mc``; it never enters the report.
    """

    model: int
    n: int
    replications: int
    evaluation_points: tuple
    x_law: tuple | None = None
    seed: int = 1

    def _check(self):
        object.__setattr__(self, "evaluation_points", tuple(float(x) for x in self.evaluation_points))
        super()._check()
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n!r}")
        if not self.evaluation_points:
            raise ConfigError("evaluation_points must not be empty")
        if self.estimator == "density" and self.model not in DENSITY_MODELS:
            raise ConfigError(f"unknown density model {self.model}")
        if self.estimator == "lpreg" and self.model not in REGRESSION_MODELS:
            raise ConfigError(f"unknown regression model {self.model}")
        if self.x_law is not None:
            try:
                lo, hi = (float(v) for v in self.x_law)
            except (TypeError, ValueError):
                lo = hi = math.nan
            if not -math.inf < lo < hi < math.inf:
                raise ConfigError(
                    f"x_law must be a pair lo,hi of finite numbers with lo < hi, got {self.x_law!r}"
                )
            object.__setattr__(self, "x_law", (lo, hi))

    def echo(self) -> dict:
        echoed = asdict(self)
        echoed["kernel"] = echoed.pop("kernel_name")
        echoed["bias_kernel"] = echoed.pop("bias_kernel_name")
        return echoed


@dataclass(frozen=True, eq=False)
class McReport:
    """Aggregated coverage, length, failure, and bandwidth statistics."""

    config: dict
    points: tuple
    truths: tuple
    coverage: dict  # method -> list per point
    mean_length: dict
    mean_bias: dict
    degenerate: dict
    singular_failures: tuple
    bandwidth_failures: tuple
    used_replications: tuple
    bandwidth_stats: tuple

    def to_dict(self) -> dict:
        per_point = []
        for i, x in enumerate(self.points):
            per_point.append(
                {
                    "x": x,
                    "truth": self.truths[i],
                    "methods": {
                        m: {
                            "coverage": self.coverage[m][i],
                            "mean_length": self.mean_length[m][i],
                            "mean_bias": self.mean_bias[m][i],
                            "degenerate": self.degenerate[m][i],
                        }
                        for m in METHODS
                    },
                    "failures": {
                        "singular": self.singular_failures[i],
                        "bandwidth": self.bandwidth_failures[i],
                    },
                    "used_replications": self.used_replications[i],
                    "bandwidth": self.bandwidth_stats[i],
                }
            )
        return {"config": self.config, "results": per_point}


# ----------------------------------------------------------------------
# single replication
# ----------------------------------------------------------------------

def _one_replication(config: McConfig, rep: int, h_grid=(None,)) -> list:
    """Outcome records of one replication's sample, one per (h, x) in
    product(h_grid, evaluation_points); an h of None is chosen by the rule.

    Each record is (status, h, [(center, half_width), ...] per method);
    status 0 = ok, 1 = singular design, 2 = bandwidth undefined.
    """
    rng = replication_rng(config.seed, rep)
    if config.estimator == "density":
        sample = gen_density_sample(DENSITY_MODELS[config.model], config.n, rng)
    else:
        sample = gen_regression_sample(REGRESSION_MODELS[config.model], config.n, rng, config.x_law)
    bandwidth, infer = config.on_sample(sample)
    out = []
    for h, x in product(h_grid, config.evaluation_points):
        try:
            if h is None:
                h = bandwidth(x)
        except (ZeroCurvatureError, SingularDesignError):
            out.append((2, math.nan, None))
            continue
        try:
            res = infer(x, h)
        except NpinferError:
            out.append((1, h, None))
            continue
        out.append((0, h, tuple((ci.center, ci.half_width) for ci in res.intervals)))
    return out


# ((pid, workers), pool): this process's one process pool, kept between calls
_POOL = None


def _run_replications(config: McConfig, rep_fn, workers: int) -> list:
    """``rep_fn(config, r)`` for every replication r, in replication order.

    More than one worker runs on this process's pool, started on first use
    and kept; a pool of another size is shut down first, so at most one is
    alive.  A forked child finds its parent's pool under another pid and
    leaves it alone.  concurrent.futures joins the workers at interpreter exit.
    """
    global _POOL
    reps = range(config.replications)
    if workers <= 1:
        return list(map(rep_fn, repeat(config), reps))
    key = (os.getpid(), workers)
    if _POOL is None or _POOL[0] != key:
        if _POOL is not None and _POOL[0][0] == key[0]:
            _POOL[1].shutdown(wait=True)
        _POOL = (key, ProcessPoolExecutor(max_workers=workers))
    pool = _POOL[1]
    chunk = max(1, math.ceil(len(reps) / (workers * 4)))
    try:
        return list(pool.map(rep_fn, repeat(config), reps, chunksize=chunk))
    except BrokenProcessPool:
        # this call fails; the next one starts a fresh pool
        _POOL = None
        pool.shutdown(wait=True)
        raise


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _truths(config: McConfig):
    if config.estimator == "density":
        model = DENSITY_MODELS[config.model]
        return tuple(float(model.density(x)) for x in config.evaluation_points)
    model = REGRESSION_MODELS[config.model]
    return tuple(float(model.m(np.asarray(x))) for x in config.evaluation_points)


def _quartile_stats(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"mean": None, "sd": None, "min": None, "q25": None,
                "median": None, "q75": None, "max": None}
    q25, med, q75 = np.percentile(values, [25, 50, 75])
    return {
        "mean": float(np.mean(values)),
        "sd": float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
        "min": float(np.min(values)),
        "q25": float(q25),
        "median": float(med),
        "q75": float(q75),
        "max": float(np.max(values)),
    }


def run_mc(config: McConfig, workers: int = 1) -> McReport:
    """Run the Monte Carlo experiment and aggregate a coverage report.

    Replication failures (singular designs, undefined bandwidths) are
    tallied per evaluation point and excluded from coverage denominators;
    they never abort the run.
    """
    records = _run_replications(config, _one_replication, workers)
    return _aggregate(config, records, _truths(config))


def _aggregate(config: McConfig, records, truths) -> McReport:
    npts = len(config.evaluation_points)
    # one row per method, in METHODS order, one column per point
    cover = np.zeros((len(METHODS), npts), dtype=int)
    degen = np.zeros((len(METHODS), npts), dtype=int)
    length_sum = np.zeros((len(METHODS), npts))
    bias_sum = np.zeros((len(METHODS), npts))
    singular = np.zeros(npts, dtype=int)
    bad_bw = np.zeros(npts, dtype=int)
    used = np.zeros(npts, dtype=int)
    h_values = [[] for _ in range(npts)]

    for recs in records:
        for i, (status, h, intervals) in enumerate(recs):
            if status == 2:
                bad_bw[i] += 1
                continue
            if status == 1:
                singular[i] += 1
                continue
            used[i] += 1
            h_values[i].append(h)
            truth = truths[i]
            slack = _COVER_SLACK * max(1.0, abs(truth))
            for k, (center, hw) in enumerate(intervals):
                if center - hw - slack <= truth <= center + hw + slack:
                    cover[k, i] += 1
                length_sum[k, i] += 2.0 * hw
                bias_sum[k, i] += center - truth
                if hw == 0.0:
                    degen[k, i] += 1

    def per_point_mean(sums):
        """Method -> the mean over used replications at each point (None if none)."""
        return {
            m: [float(s / u) if u else None for s, u in zip(row, used)]
            for m, row in zip(METHODS, sums)
        }

    bw_stats = tuple(_quartile_stats(np.array(h_values[i])) for i in range(npts))
    return McReport(
        config=config.echo(),
        points=config.evaluation_points,
        truths=tuple(truths),
        coverage=per_point_mean(cover),
        mean_length=per_point_mean(length_sum),
        mean_bias=per_point_mean(bias_sum),
        degenerate={m: [int(v) for v in row] for m, row in zip(METHODS, degen)},
        singular_failures=tuple(int(v) for v in singular),
        bandwidth_failures=tuple(int(v) for v in bad_bw),
        used_replications=tuple(int(v) for v in used),
        bandwidth_stats=bw_stats,
    )


def bandwidth_grid_sweep(config: McConfig, h_grid: Sequence[float], workers: int = 1):
    """Coverage/length/bias curves over a fixed bandwidth grid.

    Draws each replication's sample once and evaluates every grid
    bandwidth on it with the fixed rule; returns plot-ready rows: one per
    (h, evaluation point, method) with coverage, mean interval length,
    and mean bias (center minus truth).
    """
    h_grid = tuple(float(h) for h in h_grid)
    if not h_grid or any(b <= a for a, b in zip(h_grid, h_grid[1:])) or any(h <= 0 for h in h_grid):
        raise ValueError("h_grid must be non-empty, strictly increasing and positive")
    # every grid value is checked here, before any replication runs
    configs = [replace(config, bw_rule="fixed", fixed_h=h) for h in h_grid]
    records = _run_replications(config, partial(_one_replication, h_grid=h_grid), workers)
    npts, truths = len(config.evaluation_points), _truths(config)
    rows = []
    for k, cfg in enumerate(configs):
        report = _aggregate(cfg, [recs[k * npts:(k + 1) * npts] for recs in records], truths)
        rows += curve_rows(report, [cfg.fixed_h] * npts)
    return rows


def curve_rows(report: McReport, h_per_point: Sequence[float]) -> list:
    """One plot-ready row per (evaluation point, method) of a report.

    Each row carries the bandwidth ``h_per_point[i]`` of its point with
    the coverage, mean interval length and mean bias (center minus truth).
    """
    return [
        {
            "h": h_per_point[i],
            "x": x,
            "method": m,
            "coverage": report.coverage[m][i],
            "mean_length": report.mean_length[m][i],
            "mean_bias": report.mean_bias[m][i],
        }
        for i, x in enumerate(report.points)
        for m in METHODS
    ]
