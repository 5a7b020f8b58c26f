"""Nonparametric point estimation with robust bias-corrected inference.

Kernel density estimation and local polynomial regression with
undersmoothed (US), bias-corrected (BC), and robust bias-corrected (RBC)
confidence intervals, coverage-error-optimal bandwidth selectors, and a
reproducible Monte Carlo engine.
"""

from .errors import (
    ConfigError,
    DegenerateSampleError,
    LeverageOneError,
    MonotoneObjectiveError,
    NpinferError,
    ParseError,
    SchemaError,
    SingularDesignError,
    ZeroCurvatureError,
)
from .kernels import (
    KernelSpec,
    TruncatedSupport,
    custom_kernel,
    induced_kernel,
    kernel,
    kernel_names,
    minvar_derivative_kernel,
)
from .density import (
    ConfidenceInterval,
    DensityInference,
    DensitySample,
    density_derivative_estimate,
    density_infer,
    density_point_estimate,
    gj_density_estimate,
    gj_equivalent_kernel,
)
from .locpoly import (
    LocPolyFit,
    LocPolyInference,
    RegressionSample,
    VarianceMethod,
    lp_fit,
    lp_infer,
    lp_residual_weights,
    lp_variance,
)
from .bandwidth import (
    RULES,
    BandwidthChoice,
    CoveragePolys,
    coverage_polys_density,
    dpi_bandwidth_density,
    dpi_bandwidth_lp,
    global_poly_derivative,
    minimize_ce_objective,
    mse_bandwidth_density_normal_ref,
    mse_bandwidth_lp,
    population_mse_bandwidth_density,
    rot_bandwidth,
    select,
    silverman_rot_density,
)
from .simulate import (
    DENSITY_MODELS,
    REGRESSION_MODELS,
    DensityModel,
    McConfig,
    McReport,
    RegressionModel,
    bandwidth_grid_sweep,
    gen_density_sample,
    gen_regression_sample,
    run_mc,
)

__version__ = "0.1.0"
