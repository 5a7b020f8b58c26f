"""Workload definitions shared by the orchestrator and its child processes.

This module imports only the standard library at top level, so the
orchestrator can load it before checking that the library is present and
so that a child process can start its set-up clock before numpy or
npinfer are imported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

MC_LPREG = "mc-lpreg-dpi"
MC_DENSITY = "mc-density-dpi"
CLI_LPREG = "cli-lpreg-nn"
WORKLOADS = (MC_LPREG, MC_DENSITY, CLI_LPREG)

LPREG_POINTS = (-2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3)
DENSITY_POINTS = (-2.0, -1.0, 0.0, 1.0, 2.0)
# interior points of the uniform design on [-1, 1]: every DPI window fits
CLI_XS = (-0.5, -0.25, 0.0, 0.25, 0.5)

# Workers are fixed, not read from os.cpu_count(), so numbers from machines
# with different core counts describe the same study.  2 = nproc of the
# machine the first baseline was taken on.
MC_WORKERS = {MC_LPREG: 2, MC_DENSITY: 1}

# The reference study whose figures are stored in reference.json.
REFERENCE_SEED = 1
REFERENCE_REPS = 16


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode (full or smoke)."""

    n_mc: int  # sample size of each Monte Carlo replication
    reps_per_call: dict  # workload -> replications in one run_mc call, timed or traced
    n_cli: int  # rows of each generated CLI data file
    cli_files: int  # number of generated CLI data files
    setup_probes: int  # fresh interpreters timed for setup_s
    scale_ns: tuple  # (label n, probed n) pairs of the scaling probe
    scale_repeats: dict  # probed n -> timed repetitions per call


FULL = Sizes(
    n_mc=500,
    reps_per_call={MC_LPREG: 16, MC_DENSITY: 40},
    n_cli=2000,
    cli_files=3,
    setup_probes=6,
    scale_ns=((500, 500), (2000, 2000), (4000, 4000)),
    scale_repeats={500: 9, 2000: 5, 4000: 3},
)

# Seconds-long mode for the benchmark's own test; its figures are not
# measurements.  The scaling probe keeps its metric names but runs at
# small n.
SMOKE = Sizes(
    n_mc=200,
    reps_per_call={MC_LPREG: 2, MC_DENSITY: 2},
    n_cli=300,
    cli_files=1,
    setup_probes=1,
    scale_ns=((500, 100), (2000, 200), (4000, 400)),
    scale_repeats={100: 1, 200: 1, 400: 1},
)


def sizes(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


def derive_seed(seed: int, *tags) -> int:
    """A 32-bit seed that depends only on the benchmark seed and the tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def is_mc(workload: str) -> bool:
    return workload in MC_WORKERS


def mc_config(workload: str, n: int, reps: int, seed: int):
    """The McConfig of one run_mc call of a Monte Carlo workload."""
    from npinfer.simulate import McConfig

    if workload == MC_LPREG:
        return McConfig(
            estimator="lpreg", model=5, n=n, replications=reps,
            evaluation_points=LPREG_POINTS, p=1, q=2, rho=1.0,
            kernel_name="epanechnikov", vce="hc3", bw_rule="dpi", seed=seed,
        )
    return McConfig(
        estimator="density", model=1, n=n, replications=reps,
        evaluation_points=DENSITY_POINTS, kappa=2, rho=1.0,
        kernel_name="epanechnikov", bias_kernel_name="mseopt-deriv2",
        bw_rule="dpi", seed=seed,
    )


def model5(x):
    """Regression function of simulation model 5, written out here so the
    CLI workload and the scaling probe generate data without npinfer."""
    import numpy as np

    return np.sin(3 * math.pi * x / 2) / (1 + 18 * x**2 * (np.sign(x) + 1))


def regression_data(n: int, seed: int):
    """n draws of (X, Y): X uniform on [-1, 1], Y = m5(X) + N(0, 1)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    return x, model5(x) + rng.standard_normal(n)


def cli_argv(path: str, x: float, out: str) -> list:
    """One `npinfer lpreg infer` call of the CLI workload."""
    return ["lpreg", "infer", "--data", path, "--x", repr(x), "--h", "auto",
            "--bw", "dpi", "--vce", "nn", "--out", out]
