"""Golden SHA-256 digests of Monte Carlo reports and CLI JSON output.

Each digest pins the exact bytes of one output: the sorted-key JSON of
``McReport.to_dict()`` for a small fixed-seed study (n=200, 4
replications, 2 points), or the stdout JSON of one ``density infer``,
``lpreg infer`` or ``bw`` call.  One bit of drift in any reported figure
changes the digest, so a refactor that claims "same results" is held to
it exactly.

The digests are this platform's float results (x86-64 Linux, Python 3.11,
numpy 2.4, scipy 1.17), recorded from the code as it stood before the
bandwidth rules were routed through ``bandwidth.select``; the two cases
at rho = 0.3 (``-rho0.3``) were recorded before the kernel algebra was
cached.  At rho = 1 every call asks for the same induced kernel, while
b = h/0.3 gives h/b = 0.3 or 0.29999999999999993; each rho = 0.3 case
is set up to meet the second value, so its results come from two cached
induced kernels.  The three nearest-neighbor cases (``-nn``) were recorded
while the NN weights still argsorted all n distances for every window
row.  The thirteen cases whose bandwidths come from the DPI selector (the
five ``dpi`` MC cases, the seven CLI cases with a ``dpi`` rule, ``-nn-edge``
among them, and the ``sim`` curves) were re-recorded when the
coverage-error objective was first solved in closed form rather than by
golden-section search to 1e-6 relative width: their bandwidths moved by
less than 1e-6 relative and the DPI diagnostics gained ``H_candidates``.
Another BLAS or libm may round differently; a deliberate change of
results re-records them and explains the drift in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from npinfer.cli import main
from npinfer.simulate import McConfig, run_mc

MC_DIGESTS = {
    "density-dpi": "bc9e7178b577627ce0d6bfd013d3b1bf1f3ae6faf546d1152c169558631ac012",
    "density-rot": "59c91187191f8fff218e7e98083bd3eb557b271363d9d1087e0f6cb5ef84ae52",
    "density-mse": "b74ae7eb6dd33991d3840a751a5e406d7cb1d099e2da44a324ee965a68431a89",
    "density-silverman": "a075ea67c7d9979ff0ea200f31b0ce63a2378408bb61bdca2c2c7ad22a4ede5c",
    "density-fixed": "4dc43f0bf640e333641c1e893e1808e8744e4b3be6c3c9a13ac84ab3e3d61f7c",
    "density-dpi-rho0.3": "7dcaa8716d2cca52718bf6939f91fa0383b88af68b61671c29fd90e2740de6ed",
    "lpreg-dpi": "0888232329705fe5d5f86f9f42d7ad1aa15c6835acd9b902392881509e5cbbaf",
    "lpreg-rot": "6d95390ae40de5fbb969de57c2f84e33185431812ab3c90659d000692c399f00",
    "lpreg-mse": "4dcb7fe081629896c45b56e36be1444400b79459e2cd7d46efa2df2dc5de319d",
    "lpreg-fixed": "dfd733302dd17e68e683abb5b568136db6bda3f0bac77ae3ce8894428860338b",
    "lpreg-boundary-dpi": "7b95418cb8d4bee0029f93f59dd1398672fc7aeb66a164783d65373538c19806",
    "lpreg-boundary-rot": "bbc8e3951af7697f4ccdd60931540677a0d5b3bd1011ae51e48167a1ee8f6cdd",
    "lpreg-dpi-nn": "9ffd061f5b9499871909c73bfcb7d4320d0a5a2088ebd2097d6ca8540699cfec",
}

CLI_DIGESTS = {
    "density-infer-dpi": "4caa3b09dcd784de91f96258c8d531af108be258534a4171d177ceafa6d89a0f",
    "density-infer-rot": "72e735bcb09705c33732d7d2006d2c58fcd976bacab4c9e0dc177711e6146df2",
    "density-infer-mse": "8c07c1352b168cfc676e85ce788141884e1edcd6e2947a255c0dee122ee95dd2",
    "density-infer-silverman": "72cdc3ca663538d666798ab1e8c2842e66695f38825da3ac0463372b170abe07",
    "density-infer-fixed": "5ba5734a3a8810d84f0124c7fa7a5819af773f29a51e9c9f768723f7259b2ec3",
    "density-infer-dpi-rho0.3": "671af37687544057b04a619e5eee6b1970394c8df1043549bc22666f63f5ec10",
    "lpreg-infer-dpi": "ce2fb17627b94e870c3d4ccd675c07cdf7b4b126f87f70ffaa49d78eec8cb81d",
    "lpreg-infer-rot": "c3db1200c2692436950b3cdb24b6911ccaf8b9b6e5002a117d862f771f0f2caf",
    "lpreg-infer-mse": "27b6fd58ba7440579ddb96122657fe561fbc81c9374133a109ddaa2d938f6402",
    "lpreg-infer-fixed": "75192c5c36ff981579dcf63b2fff5a2ed5e2371577aa412abfa98d06e11e565d",
    "lpreg-infer-boundary-dpi": "83b10c7f1165790b81f2ecc4376ef3505313d58daca6b1c334f30ae4f80ba6eb",
    "lpreg-infer-nn": "f7f214fc70ce2692c8e0d029a512968ec5092f75df52623238115448e6176452",
    "lpreg-infer-nn-edge": "c2a0c1bbf6f5d714193ed881b929b9a5f91134a66bc23f9fdf0a17da445113c1",
    "bw-density-dpi": "f01afed20e83aa57a188570ecf0610c7a27335a84c94c1dd3ea01513da4a4d8b",
    "bw-density-rot": "65084c9619b8775a13f9bd7507f9d4d94be19e207c88676201a3d6aced616f6b",
    "bw-density-mse": "be92f415d7428ce34241e2b5fc9d76592c7ce04fb402c9407e628e0a67ee6198",
    "bw-lpreg-dpi": "6a94356222e38dd6cad2d20523f4aa38475233b46614906ae6ec6c81d05d3ebf",
    "bw-lpreg-rot": "b0825dd0718fc5e01c94aec74671e79707993f93ef34140a34e625ecaabb0a27",
    "bw-lpreg-mse": "587d725d07f698d7edfa2bb9ebc55aef70173cc0b96a059f68eebbb9d7d6bc82",
}

# the --curves CSV of a single-rule study and of a fixed-bandwidth sweep
CURVES_DIGESTS = {
    "sim": "212ddee3a7483935d047793dd2e5326b1a98946e954c1f66dc78b06b3fa5846c",
    "sweep": "2c91556c621ad11ac8d78142d061107e9e4777da4d0b769ddf98e4a05194918b",
}


def mc_config(name) -> McConfig:
    estimator, _, rule = name.partition("-")
    rule, _, rho = rule.partition("-rho")
    rule, nn, _ = rule.partition("-nn")
    settings = dict(estimator=estimator, n=200, replications=4, seed=11)
    if nn:
        settings.update(vce="nn")
    if rho:
        # replication 7 draws an h at x = 1.5 with h / (h / 0.3) = 0.29999999999999993
        settings.update(rho=float(rho), replications=8)
    if estimator == "density":
        settings.update(model=1, evaluation_points=(0.0, 1.5))
    else:
        settings.update(model=5, evaluation_points=(-1 / 3, 0.0))
    if rule.startswith("boundary-"):
        settings.update(evaluation_points=(-1.0, 1.0), boundary=True, bw_rule=rule[9:])
    elif rule == "fixed":
        settings.update(bw_rule="fixed", fixed_h=0.5)
    else:
        settings.update(bw_rule=rule)
    return McConfig(**settings)


def cli_argv(name, density_csv, regression_csv) -> list:
    if name.startswith("bw-"):
        _, estimator, rule = name.split("-")
        data, x = (density_csv, "0.5") if estimator == "density" else (regression_csv, "0.2")
        return ["bw", "--data", data, "--x", x, "--estimator", estimator, "--method", rule]
    estimator, _, rule = name.split("-", 2)
    rule, _, rho = rule.partition("-rho")
    data, x = (density_csv, "0.5") if estimator == "density" else (regression_csv, "0.2")
    if rho:
        # the DPI h at x = 1.55 gives h / (h / 0.3) = 0.29999999999999993
        return [estimator, "infer", "--data", data, "--x", "1.55", "--bw", rule, "--rho", rho]
    argv = [estimator, "infer", "--data", data, "--x", x]
    if rule == "fixed":
        return argv + ["--h", "0.5"]
    if rule == "boundary-dpi":
        return [estimator, "infer", "--data", data, "--x", "-0.98", "--bw", "dpi", "--boundary"]
    if rule == "nn":
        # an interior window: [-0.1, 0.5] inside data on [-1, 1]
        return argv + ["--h", "0.3", "--vce", "nn"]
    if rule == "nn-edge":
        # the DPI window at x = -0.98 crosses the data's left edge
        return [estimator, "infer", "--data", data, "--x", "-0.98", "--bw", "dpi", "--vce", "nn"]
    return argv + ["--bw", rule]


def curves_argv(name, path) -> list:
    argv = ["sim", name, "--model", "5", "--n", "200", "--reps", "4", "--points=-0.3,0",
            "--seed", "11", "--workers", "1", "--curves", path]
    if name == "sweep":
        return argv + ["--estimator", "lpreg", "--h-grid", "0.3:0.5:2"]
    return argv[:1] + ["lpreg"] + argv[2:] + ["--out", path + ".json"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mc_digest(name) -> str:
    report = run_mc(mc_config(name), workers=1)
    return sha256(json.dumps(report.to_dict(), sort_keys=True).encode())


def write_csv_inputs(directory):
    """The two fixed CSV inputs of the CLI cases; returns their paths."""
    rng = np.random.default_rng(2024)
    density = directory / "density.csv"
    density.write_text("x\n" + "".join(f"{v!r}\n" for v in rng.standard_normal(200).tolist()))
    x = rng.uniform(-1, 1, 200)
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(200)
    regression = directory / "regression.csv"
    regression.write_text(
        "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    )
    return str(density), str(regression)


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    return write_csv_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(MC_DIGESTS))
def test_mc_report_bytes(name):
    assert mc_digest(name) == MC_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_json_bytes(name, csv_inputs, capsys):
    assert main(cli_argv(name, *csv_inputs)) == 0
    assert sha256(capsys.readouterr().out.encode()) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CURVES_DIGESTS))
def test_curves_csv_bytes(name, tmp_path):
    path = tmp_path / "curves.csv"
    assert main(curves_argv(name, str(path))) == 0
    assert sha256(path.read_bytes()) == CURVES_DIGESTS[name]
