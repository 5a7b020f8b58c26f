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
The seventeen local polynomial cases whose fits feed the output (every
``lpreg`` MC case, every ``lpreg-infer`` CLI case, ``bw-lpreg-dpi`` and
both curves) were re-recorded when ``lp_fit`` began to sum over its
window's n_w rows instead of all n rows with zeros outside the window.
The sums group their terms differently, so the results moved in the last
bits: bandwidths by at most 3.6e-14 relative, every other figure by at
most 3.5e-13 relative, and coverage, counts and fallback flags not at
all.  ``bw-lpreg-mse`` and ``bw-lpreg-rot`` use no local fit and held.
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
    "lpreg-dpi": "71a6f84d1ef13792326989d083e26e9fc58b79a0fa947f36e7f91eab6ff506e3",
    "lpreg-rot": "2a803e97a0e7b380429154128de3cb355c9d487416365208abc7ca52a0243793",
    "lpreg-mse": "07ef266fa0656d9932ba88c0167561b2cd2dd408bf594fdca9d3bc6640b0a977",
    "lpreg-fixed": "e5956bf9fb0bd882e877dd75caf964864a15e37553bc1b535c397b8c19e68c8a",
    "lpreg-boundary-dpi": "4d022659a80b97f48bcfaa1e958ce33b66504b706faa2491267b3ee5f00f5639",
    "lpreg-boundary-rot": "778b75dbd19cc936de242fea3087d09e8c1e07f9748bcd645768ea31c03af117",
    "lpreg-dpi-nn": "36bce316c3bc78dd13ed72d01ef04fe0fc9edd193253ca706dc7775ee9ddf1ed",
}

CLI_DIGESTS = {
    "density-infer-dpi": "4caa3b09dcd784de91f96258c8d531af108be258534a4171d177ceafa6d89a0f",
    "density-infer-rot": "72e735bcb09705c33732d7d2006d2c58fcd976bacab4c9e0dc177711e6146df2",
    "density-infer-mse": "8c07c1352b168cfc676e85ce788141884e1edcd6e2947a255c0dee122ee95dd2",
    "density-infer-silverman": "72cdc3ca663538d666798ab1e8c2842e66695f38825da3ac0463372b170abe07",
    "density-infer-fixed": "5ba5734a3a8810d84f0124c7fa7a5819af773f29a51e9c9f768723f7259b2ec3",
    "density-infer-dpi-rho0.3": "671af37687544057b04a619e5eee6b1970394c8df1043549bc22666f63f5ec10",
    "lpreg-infer-dpi": "9af83729523631ea777970dd4b165c9250384210c45386b7929178f0ec5ad03d",
    "lpreg-infer-rot": "babc285d32e3617ca2ebfa7fcab9d5fd65b5f7468e057190651c54a93cb0146c",
    "lpreg-infer-mse": "b14150a1ad97f5632f3d9e4ad83ff4336d49c2cd1b460e3235f02ac723efd795",
    "lpreg-infer-fixed": "5f6407d3ceec335eed6778766b88ac2c25285fb8a97be6609d634a7aefa0ed99",
    "lpreg-infer-boundary-dpi": "83fee43c677bc991e4049635ea31c9bfaeaae4cb96f8a6b313573bbd62b81000",
    "lpreg-infer-nn": "5213c1cfaca12465b81f8ab0a2f2ea2b8bfe6b62cb59e44e052f2820aad851ff",
    "lpreg-infer-nn-edge": "ff09ea44d5ccdd808c61b695ca79a2b3ebd23078bc38e35a59934caadb97aa5e",
    "bw-density-dpi": "f01afed20e83aa57a188570ecf0610c7a27335a84c94c1dd3ea01513da4a4d8b",
    "bw-density-rot": "65084c9619b8775a13f9bd7507f9d4d94be19e207c88676201a3d6aced616f6b",
    "bw-density-mse": "be92f415d7428ce34241e2b5fc9d76592c7ce04fb402c9407e628e0a67ee6198",
    "bw-lpreg-dpi": "0ba289685a5075d86007365728bd3b0db2088794c1c65e51223ad8ac9d130bbc",
    "bw-lpreg-rot": "b0825dd0718fc5e01c94aec74671e79707993f93ef34140a34e625ecaabb0a27",
    "bw-lpreg-mse": "587d725d07f698d7edfa2bb9ebc55aef70173cc0b96a059f68eebbb9d7d6bc82",
}

# the --curves CSV of a single-rule study and of a fixed-bandwidth sweep
CURVES_DIGESTS = {
    "sim": "747882cdca09db43fd4918b149c0d6d75ce0e41935f4289ba57366bdabc08214",
    "sweep": "55bda6ba233fb0f4c4ed30888f24f61dd40570d7aebf53484964edd78e9f4788",
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
    argv = ["sim", "lpreg", "--model", "5", "--n", "200", "--reps", "4", "--points=-0.3,0",
            "--seed", "11", "--workers", "1", "--curves", path]
    if name == "sweep":
        return argv + ["--h-grid", "0.3:0.5:2"]
    return argv + ["--out", path + ".json"]


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
