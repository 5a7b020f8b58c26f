import argparse
import csv
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npinfer import cli, kernel, simulate
from npinfer.bandwidth import RULES, select
from npinfer.cli import _read_rows, build_parser, main, read_density_table, read_regression_table
from npinfer.errors import ConfigError, ParseError, SchemaError
from npinfer.simulate import McConfig


@pytest.fixture()
def density_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "d.csv"
    lines = ["x"] + [repr(float(v)) for v in rng.standard_normal(300)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def regression_csv(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 300)
    y = np.sin(3 * x) + rng.standard_normal(300)
    path = tmp_path / "r.csv"
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReadTable:
    def test_two_row_density(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1.0\n2.0\n")
        sample = read_density_table(str(path))
        assert sample.n == 2
        assert sorted(sample.observations) == [1.0, 2.0]

    def test_regression_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n0.5,2\n")
        sample = read_regression_table(str(path))
        assert sample.n == 2

    def test_nan_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1.0\nNaN\n")
        with pytest.raises(ParseError, match="row 3"):
            read_density_table(str(path))

    def test_swapped_headers_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,x\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            read_regression_table(str(path))

    def test_garbage_cell_position_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0.1,ok\n")
        with pytest.raises(ParseError, match="column 'y'"):
            read_regression_table(str(path))


def _reference_read_rows(path, columns):
    """The table reader as it was: every cell converted and checked in file order."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        if header[: len(columns)] != list(columns) or len(header) != len(columns):
            raise SchemaError(
                f"{path}: expected header {','.join(columns)!r}, found {','.join(header)!r}"
            )
        out = [[] for _ in columns]
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(columns):
                raise ParseError(f"{path}: row {rownum} has {len(row)} fields, expected {len(columns)}")
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {rownum}, column {columns[j]!r}: cannot parse {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {rownum}, column {columns[j]!r}: non-finite value {cell!r}"
                    )
                out[j].append(value)
    return [np.array(column, dtype=float) for column in out]


def _read_outcome(read, path, columns):
    try:
        values = read(path, columns)
    except (ParseError, SchemaError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("values",) + tuple((v.dtype.str, v.tobytes()) for v in values)


# cells that Python's float reads and numpy might not, or that it rejects
_CELL_FORMS = [
    " 2.5 ", "1_0", "\t7", "infinity", "-Infinity", "nan", "1e400", "4.9e-325", "-0.0",
    '"3.5"', '" 4 "', '"1,5"', '"1\n2"', "0x1p3", "abc", "", "  ", "1e-320",
]
_CELLS = st.one_of(
    st.sampled_from(_CELL_FORMS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def _table_lines(draw, width):
    """Data lines: mostly well-formed rows, with blank rows and wrong widths among them."""
    def line():
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "commas", "short", "long"]))
        if kind == "blank":
            return ""
        if kind == "spaces":
            return " \t "
        if kind == "commas":
            return "," * (width - 1)
        n = {"row": width, "short": width - 1, "long": width + 1}[kind]
        return ",".join(draw(_CELLS) for _ in range(n))

    return [line() for _ in range(draw(st.integers(0, 12)))]


class TestReadRowsByColumn:
    """The column-at-a-time reader against the cell-by-cell one it replaced."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), columns=st.sampled_from([("x",), ("x", "y")]), crlf=st.booleans())
    def test_same_values_and_errors(self, data, columns, crlf, tmp_path):
        lines = data.draw(_table_lines(len(columns)))
        path = tmp_path / "t.csv"
        path.write_bytes(("\r\n" if crlf else "\n").join([",".join(columns)] + lines).encode())
        assert _read_outcome(_read_rows, str(path), columns) == _read_outcome(
            _reference_read_rows, str(path), columns
        )

    @pytest.mark.parametrize("cell", _CELL_FORMS)
    def test_each_cell_form(self, cell, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"x,y\n0.5,{cell}\n\n{cell},1\n")
        assert _read_outcome(_read_rows, str(path), ("x", "y")) == _read_outcome(
            _reference_read_rows, str(path), ("x", "y")
        )

    def test_bad_cell_reported_before_a_later_short_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n0.5,oops\n1\n")
        with pytest.raises(ParseError, match="row 3, column 'y': cannot parse 'oops'"):
            read_regression_table(str(path))


class TestExitCodes:
    def test_kernels_show_theta2(self, capsys):
        assert main(["kernels", "show", "--kernel", "epanechnikov", "--moment", "theta2"]) == 0
        assert capsys.readouterr().out.strip() == "0.6"

    @pytest.mark.parametrize("trunc", ["0.5", "0,0.5,1", "a,b"])
    def test_kernels_show_malformed_trunc(self, trunc, capsys):
        code = main(["kernels", "show", "--kernel", "epanechnikov", "--trunc", trunc])
        assert code == 1
        error = _last_error(capsys)
        assert error["error"] == "SchemaError"
        assert "--trunc" in error["message"] and "lo,hi" in error["message"]

    def test_kernels_show_trunc(self, capsys):
        code = main(["kernels", "show", "--kernel", "epanechnikov", "--trunc=-1,0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_missing_data_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["density", "infer", "--x", "0"])
        assert err.value.code == 2
        assert "--data" in json.loads(capsys.readouterr().err)["message"]

    def test_schema_error_exits_one(self, density_csv, capsys):
        code = main(["lpreg", "infer", "--data", density_csv, "--x", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SchemaError"

    def test_estimation_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n0.0,1.0\n0.0,2.0\n5.0,1.0\n")
        code = main(
            ["lpreg", "infer", "--data", str(path), "--x", "0", "--h", "0.5"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SingularDesignError"


class TestParser:
    def test_one_parser_per_command(self, monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser()
        assert sorted(parser.prog for parser in made) == [
            "npinfer", "npinfer bw", "npinfer density", "npinfer kernels", "npinfer lpreg",
            "npinfer sim",
        ]

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["sim", "sweep", "--estimator", "lpreg", "--model", "5", "--h-grid", "0.3:0.5:2",
              "--curves", "c.csv"], "invalid choice: 'sweep'"),
            (["density", "infer", "--data", "d.csv", "--x", "0", "--seed", "1"],
             "unrecognized arguments: --seed 1"),
            (["lpreg", "infer", "--data", "r.csv", "--x", "0", "--seed", "1"],
             "unrecognized arguments: --seed 1"),
            (["bw", "--data", "d.csv", "--x", "0", "--seed", "1"],
             "unrecognized arguments: --seed 1"),
        ],
        ids=["sim-sweep", "density-infer-seed", "lpreg-infer-seed", "bw-seed"],
    )
    def test_removed_spellings_are_usage_errors(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error = _last_error(capsys)
        assert error["error"] == "usage"
        assert fragment in error["message"]


class TestDensityInferCommand:
    def test_json_payload_and_manifest(self, density_csv, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(
            [
                "density", "infer", "--data", density_csv, "--x", "0.0",
                "--h", "auto", "--bw", "mse", "--rho", "1",
                "--kernel", "epanechnikov", "--alpha", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("x", "h", "b", "rho", "kappa", "f_hat", "bias_hat",
                    "se_us", "se_rbc", "intervals", "bandwidth"):
            assert key in payload
        assert payload["bandwidth"]["rule"] == "mse"
        assert len(payload["intervals"]) == 3

        manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
        assert manifest["version"]
        # no density infer option draws random numbers, so it takes no --seed
        assert manifest["seed"] is None
        assert density_csv in manifest["inputs"]
        assert len(manifest["inputs"][density_csv]) == 64  # sha256 hex
        assert str(out) in manifest["outputs"]

    def test_fixed_bandwidth_provenance(self, density_csv, capsys):
        assert main(["density", "infer", "--data", density_csv, "--x", "0", "--h", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bandwidth"] == {"rule": "fixed", "value": 0.5}

    def test_rho_zero_serializes_b_as_null(self, density_csv, capsys):
        code = main(
            ["density", "infer", "--data", density_csv, "--x", "0",
             "--h", "0.5", "--rho", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"] is None
        assert payload["rho"] == 0.0
        # with rho = 0 the correction vanishes and RBC collapses onto US
        us, _bc, rbc = payload["intervals"]
        assert rbc["half_width"] == us["half_width"]
        assert payload["bias_hat"] == 0.0


class TestLpregInferCommand:
    def test_rho_zero_rejected(self, regression_csv, capsys):
        code = main(
            ["lpreg", "infer", "--data", regression_csv, "--x", "0",
             "--h", "0.5", "--rho", "0"]
        )
        assert code == 1
        assert "rho" in json.loads(capsys.readouterr().err)["message"]

    def test_full_flags(self, regression_csv, capsys):
        code = main(
            [
                "lpreg", "infer", "--data", regression_csv, "--x", "0",
                "--p", "1", "--q", "2", "--h", "auto", "--rho", "1",
                "--vce", "hc3", "--alpha", "0.05",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 1 and payload["q"] == 2
        assert payload["bandwidth"]["rule"] == "dpi"
        flavors = [ci["flavor"] for ci in payload["intervals"]]
        assert flavors == ["US", "BC", "RBC"]

    def test_q_defaults_to_p_plus_one(self, regression_csv, capsys):
        argv = ["lpreg", "infer", "--data", regression_csv, "--x", "0", "--p", "3",
                "--h", "auto", "--bw", "mse"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 3 and payload["q"] == 4


class TestBwCommand:
    def test_density_bw(self, density_csv, capsys):
        assert main(["bw", "--data", density_csv, "--x", "0", "--method", "mse"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "mse-normal-ref"
        assert payload["value"] > 0

    def test_lpreg_bw(self, regression_csv, capsys):
        code = main(
            ["bw", "--data", regression_csv, "--x", "0", "--method", "dpi",
             "--estimator", "lpreg", "--p", "1", "--alpha", "0.05"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "dpi"
        assert "diagnostics" in payload


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestRuleParity:
    """select, the bw command and the infer commands agree on every rule's h."""

    @pytest.mark.parametrize(
        "estimator,rule", [(e, r) for e, rules in RULES.items() for r in rules]
    )
    def test_same_bandwidth_on_every_path(
        self, estimator, rule, density_csv, regression_csv, capsys
    ):
        if estimator == "density":
            data = density_csv
            sample = read_density_table(data)
            options = {"L": kernel("mseopt-deriv2")}
        else:
            data = regression_csv
            sample = read_regression_table(data)
            options = {}
        h = select(rule, sample, 0.3, kernel("epanechnikov"), **options).value

        assert main([estimator, "infer", "--data", data, "--x", "0.3", "--bw", rule]) == 0
        assert json.loads(capsys.readouterr().out)["bandwidth"] == {"value": h, "rule": rule}
        argv = ["bw", "--data", data, "--x", "0.3", "--estimator", estimator, "--method", rule]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["value"] == h

    def test_density_dpi_follows_rho(self, density_csv, capsys):
        sample = read_density_table(density_csv)
        K, L = kernel("epanechnikov"), kernel("mseopt-deriv2")
        h = select("dpi", sample, 0.3, K, L=L, rho=0.5).value
        assert h != select("dpi", sample, 0.3, K, L=L).value
        argv = ["density", "infer", "--data", density_csv, "--x", "0.3", "--rho", "0.5",
                "--h", "auto"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["bandwidth"] == {"value": h, "rule": "dpi"}

    def test_bw_rule_the_estimator_lacks_is_estimation_error(self, regression_csv, capsys):
        argv = ["bw", "--data", regression_csv, "--x", "0.3", "--estimator", "lpreg",
                "--method", "silverman"]
        assert main(argv) == 1
        assert _last_error(capsys)["error"] == "ConfigError"

    def test_degenerate_silverman_is_zero_curvature(self, tmp_path, capsys):
        path = tmp_path / "constant.csv"
        path.write_text("x\n1.0\n1.0\n1.0\n1.0\n")
        code = main(["density", "infer", "--data", str(path), "--x", "1", "--bw", "silverman"])
        assert code == 1
        assert _last_error(capsys)["error"] == "ZeroCurvatureError"

    @pytest.mark.parametrize("method", ["silverman", "mse", "rot"])
    def test_one_row_density_bw_is_zero_curvature(self, method, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x\n0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["bw", "--data", str(path), "--x", "0", "--method", method])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "ZeroCurvatureError"
        assert "at least two observations" in error["message"]

    @pytest.mark.parametrize(
        "command,rows",
        [
            (["density", "infer", "--bw", "dpi"], ["x"] + ["1.0"] * 4),
            (["bw", "--method", "dpi"], ["x"] + ["1.0"] * 4),
            (["lpreg", "infer", "--h", "auto"], ["x,y"] + [f"1.0,{i}.0" for i in range(50)]),
            (
                ["bw", "--estimator", "lpreg", "--method", "dpi"],
                ["x,y"] + [f"1.0,{i}.0" for i in range(50)],
            ),
        ],
        ids=["density-infer", "bw", "lpreg-infer", "lpreg-bw"],
    )
    def test_degenerate_dpi_is_zero_curvature(self, command, rows, tmp_path, capsys):
        path = tmp_path / "constant.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(command + ["--data", str(path), "--x", "1"])
        assert code == 1
        error = _last_error(capsys)
        assert error["error"] == "ZeroCurvatureError"
        assert "standard deviation is zero" in error["message"]

    @pytest.mark.parametrize("x", ["0.03419276725318417", "0.1"])
    def test_roundoff_spread_dpi_is_zero_curvature(self, x, tmp_path, capsys):
        # eleven copies of this value have a sample std of 7.3e-18
        path = tmp_path / "constant.csv"
        path.write_text("x\n" + "0.03419276725318417\n" * 11)
        argv = ["bw", "--data", str(path), "--x", x, "--method", "dpi", "--kappa", "4",
                "--kernel", "minvar-order4", "--bias-kernel", "mseopt-order4"]
        assert main(argv) == 1
        error = _last_error(capsys)
        assert error["error"] == "ZeroCurvatureError"
        assert "standard deviation is zero" in error["message"]

    @pytest.mark.parametrize(
        "estimator,table",
        [("density", "x\n-1e308\n0\n1e308\n1.5e308\n"),
         ("lpreg", "x,y\n-1e308,0\n0,1\n1e308,2\n1.5e308,3\n")],
    )
    def test_overflowing_range_exits_one(self, estimator, table, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(table)
        assert main([estimator, "infer", "--data", str(path), "--x", "0", "--h", "1"]) == 1
        error = _last_error(capsys)
        assert error["error"] == "ValueError"
        assert "range overflows" in error["message"]

    @pytest.mark.parametrize("estimator,model", [("density", "1"), ("lpreg", "5")])
    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_sim_non_finite_rho_is_config_error(self, estimator, model, rho, monkeypatch, capsys):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulate, "_one_replication", must_not_run)
        code = main(["sim", estimator, "--model", model, "--n", "60", "--reps", "2",
                     "--points", "0", "--workers", "1", "--rho", rho])
        assert code == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert "rho must be finite" in error["message"]

    @pytest.mark.parametrize(
        "estimator, rho, fragment",
        [
            ("density", "nan", "rho must be finite, got nan"),
            ("density", "inf", "rho must be finite, got inf"),
            ("density", "-1", "rho must be nonnegative, got -1.0"),
            ("lpreg", "nan", "rho must be finite, got nan"),
            ("lpreg", "inf", "rho must be finite, got inf"),
            ("lpreg", "-1", "rho must be positive for local polynomial estimation, got -1.0"),
        ],
    )
    def test_infer_rho_checked_before_any_work(self, estimator, rho, fragment, monkeypatch,
                                               capsys):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("the data were read")

        monkeypatch.setattr(cli, "_read_rows", must_not_run)
        argv = [estimator, "infer", "--data", "t.csv", "--x", "0", "--rho", rho]
        assert main(argv) == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert fragment in error["message"]

    @pytest.mark.parametrize("estimator", ["density", "lpreg"])
    @pytest.mark.parametrize("h", ["abc", "nan", "inf", "0", "-1"])
    def test_infer_h_checked_before_any_work(self, estimator, h, monkeypatch, capsys):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("the data were read")

        monkeypatch.setattr(cli, "_read_rows", must_not_run)
        argv = [estimator, "infer", "--data", "t.csv", "--x", "0", "--h", h]
        assert main(argv) == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert f"--h must be 'auto' or a positive finite number, got {h!r}" in error["message"]

    @pytest.mark.parametrize(
        "command",
        [["density", "infer"], ["lpreg", "infer"], ["bw", "--estimator", "density"],
         ["bw", "--estimator", "lpreg"]],
        ids=["density-infer", "lpreg-infer", "density-bw", "lpreg-bw"],
    )
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.2", "nan"])
    def test_alpha_checked_before_any_work(self, command, alpha, monkeypatch, capsys):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("the data were read")

        monkeypatch.setattr(cli, "_read_rows", must_not_run)
        assert main(command + ["--data", "t.csv", "--x", "0", "--alpha", alpha]) == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert f"alpha must lie in (0, 1), got {float(alpha)!r}" in error["message"]

    @pytest.mark.parametrize(
        "estimator, infer_options, bw_options, fields, fragment",
        [
            ("lpreg", ["--q", "1"], None, {"q": 1}, "q > p >= 0, got p=1, q=1"),
            ("lpreg", ["--p", "-1", "--h", "0.5"], ["--p", "-1"],
             {"p": -1, "bw_rule": "fixed", "fixed_h": 0.5}, "q > p >= 0, got p=-1, q=0"),
            ("lpreg", ["--vce", "nn", "--nn-neighbors", "0"], None,
             {"vce": "nn", "nn_neighbors": 0}, "nn_neighbors must be >= 1"),
            ("lpreg", ["--p", "2", "--q", "3", "--h", "auto"], ["--p", "2"], {"p": 2, "q": 3},
             "degree p = 2 with kernel 'epanechnikov'"),
            ("density", ["--kappa", "4"], ["--kappa", "4"], {"kappa": 4},
             "order-4 derivative kernel"),
            ("density", ["--rho", "nan"], None, {"rho": math.nan}, "rho must be finite, got nan"),
            ("lpreg", ["--rho", "nan"], None, {"rho": math.nan}, "rho must be finite, got nan"),
            ("density", ["--rho", "-1"], None, {"rho": -1.0}, "rho must be nonnegative, got -1.0"),
            ("lpreg", ["--rho", "-1"], None, {"rho": -1.0}, "rho must be positive"),
            ("density", ["--alpha", "1.5"], ["--alpha", "1.5"], {"alpha": 1.5},
             "alpha must lie in (0, 1), got 1.5"),
            ("lpreg", ["--alpha", "1.5"], ["--alpha", "1.5"], {"alpha": 1.5},
             "alpha must lie in (0, 1), got 1.5"),
            ("lpreg", None, ["--kappa", "4"], {"kappa": 4}, "lpreg estimation never reads kappa=4"),
            ("density", None, ["--p", "3"], {"p": 3}, "density estimation never reads p=3"),
            ("lpreg", None, ["--method", "silverman"], {"bw_rule": "silverman"},
             "unknown lpreg bandwidth rule 'silverman'"),
            ("density", ["--rho", "0"], None, {"rho": 0.0}, "dpi rule needs rho > 0"),
        ],
        ids=["q-not-above-p", "negative-p", "no-neighbors", "even-degree", "kappa-4",
             "density-rho-nan", "lpreg-rho-nan", "density-rho-negative", "lpreg-rho-negative",
             "density-alpha", "lpreg-alpha", "lpreg-kappa", "density-p", "lpreg-silverman",
             "density-dpi-rho-zero"],
    )
    def test_infer_and_mc_config_reject_alike(self, estimator, infer_options, bw_options, fields,
                                              fragment, monkeypatch, capsys):
        """McConfig, the infer command and bw give one ConfigError for a setting;
        None marks a command that has no option for it."""
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("the data were read")

        with pytest.raises(ConfigError) as exc:
            McConfig(estimator=estimator, model=1 if estimator == "density" else 5, n=60,
                     replications=2, evaluation_points=(0.0,), **fields)
        assert fragment in str(exc.value)
        monkeypatch.setattr(cli, "_read_rows", must_not_run)
        for command, options in (([estimator, "infer"], infer_options),
                                 (["bw", "--estimator", estimator], bw_options)):
            if options is not None:
                assert main(command + ["--data", "t.csv", "--x", "0"] + options) == 1
                assert _last_error(capsys) == {"error": "ConfigError", "message": str(exc.value)}

    def test_lpreg_dpi_rejects_alpha_above_one(self, regression_csv, capsys):
        argv = ["bw", "--estimator", "lpreg", "--method", "dpi", "--alpha", "1.5"]
        assert main(argv + ["--data", regression_csv, "--x", "0"]) == 1
        assert "alpha must lie in (0, 1)" in _last_error(capsys)["message"]

    @pytest.mark.parametrize(
        "command",
        [["lpreg", "infer", "--h", "auto", "--q", "3"], ["bw", "--estimator", "lpreg"]],
        ids=["lpreg-infer", "lpreg-bw"],
    )
    def test_even_degree_interior_rule_exits_one(self, command, regression_csv, capsys):
        code = main(command + ["--data", regression_csv, "--x", "0", "--p", "2"])
        assert code == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert "degree p = 2 with kernel 'epanechnikov'" in error["message"]

    @pytest.mark.parametrize(
        "command",
        [["lpreg", "infer", "--h", "auto"], ["bw", "--estimator", "lpreg", "--method", "mse"]],
        ids=["lpreg-infer", "lpreg-bw"],
    )
    def test_singular_kernel_moments_exit_one(self, command, regression_csv, capsys):
        code = main(command + ["--data", regression_csv, "--x", "0", "--kernel", "minvar-order4"])
        assert code == 1
        error = _last_error(capsys)
        assert error["error"] == "ConfigError"
        assert "kernel 'minvar-order4'" in error["message"]
        assert "second moment vanishes" in error["message"]

    def test_sim_rule_checked_before_any_replication(self, capsys):
        code = main(["sim", "lpreg", "--model", "5", "--bw", "silverman", "--workers", "2"])
        assert code == 1
        assert _last_error(capsys)["error"] == "ConfigError"


class TestSimCommand:
    def test_sim_lpreg_report_and_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "sim", "lpreg", "--model", "5", "--n", "80", "--reps", "5",
            "--bw", "dpi", "--seed", "42", "--points", "0", "--workers", "1",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["config"]["seed"] == 42
        assert report["results"][0]["methods"]["RBC"]["coverage"] is not None

    def test_sweep_csv_columns(self, tmp_path):
        curves = tmp_path / "c.csv"
        code = main(
            [
                "sim", "lpreg", "--model", "5",
                "--n", "60", "--reps", "4", "--points", "0",
                "--h-grid", "0.2:0.4:2", "--curves", str(curves),
                "--seed", "3", "--workers", "1",
            ]
        )
        assert code == 0
        lines = curves.read_text().strip().splitlines()
        assert lines[0] == "h,method,coverage,mean_length,mean_bias"
        assert len(lines) == 1 + 2 * 3

    def test_sweep_manifest_records_the_grid(self, tmp_path):
        curves = tmp_path / "c.csv"
        code = main(
            ["sim", "lpreg", "--model", "5", "--n", "60", "--reps", "2", "--points", "0",
             "--h-grid", "0.2:0.4:2", "--curves", str(curves), "--workers", "1"]
        )
        assert code == 0
        config = json.loads((tmp_path / "c.csv.manifest.json").read_text())["config"]
        assert config["bw_rule"] == "fixed" and config["fixed_h"] is None
        rows = curves.read_text().splitlines()[1:]
        assert config["h_grid"] == sorted({float(row.split(",")[0]) for row in rows})

    def test_curves_with_no_used_replication(self, tmp_path):
        # every pilot fails far outside the data, so the point has no mean h
        curves = tmp_path / "c.csv"
        code = main(
            ["sim", "lpreg", "--model", "5", "--n", "60", "--reps", "2", "--points", "25",
             "--bw", "mse", "--workers", "1", "--out", str(tmp_path / "r.json"),
             "--curves", str(curves)]
        )
        assert code == 0
        assert curves.read_text().splitlines()[1:] == [",US,,,", ",BC,,,", ",RBC,,,"]

    @pytest.mark.parametrize(
        "args, error, fragment",
        [
            (["sim", "lpreg", "--h-grid", "0.2:0.4:2"], "SchemaError", "requires --curves"),
            (["sim", "lpreg", "--h-grid", "0.3:inf:2", "--curves", "x.csv"], "ValueError", "< inf"),
            (["sim", "lpreg", "--h-grid", "nan:0.4:2", "--curves", "x.csv"], "ValueError", "< inf"),
            (["sim", "lpreg", "--h-grid", "0.2:nan:2", "--curves", "x.csv"], "ValueError", "< inf"),
            (["sim", "lpreg", "--points", ""], "ConfigError", "evaluation_points must not be empty"),
            (["sim", "lpreg", "--h-grid", "0.2:0.4:2.5", "--curves", "x.csv"], "SchemaError",
             "--h-grid expects lo:hi:count"),
            (["sim", "lpreg", "--x-law", "1"], "ConfigError", "x_law must be a pair"),
            (["sim", "lpreg", "--x-law", "0,0"], "ConfigError", "x_law must be a pair"),
            (["sim", "lpreg", "--p", "2", "--q", "3"], "ConfigError", "degree p = 2"),
            (["sim", "lpreg", "--h", "0.3", "--h-grid", "0.2:0.4:2", "--curves", "x.csv"],
             "SchemaError", "--h and --h-grid"),
            (["sim", "lpreg", "--h", "0.3", "--bw", "mse"], "SchemaError", "--bw and --h "),
            (["sim", "density", "--h", "0.3", "--bw", "dpi"], "SchemaError", "--bw and --h "),
            (["sim", "lpreg", "--h-grid", "0.2:0.4:2", "--bw", "mse", "--curves", "x.csv"],
             "SchemaError", "--bw and --h-grid"),
            (["sim", "lpreg", "--h-grid", "0.2:0.4:2", "--curves", "x.csv", "--out", "r.json"],
             "SchemaError", "--out and --h-grid"),
            (["sim", "density", "--vce", "nn", "--p", "3", "--boundary", "--q", "5"],
             "ConfigError", "density estimation never reads p=3, q=5, vce='nn', boundary=True"),
            (["sim", "density", "--x-law", "5,6"], "ConfigError",
             "density estimation never reads x_law=(5.0, 6.0)"),
        ],
        ids=["grid-without-curves", "inf-hi", "nan-lo", "nan-hi",
             "empty-points", "fractional-count", "x-law-one-value", "x-law-degenerate",
             "even-degree", "h-with-grid", "bw-with-h", "bw-named-default-with-h",
             "bw-with-grid", "out-with-grid", "density-regression-settings", "density-x-law"],
    )
    def test_rejected_before_any_replication(self, args, error, fragment, monkeypatch, capsys):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulate, "_one_replication", must_not_run)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args + ["--model", "5", "--n", "60", "--reps", "300", "--workers", "1"])
        assert code == 1
        payload = _last_error(capsys)
        assert payload["error"] == error
        assert fragment in payload["message"]

    def test_sim_without_bw_runs_dpi(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["sim", "lpreg", "--model", "5", "--n", "60", "--reps", "2", "--points", "0",
             "--workers", "1", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["bw_rule"] == "dpi"

    def test_sim_density_runs(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(
            ["sim", "density", "--model", "1", "--n", "100", "--reps", "4",
             "--bw", "silverman", "--points", "0", "--seed", "7",
             "--workers", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["estimator"] == "density"


def test_workers_env_override(monkeypatch):
    from npinfer.cli import _resolve_workers

    class Args:
        workers = None

    monkeypatch.setenv("RBC_NPINFER_WORKERS", "3")
    assert _resolve_workers(Args()) == 3
    monkeypatch.delenv("RBC_NPINFER_WORKERS")
    assert _resolve_workers(Args()) == (os.cpu_count() or 1)
    Args.workers = 5
    monkeypatch.setenv("RBC_NPINFER_WORKERS", "2")
    assert _resolve_workers(Args()) == 5


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_workers_flag_below_one_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "lpreg", "--model", "5", "--workers", value])
    assert exc.value.code == 2
    assert _last_error(capsys)["error"] == "usage"


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "many"])
def test_workers_env_rejected_before_any_replication(value, monkeypatch, capsys):
    monkeypatch.setenv("RBC_NPINFER_WORKERS", value)
    code = main(["sim", "lpreg", "--model", "5", "--n", "60", "--reps", "1", "--points", "0"])
    assert code == 1
    error = _last_error(capsys)
    assert error["error"] == "ConfigError"
    assert "RBC_NPINFER_WORKERS" in error["message"]
