"""Command-line interface: estimation, bandwidth selection, and simulation
runs with persisted JSON/CSV artifacts and a reproducibility manifest.

Commands: density infer, lpreg infer, bw, kernels show, and sim density|lpreg,
whose --h-grid lo:hi:count sweeps a bandwidth grid on one set of replications.
Only sim draws random numbers, so only sim takes --seed.

Exit codes: 0 success, 2 usage error, 1 estimation error.  All errors are
printed as one-line JSON objects on standard error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bandwidth import RULES, select
from .density import DEFAULT_BIAS_KERNEL, DensitySample, density_infer
from .errors import ConfigError, NpinferError, ParseError, SchemaError
from .kernels import TruncatedSupport, kernel, kernel_names
from .locpoly import RegressionSample, VarianceMethod, lp_infer
from .simulate import McConfig, bandwidth_grid_sweep, check_rho, curve_rows, run_mc

__all__ = ["main", "read_density_table", "read_regression_table"]


class _Parser(argparse.ArgumentParser):
    """argparse with one-line JSON usage errors on stderr."""

    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        self.exit(2)


# ----------------------------------------------------------------------
# data ingestion
# ----------------------------------------------------------------------

def _read_rows(path, columns):
    """One float array per column from the non-blank rows after the header."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if header[: len(columns)] != list(columns) or len(header) != len(columns):
            raise SchemaError(
                f"{path}: expected header {','.join(columns)!r}, found {','.join(header)!r}"
            )
        rows, numbers = [], []
        try:
            for rownum, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue
                if len(row) != len(columns):
                    raise ParseError(
                        f"{path}: row {rownum} has {len(row)} fields, expected {len(columns)}"
                    )
                rows.append(row)
                numbers.append(rownum)
        except (ParseError, csv.Error, ValueError):
            _parse_cells(path, columns, rows, numbers)  # a bad cell above is reported first
            raise
    if not rows:
        return [np.empty(0) for _ in columns]
    try:
        values = [np.fromiter(map(float, cells), float, len(rows)) for cells in zip(*rows)]
    except ValueError:
        values = None
    if values is None or not all(np.all(np.isfinite(v)) for v in values):
        _parse_cells(path, columns, rows, numbers)
    return values


def _parse_cells(path, columns, rows, numbers):
    """Check the cells one by one in file order; the first that is not a
    finite float raises ParseError with its row number and column."""
    for rownum, row in zip(numbers, rows):
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


def read_density_table(path) -> DensitySample:
    """Parse a single-column CSV (header ``x``) into a density sample."""
    (x,) = _read_rows(path, ("x",))
    return DensitySample(x)


def read_regression_table(path) -> RegressionSample:
    """Parse a two-column CSV (header ``x,y``) into a regression sample."""
    x, y = _read_rows(path, ("x", "y"))
    return RegressionSample(x, y)


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _np_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_np_default)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(primary_out, argv, config, seed, inputs, outputs):
    manifest = {
        "command_line": ["npinfer"] + list(argv),
        "config": config,
        "seed": seed,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": list(outputs),
    }
    path = f"{primary_out}.manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump_json(manifest) + "\n")
    return path


def _emit(result, args, argv, config, inputs):
    text = _dump_json(result)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _write_manifest(out, argv, config, None, inputs, [out])
    else:
        print(text)


def _worker_count(text) -> int:
    """A worker count given as text; anything but an integer >= 1 is rejected."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 1, got {text!r}")
    return value


def _resolve_workers(args) -> int:
    """--workers, else RBC_NPINFER_WORKERS, else the machine's CPU count."""
    if args.workers is not None:
        return args.workers
    env = os.environ.get("RBC_NPINFER_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        return _worker_count(env)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"RBC_NPINFER_WORKERS: {exc}") from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _fixed_bandwidth(text):
    """The --h of an infer command: None for 'auto', else a positive finite float."""
    if text == "auto":
        return None
    try:
        h = float(text)
    except ValueError:
        h = math.nan
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"--h must be 'auto' or a positive finite number, got {text!r}")
    return h


def _infer_bandwidth(h, args, sample, K, **options):
    """(h, rule) of an infer command: the fixed h, or what the --bw rule selects."""
    if h is not None:
        return h, "fixed"
    return select(args.bw, sample, args.x, K, alpha=args.alpha, **options).value, args.bw


def _emit_inference(res, h, rule, sample, args, argv):
    payload = res.to_dict()
    payload["bandwidth"] = {"value": h, "rule": rule}
    payload["n"] = sample.n
    _emit(payload, args, argv, _args_config(args), [args.data])
    return 0


def cmd_density_infer(args, argv):
    check_rho("density", args.rho)
    h = _fixed_bandwidth(args.h)
    sample = read_density_table(args.data)
    K = kernel(args.kernel)
    L = kernel(args.bias_kernel)
    h, rule = _infer_bandwidth(h, args, sample, K, L=L, kappa=args.kappa)
    b = math.inf if args.rho == 0 else h / args.rho
    res = density_infer(sample, args.x, h, b, K, L, args.kappa, args.alpha)
    return _emit_inference(res, h, rule, sample, args, argv)


def cmd_lpreg_infer(args, argv):
    check_rho("lpreg", args.rho)
    h = _fixed_bandwidth(args.h)
    sample = read_regression_table(args.data)
    K = kernel(args.kernel)
    L = kernel(args.bias_kernel or args.kernel)
    h, rule = _infer_bandwidth(h, args, sample, K, p=args.p, boundary=args.boundary)
    method = VarianceMethod(args.vce, args.nn_neighbors)
    res = lp_infer(sample, args.x, args.p, args.q, h, h / args.rho, K, L, args.alpha, method)
    return _emit_inference(res, h, rule, sample, args, argv)


def cmd_bw(args, argv):
    if args.estimator == "density":
        sample = read_density_table(args.data)
        options = {"L": kernel(args.bias_kernel), "kappa": args.kappa}
    else:
        sample = read_regression_table(args.data)
        options = {"p": args.p, "boundary": args.boundary}
    choice = select(args.method, sample, args.x, kernel(args.kernel), alpha=args.alpha, **options)
    payload = {"value": choice.value, "rule": choice.rule, "diagnostics": choice.diagnostics}
    _emit(payload, args, argv, _args_config(args), [args.data])
    return 0


def _parse_points(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise SchemaError(f"--h-grid expects lo:hi:count, got {text!r}") from None
    if count < 1 or not 0 < lo <= hi < math.inf:
        raise ValueError("grid must satisfy 0 < lo <= hi < inf and count >= 1")
    if count == 1:
        return (lo,)
    return tuple(np.geomspace(lo, hi, count))


def _csv_cell(value) -> str:
    """A float's repr; empty for a point where every replication failed."""
    return "" if value is None else repr(float(value))


def cmd_sim(args, argv):
    if args.h_grid and not args.curves:
        raise SchemaError("--h-grid requires --curves for the output table")
    grid = _parse_grid(args.h_grid) if args.h_grid else None
    estimator = args.sim_command
    default_points = "-2,-1,0,1,2" if estimator == "density" else "-0.6667,-0.3333,0,0.3333,0.6667"
    points = _parse_points(default_points if args.points is None else args.points)
    x_law = _parse_points(args.x_law) if args.x_law else None
    config = McConfig(
        estimator=estimator,
        model=args.model,
        n=args.n,
        replications=args.reps,
        evaluation_points=points,
        alpha=args.alpha,
        p=args.p,
        q=args.q,
        rho=args.rho,
        kappa=args.kappa,
        kernel_name=args.kernel,
        bias_kernel_name=args.bias_kernel,
        vce=args.vce,
        nn_neighbors=args.nn_neighbors,
        bw_rule="fixed" if args.h is not None else args.bw,
        fixed_h=args.h,
        boundary=args.boundary,
        x_law=x_law,
        seed=args.seed,
    )
    workers = _resolve_workers(args)
    outputs = []

    rows = None
    if grid:
        rows = bandwidth_grid_sweep(config, grid, workers=workers)
        report = None
    else:
        report = run_mc(config, workers=workers)
        if args.curves:
            # degenerate single-rule "curve" at each point's mean bandwidth
            rows = curve_rows(report, [stats["mean"] for stats in report.bandwidth_stats])

    if report is not None and args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_dump_json(report.to_dict()) + "\n")
        outputs.append(args.out)
    elif report is not None:
        print(_dump_json(report.to_dict()))

    if rows is not None:
        multi_x = len(points) > 1
        with open(args.curves, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            head = ["h", "method", "coverage", "mean_length", "mean_bias"]
            writer.writerow((["x"] + head) if multi_x else head)
            for row in rows:
                base = [_csv_cell(row["h"]), row["method"]] + [
                    _csv_cell(row[key]) for key in ("coverage", "mean_length", "mean_bias")
                ]
                writer.writerow(([_csv_cell(row["x"])] + base) if multi_x else base)
        outputs.append(args.curves)

    if outputs:
        _write_manifest(outputs[0], argv, config.echo(), args.seed, [], outputs)
    return 0


def cmd_kernels_show(args, argv):
    spec = kernel(args.kernel)
    trunc = None
    if args.trunc:
        try:
            lo, hi = _parse_points(args.trunc)
        except ValueError:
            raise SchemaError(f"--trunc expects two numbers lo,hi, got {args.trunc!r}") from None
        trunc = TruncatedSupport(lo, hi)
    if args.at is not None:
        print(repr(spec(args.at)))
        return 0
    token = args.moment.lower()
    if token.startswith("theta"):
        value = spec.moment_theta(int(token[5:]), trunc)
    elif token.startswith("mu"):
        value = spec.moment_mu(int(token[2:]), trunc)
    else:
        raise SchemaError(f"unknown moment {args.moment!r}; use muK or thetaK")
    print(repr(value))
    return 0


def _args_config(args) -> dict:
    skip = {"func", "command"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    kernels = kernel_names()
    # a rule that the estimator lacks is an estimation error (exit 1), not a usage error
    all_rules = tuple(dict.fromkeys(rule for rules in RULES.values() for rule in rules))
    # every option once; a command names the options it takes and overrides
    # only the settings in which it differs
    options = {
        "--data": dict(required=True, help="input CSV path"),
        "--x": dict(type=float, required=True, help="evaluation point"),
        "--alpha": dict(type=float, default=0.05),
        "--kernel": dict(default="epanechnikov", choices=kernels),
        "--h": dict(default="auto", help="bandwidth value or 'auto'"),
        "--bw": dict(default="dpi", choices=all_rules),
        "--p": dict(type=int, default=1),
        "--q": dict(type=int, default=2),
        "--rho": dict(type=float, default=1.0),
        "--kappa": dict(type=int, default=2),
        "--bias-kernel": dict(default=None, choices=kernels),
        "--vce": dict(default="hc3", choices=VarianceMethod.KINDS),
        "--nn-neighbors": dict(type=int, default=3),
        "--boundary": dict(action="store_true"),
        "--out": dict(default=None, help="write JSON here (default: stdout)"),
    }
    estimation = ("--data", "--x", "--alpha", "--kernel")
    parser = _Parser(prog="npinfer", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, names, **overrides):
        """A command parser with the named options; overrides are keyed by dest."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        for option in names:
            dest = option[2:].replace("-", "_")
            sp.add_argument(option, **{**options[option], **overrides.get(dest, {})})
        return sp

    dens = command(
        "density", "kernel density estimation", cmd_density_infer,
        estimation + ("--h", "--bw", "--rho", "--kappa", "--bias-kernel", "--out"),
        bw=dict(choices=RULES["density"]), bias_kernel=dict(default=DEFAULT_BIAS_KERNEL),
    )
    dens.add_argument("subcommand", choices=("infer",))
    lp = command(
        "lpreg", "local polynomial regression", cmd_lpreg_infer,
        estimation + ("--h", "--bw", "--p", "--q", "--rho", "--vce", "--nn-neighbors",
                      "--bias-kernel", "--boundary", "--out"),
        bw=dict(choices=RULES["lpreg"]),
    )
    lp.add_argument("subcommand", choices=("infer",))
    bw = command(
        "bw", "bandwidth selection", cmd_bw,
        estimation + ("--p", "--kappa", "--bias-kernel", "--boundary", "--out"),
        bias_kernel=dict(default=DEFAULT_BIAS_KERNEL),
    )
    bw.add_argument("--method", default="dpi", choices=all_rules)
    bw.add_argument("--estimator", default="density", choices=tuple(RULES))
    sim = command(
        "sim", "Monte Carlo studies", cmd_sim,
        ("--bw", "--h", "--alpha", "--p", "--q", "--rho", "--kappa", "--kernel",
         "--bias-kernel", "--vce", "--nn-neighbors", "--boundary", "--out"),
        h=dict(type=float, default=None, help="fixed bandwidth override"),
    )
    sim.add_argument("sim_command", choices=tuple(RULES))
    sim.add_argument("--model", type=int, required=True)
    sim.add_argument("--n", type=int, default=500)
    sim.add_argument("--reps", type=int, default=2000)
    sim.add_argument("--h-grid", default=None, help="lo:hi:count sweep grid")
    sim.add_argument("--points", default=None, help="comma-separated evaluation points")
    sim.add_argument("--x-law", default=None, help="lo,hi uniform support override")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--workers", type=_worker_count, default=None)
    sim.add_argument("--curves", default=None)
    kern = command(
        "kernels", "kernel inspection", cmd_kernels_show, ("--kernel",),
        kernel=dict(required=True),
    )
    kern.add_argument("subcommand", choices=("show",))
    kern.add_argument("--moment", default="mu0", help="muK or thetaK")
    kern.add_argument("--at", type=float, default=None, help="evaluate the kernel at u")
    kern.add_argument("--trunc", default=None, help="lo,hi truncated support")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except SystemExit:
        raise
    except (NpinferError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
