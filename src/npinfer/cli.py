"""Command-line interface: estimation, bandwidth selection, and simulation
runs with persisted JSON/CSV artifacts and a reproducibility manifest.

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
from .kernels import kernel, kernel_names
from .locpoly import RegressionSample, VarianceMethod, lp_infer
from .simulate import McConfig, bandwidth_grid_sweep, curve_rows, run_mc

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
    return out


def read_density_table(path) -> DensitySample:
    """Parse a single-column CSV (header ``x``) into a density sample."""
    (x,) = _read_rows(path, ("x",))
    return DensitySample(np.array(x))


def read_regression_table(path) -> RegressionSample:
    """Parse a two-column CSV (header ``x,y``) into a regression sample."""
    x, y = _read_rows(path, ("x", "y"))
    return RegressionSample(np.array(x), np.array(y))


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
        _write_manifest(out, argv, config, getattr(args, "seed", None), inputs, [out])
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

def _infer_bandwidth(args, sample, K, **options):
    """(h, rule) of an infer command: the fixed --h, or what the --bw rule selects."""
    if args.h != "auto":
        return float(args.h), "fixed"
    return select(args.bw, sample, args.x, K, alpha=args.alpha, **options).value, args.bw


def _emit_inference(res, h, rule, sample, args, argv):
    payload = res.to_dict()
    payload["bandwidth"] = {"value": h, "rule": rule}
    payload["n"] = sample.n
    _emit(payload, args, argv, _args_config(args), [args.data])
    return 0


def cmd_density_infer(args, argv):
    sample = read_density_table(args.data)
    K = kernel(args.kernel)
    L = kernel(args.bias_kernel)
    h, rule = _infer_bandwidth(args, sample, K, L=L, kappa=args.kappa)
    b = math.inf if args.rho == 0 else h / args.rho
    res = density_infer(sample, args.x, h, b, K, L, args.kappa, args.alpha)
    return _emit_inference(res, h, rule, sample, args, argv)


def cmd_lpreg_infer(args, argv):
    if args.rho <= 0:
        raise ValueError("rho must be positive for local polynomial inference")
    sample = read_regression_table(args.data)
    K = kernel(args.kernel)
    L = kernel(args.bias_kernel or args.kernel)
    h, rule = _infer_bandwidth(args, sample, K, p=args.p, boundary=args.boundary)
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
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or lo <= 0 or hi < lo:
        raise ValueError("grid must satisfy 0 < lo <= hi and count >= 1")
    if count == 1:
        return (lo,)
    return tuple(np.geomspace(lo, hi, count))


def _csv_cell(value) -> str:
    """A float's repr; empty for a point where every replication failed."""
    return "" if value is None else repr(float(value))


def cmd_sim(args, argv):
    estimator = args.sim_command if args.sim_command in ("density", "lpreg") else args.estimator
    default_points = "-2,-1,0,1,2" if estimator == "density" else "-0.6667,-0.3333,0,0.3333,0.6667"
    points = _parse_points(args.points or default_points)
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

    if args.sim_command == "sweep" and not args.h_grid:
        raise SchemaError("sim sweep requires --h-grid lo:hi:count")

    rows = None
    if args.h_grid:
        grid = _parse_grid(args.h_grid)
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
        if not args.curves:
            raise SchemaError("--h-grid requires --curves for the output table")
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
        lo, hi = _parse_points(args.trunc)
        from .kernels import TruncatedSupport

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
    skip = {"func", "sim_command", "command"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _add_common_estimation(sp):
    sp.add_argument("--data", required=True, help="input CSV path")
    sp.add_argument("--x", type=float, required=True, help="evaluation point")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--kernel", default="epanechnikov", choices=kernel_names())
    sp.add_argument("--out", default=None, help="write JSON here (default: stdout)")
    sp.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    # a rule that the estimator lacks is an estimation error (exit 1), not a usage error
    all_rules = tuple(dict.fromkeys(rule for rules in RULES.values() for rule in rules))
    parser = _Parser(prog="npinfer", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dens = sub.add_parser("density", help="kernel density estimation")
    dens_sub = dens.add_subparsers(dest="subcommand", required=True)
    d_inf = dens_sub.add_parser("infer", help="point estimate and US/BC/RBC intervals")
    _add_common_estimation(d_inf)
    d_inf.add_argument("--h", default="auto", help="bandwidth value or 'auto'")
    d_inf.add_argument("--bw", default="dpi", choices=RULES["density"])
    d_inf.add_argument("--rho", type=float, default=1.0)
    d_inf.add_argument("--kappa", type=int, default=2)
    d_inf.add_argument("--bias-kernel", default=DEFAULT_BIAS_KERNEL, choices=kernel_names())
    d_inf.set_defaults(func=cmd_density_infer)

    lp = sub.add_parser("lpreg", help="local polynomial regression")
    lp_sub = lp.add_subparsers(dest="subcommand", required=True)
    l_inf = lp_sub.add_parser("infer", help="point estimate and US/BC/RBC intervals")
    _add_common_estimation(l_inf)
    l_inf.add_argument("--h", default="auto", help="bandwidth value or 'auto'")
    l_inf.add_argument("--bw", default="dpi", choices=RULES["lpreg"])
    l_inf.add_argument("--p", type=int, default=1)
    l_inf.add_argument("--q", type=int, default=2)
    l_inf.add_argument("--rho", type=float, default=1.0)
    l_inf.add_argument("--vce", default="hc3", choices=VarianceMethod.KINDS)
    l_inf.add_argument("--nn-neighbors", type=int, default=3)
    l_inf.add_argument("--bias-kernel", default=None, choices=kernel_names())
    l_inf.add_argument("--boundary", action="store_true")
    l_inf.set_defaults(func=cmd_lpreg_infer)

    bw = sub.add_parser("bw", help="bandwidth selection")
    _add_common_estimation(bw)
    bw.add_argument("--method", default="dpi", choices=all_rules)
    bw.add_argument("--estimator", default="density", choices=tuple(RULES))
    bw.add_argument("--p", type=int, default=1)
    bw.add_argument("--kappa", type=int, default=2)
    bw.add_argument("--bias-kernel", default=DEFAULT_BIAS_KERNEL, choices=kernel_names())
    bw.add_argument("--boundary", action="store_true")
    bw.set_defaults(func=cmd_bw)

    sim = sub.add_parser("sim", help="Monte Carlo studies")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    for name in ("density", "lpreg", "sweep"):
        ss = sim_sub.add_parser(name)
        ss.add_argument("--model", type=int, required=True)
        ss.add_argument("--n", type=int, default=500)
        ss.add_argument("--reps", type=int, default=2000)
        ss.add_argument("--bw", default="dpi", choices=all_rules)
        ss.add_argument("--h", type=float, default=None, help="fixed bandwidth override")
        ss.add_argument("--h-grid", default=None, help="lo:hi:count sweep grid")
        ss.add_argument("--points", default=None, help="comma-separated evaluation points")
        ss.add_argument("--alpha", type=float, default=0.05)
        ss.add_argument("--p", type=int, default=1)
        ss.add_argument("--q", type=int, default=2)
        ss.add_argument("--rho", type=float, default=1.0)
        ss.add_argument("--kappa", type=int, default=2)
        ss.add_argument("--kernel", default="epanechnikov", choices=kernel_names())
        ss.add_argument("--bias-kernel", default=None, choices=kernel_names())
        ss.add_argument("--vce", default="hc3", choices=VarianceMethod.KINDS)
        ss.add_argument("--nn-neighbors", type=int, default=3)
        ss.add_argument("--boundary", action="store_true")
        ss.add_argument("--x-law", default=None, help="lo,hi uniform support override")
        ss.add_argument("--seed", type=int, default=1)
        ss.add_argument("--workers", type=_worker_count, default=None)
        ss.add_argument("--out", default=None)
        ss.add_argument("--curves", default=None)
        if name == "sweep":
            ss.add_argument("--estimator", default="lpreg", choices=tuple(RULES))
        ss.set_defaults(func=cmd_sim)

    kern = sub.add_parser("kernels", help="kernel inspection")
    kern_sub = kern.add_subparsers(dest="subcommand", required=True)
    show = kern_sub.add_parser("show")
    show.add_argument("--kernel", required=True, choices=kernel_names())
    show.add_argument("--moment", default="mu0", help="muK or thetaK")
    show.add_argument("--at", type=float, default=None, help="evaluate the kernel at u")
    show.add_argument("--trunc", default=None, help="lo,hi truncated support")
    show.set_defaults(func=cmd_kernels_show)

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
