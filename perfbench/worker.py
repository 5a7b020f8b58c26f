"""Child process of the benchmark: one fresh interpreter per job.

    python3 perfbench/worker.py <setup|measure|trace|scale> --workload W --seed S
        --seconds T --work DIR [--smoke] [--n N]

Prints one JSON object as its last line of standard output.  Only the
standard library is imported before the set-up clock starts, so setup_s
covers importing numpy, scipy and npinfer plus the first call.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402

# Tolerances of the reference check (see README.md).
REF_REL_TOL = 2e-6  # mean h, mean length: the DPI minimizer stops at 1e-6 relative width
CLI_REL_TOL = 1e-9  # CLI output against the same library calls made directly
MIN_POOLED_RBC_COVERAGE = 0.85  # RBC at nominal 95%; checked on >= 400 intervals


class Gates:
    """Correctness checks; each failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


def _numpy_scalar(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, default=_numpy_scalar).encode()


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# set-up: import plus the first call
# ----------------------------------------------------------------------

def cli_inputs(work):
    return sorted(glob.glob(os.path.join(work, "data*.csv")))


def warm_up(args):
    """Import npinfer and make the workload's first, untimed call."""
    if wl.is_mc(args.workload):
        from npinfer import simulate

        cfg = wl.mc_config(args.workload, args.sizes.n_mc, 1, wl.derive_seed(args.seed, "warm-up"))
        simulate.run_mc(cfg, workers=1)
    else:
        from npinfer import cli

        out = os.path.join(args.work, f"warm-up-{os.getpid()}.json")
        if cli.main(wl.cli_argv(cli_inputs(args.work)[0], wl.CLI_XS[0], out)) != 0:
            raise RuntimeError("warm-up CLI call failed")


def timed_setup(args) -> float:
    start = time.perf_counter()
    warm_up(args)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Monte Carlo workloads
# ----------------------------------------------------------------------

def check_report(gates, cfg, report, coverage):
    """Every (rep, point) is accounted for; returns its failed operations."""
    reps = cfg.replications
    failed = 0
    for i, x in enumerate(report.points):
        lost = report.singular_failures[i] + report.bandwidth_failures[i]
        gates.check(report.used_replications[i] + lost == reps,
                    f"seed {cfg.seed} x={x}: replications not accounted for")
        failed += lost
        if report.used_replications[i]:
            coverage[0] += report.coverage["RBC"][i] * report.used_replications[i]
            coverage[1] += report.used_replications[i]
    return failed


def check_pooled_coverage(gates, coverage):
    """coverage = [covered intervals, intervals] of the RBC method."""
    if coverage[1] >= 400:
        gates.check(coverage[0] / coverage[1] >= MIN_POOLED_RBC_COVERAGE,
                    f"pooled RBC coverage {coverage[0] / coverage[1]:.3f}")


def check_reference(gates, args):
    """The default-seed reference study against reference.json."""
    from npinfer import simulate

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        ref = json.load(handle)[args.workload]
    cfg = wl.mc_config(args.workload, 500, wl.REFERENCE_REPS, wl.REFERENCE_SEED)
    got = reference_figures(simulate.run_mc(cfg, workers=1))
    for want, have in zip(ref, got):
        where = f"reference x={want['x']}"
        if not gates.check(want["used"] == have["used"], f"{where}: used {have['used']}"):
            continue
        slack = 1.0 / max(1, want["used"]) + 1e-12  # one replication may flip
        for m, cov in want["coverage"].items():
            gates.check(abs(cov - have["coverage"][m]) <= slack, f"{where}: {m} coverage")
        for m, length in want["mean_length"].items():
            gates.check(math.isclose(length, have["mean_length"][m], rel_tol=REF_REL_TOL),
                        f"{where}: {m} mean length")
        gates.check(math.isclose(want["mean_h"], have["mean_h"], rel_tol=REF_REL_TOL),
                    f"{where}: mean h")


def reference_figures(report) -> list:
    return [
        {
            "x": x,
            "used": report.used_replications[i],
            "coverage": {m: report.coverage[m][i] for m in ("US", "BC", "RBC")},
            "mean_length": {m: report.mean_length[m][i] for m in ("US", "BC", "RBC")},
            "mean_h": report.bandwidth_stats[i]["mean"],
        }
        for i, x in enumerate(report.points)
    ]


def measure_mc(args, gates):
    from npinfer import simulate

    workers = wl.MC_WORKERS[args.workload]
    reps = args.sizes.reps_per_call[args.workload]
    latencies, runs = [], []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < args.seconds:
        cfg = wl.mc_config(args.workload, args.sizes.n_mc, reps,
                           wl.derive_seed(args.seed, "call", len(latencies)))
        t0 = time.perf_counter()
        report = simulate.run_mc(cfg, workers=workers)
        latencies.append(time.perf_counter() - t0)
        runs.append((cfg, report))
    rss = peak_rss_mb()

    coverage = [0.0, 0]
    failed = sum(check_report(gates, cfg, report, coverage) for cfg, report in runs)
    check_pooled_coverage(gates, coverage)
    cfg, report = runs[0]
    gates.check(report_bytes(simulate.run_mc(cfg, workers=1)) == report_bytes(report),
                f"seed {cfg.seed}: {workers}-worker report differs from 1-worker report")
    check_reference(gates, args)
    ops = len(runs) * reps * len(cfg.evaluation_points)
    return {
        "latencies_s": latencies,
        "units_done": len(runs) * reps,
        "unit": f"replications ({len(runs)} run_mc calls of {reps} reps x "
                f"{len(cfg.evaluation_points)} points, workers={workers})",
        "attempted": ops,
        "failed": failed,
        "peak_rss_mb": rss,
    }


def traced_pair(tracer, passes, run):
    """run(kind) untraced and traced; returns {kind: result}, {kind: seconds}.

    The order alternates with the pass number so that drift in machine
    speed does not bias the tracing-overhead estimate.
    """
    results, seconds = {}, {}
    for kind in (("plain", "traced") if passes % 2 == 0 else ("traced", "plain")):
        t0 = time.perf_counter()
        with tracer.active() if kind == "traced" else contextlib.nullcontext():
            results[kind] = run(kind)
        seconds[kind] = time.perf_counter() - t0
    return results, seconds


def trace_mc(args, gates, tracer):
    from npinfer import simulate

    workers = wl.MC_WORKERS[args.workload]
    reps = args.sizes.reps_per_call[args.workload]
    plain_s = traced_s = pooled_s = 0.0
    ops = failed = passes = 0
    coverage = [0.0, 0]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        cfg = wl.mc_config(args.workload, args.sizes.n_mc, reps,
                           wl.derive_seed(args.seed, "trace", passes))
        reports, seconds = traced_pair(tracer, passes, lambda _kind: simulate.run_mc(cfg, workers=1))
        plain_s += seconds["plain"]
        traced_s += seconds["traced"]
        t0 = time.perf_counter()
        pooled = simulate.run_mc(cfg, workers=workers)
        pooled_s += time.perf_counter() - t0

        want = report_bytes(pooled)
        for kind, report in reports.items():
            gates.check(report_bytes(report) == want,
                        f"seed {cfg.seed}: {kind} 1-worker report differs from {workers}-worker report")
        failed += check_report(gates, cfg, reports["traced"], coverage)
        ops += reps * len(cfg.evaluation_points)
        passes += 1
    check_pooled_coverage(gates, coverage)
    check_reference(gates, args)
    return {
        "ops": ops,
        "failed": failed,
        "overhead": traced_s / plain_s - 1.0,
        "parallel_eff": plain_s / (workers * pooled_s),
    }


# ----------------------------------------------------------------------
# CLI workload
# ----------------------------------------------------------------------

def cli_calls(args):
    """(data path, x) of call i, cycling over every file and x."""
    files = cli_inputs(args.work)
    return [(path, x) for x in wl.CLI_XS for path in files]


def direct_results(calls) -> dict:
    """The CLI payload computed by calling the library directly."""
    import numpy as np
    from npinfer import kernel
    from npinfer.bandwidth import dpi_bandwidth_lp
    from npinfer.locpoly import RegressionSample, VarianceMethod, lp_infer

    K = kernel("epanechnikov")
    out = {}
    for path, x in calls:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        sample = RegressionSample(data[:, 0], data[:, 1])
        choice = dpi_bandwidth_lp(sample, x, 1, False, K, 0.05)
        h = choice.value
        res = lp_infer(sample, x, 1, 2, h, h, K, K, 0.05, VarianceMethod("nn", 3))
        payload = res.to_dict()
        payload["bandwidth"] = {"value": h, "rule": choice.rule}
        payload["n"] = sample.n
        out[(path, x)] = json.loads(json.dumps(payload, default=_numpy_scalar))
    return out


def same(want, have) -> bool:
    if isinstance(want, float) and isinstance(have, (int, float)):
        return math.isclose(want, have, rel_tol=CLI_REL_TOL, abs_tol=1e-300)
    if isinstance(want, dict) and isinstance(have, dict):
        return want.keys() == have.keys() and all(same(want[k], have[k]) for k in want)
    if isinstance(want, list) and isinstance(have, list):
        return len(want) == len(have) and all(same(a, b) for a, b in zip(want, have))
    return want == have


def file_sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_cli_outputs(gates, done, expected) -> int:
    """Checks each call's exit code, output and manifest; returns failed calls."""
    digests = {path: file_sha256(path) for path, _x in expected}
    failed = 0
    for (path, x), rc, out in done:
        where = f"{os.path.basename(path)} x={x}"
        ok = gates.check(rc == 0, f"{where}: exit code {rc}")
        if ok:
            ok = gates.check(same(expected[(path, x)], _load_json(out)),
                             f"{where}: output differs from the direct library call")
            manifest = _load_json(out + ".manifest.json") or {}
            ok = gates.check(manifest.get("inputs", {}).get(path) == digests[path],
                             f"{where}: manifest input digest") and ok
        failed += not ok
    return failed


def run_cli_calls(cli, calls, work, tag, latencies=None):
    """Makes each call once; returns ((path, x), exit code, output path) per call."""
    done = []
    for i, (path, x) in enumerate(calls):
        out = os.path.join(work, f"{tag}-{i}.json")
        t0 = time.perf_counter()
        rc = cli.main(wl.cli_argv(path, x, out))
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        done.append(((path, x), rc, out))
    return done


def measure_cli(args, gates):
    from npinfer import cli

    calls = cli_calls(args)
    latencies, done = [], []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < args.seconds:
        i = len(done)
        done += run_cli_calls(cli, [calls[i % len(calls)]], args.work, f"call{i}", latencies)
    rss = peak_rss_mb()
    failed = check_cli_outputs(gates, done, direct_results(calls))
    return {
        "latencies_s": latencies,
        "units_done": len(done),
        "unit": f"calls (closed loop, one caller, cycling {len(calls)} (file, x) pairs)",
        "attempted": len(done),
        "failed": failed,
        "peak_rss_mb": rss,
    }


def trace_cli(args, gates, tracer):
    from npinfer import cli

    calls = cli_calls(args)
    expected = direct_results(calls)
    plain_s = traced_s = 0.0
    done = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        runs, seconds = traced_pair(
            tracer, passes, lambda kind: run_cli_calls(cli, calls, args.work, f"{kind}{passes}"))
        plain_s += seconds["plain"]
        traced_s += seconds["traced"]
        done += runs["plain"] + runs["traced"]
        passes += 1
    failed = check_cli_outputs(gates, done, expected)
    return {
        "ops": passes * len(calls),
        "failed": failed,
        "overhead": traced_s / plain_s - 1.0,
        "parallel_eff": 0.0,
    }


# ----------------------------------------------------------------------
# scaling probe
# ----------------------------------------------------------------------

def scale(args):
    """Median time of dpi_bandwidth_lp and lp_infer(vce="nn") at one n."""
    import numpy as np
    from npinfer import kernel
    from npinfer.bandwidth import dpi_bandwidth_lp
    from npinfer.locpoly import RegressionSample, VarianceMethod, lp_infer

    x, y = wl.regression_data(args.n, wl.derive_seed(args.seed, "scale", args.n))
    sample = RegressionSample(x, y)
    K = kernel("epanechnikov")
    nn = VarianceMethod("nn", 3)
    point = 0.0
    dpi_s, infer_s = [], []
    for i in range(1 + args.sizes.scale_repeats[args.n]):  # the first is a warm-up
        t0 = time.perf_counter()
        h = dpi_bandwidth_lp(sample, point, 1, False, K, 0.05).value
        t1 = time.perf_counter()
        res = lp_infer(sample, point, 1, 2, h, h, K, K, 0.05, nn)
        t2 = time.perf_counter()
        if i:
            dpi_s.append(t1 - t0)
            infer_s.append(t2 - t1)
    return {
        "dpi_s": statistics.median(dpi_s),
        "infer_nn_s": statistics.median(infer_s),
        "peak_rss_mb": peak_rss_mb(),
        "ops": len(dpi_s),
        "ok": bool(np.isfinite(res.ci_rbc.lower) and res.ci_rbc.half_width > 0),
    }


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace", "scale"))
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    args.sizes = wl.sizes(args.smoke)

    if args.mode == "scale":
        print(json.dumps(scale(args)))
        return 0
    setup_s = timed_setup(args)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gates = Gates()
    mc = wl.is_mc(args.workload)
    if args.mode == "measure":
        result = (measure_mc if mc else measure_cli)(args, gates)
        result["setup_s"] = setup_s
    else:
        import tracing

        tracer = tracing.Tracer()
        result = (trace_mc if mc else trace_cli)(args, gates, tracer)
        result["layers"] = tracing.layer_metrics(tracer, result["ops"])
        result["attempted"] = result["ops"]
        result["spans"] = len(tracer.spans)
        result["missing"] = sorted(tracer.missing)
        tracer.write(os.path.join(args.work, "spans.jsonl"))
    result["gates_attempted"] = gates.attempted
    result["gates_failed"] = gates.failed
    result["gate_messages"] = gates.messages[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
