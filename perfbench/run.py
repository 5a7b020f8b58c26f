"""npinfer benchmark: Monte Carlo throughput, CLI latency, per-layer traces.

    python3 perfbench/run.py --workload {mc-lpreg-dpi,mc-density-dpi,cli-lpreg-nn}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; npinfer is imported from ./src.
--trace 0 times the workload untraced and prints the end-to-end metrics of
BENCHMARK.json; --trace 1 runs a traced single-process pass plus the
scaling probe and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the machine block.  The exit
code is 1 when a correctness gate fails and 2 when the checkout has no
library to measure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RBC_NPINFER_WORKERS")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    """The caller's environment with ./src first on PYTHONPATH; thread-count
    variables are passed through exactly as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, args, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", args.work, *extra]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{mode} child exceeded {CHILD_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} child exited with code {proc.returncode}", 1)
    return json.loads(lines[-1])


def write_inputs(args):
    """CSV files of the CLI workload, generated from --seed."""
    s = wl.sizes(args.smoke)
    for j in range(s.cli_files):
        x, y = wl.regression_data(s.n_cli, wl.derive_seed(args.seed, "cli-data", j))
        with open(os.path.join(args.work, f"data{j}.csv"), "w", encoding="utf-8") as handle:
            handle.write("x,y\n")
            handle.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "npinfer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "rss_source": "resource.getrusage ru_maxrss (KiB) of the measuring process "
                      "plus RUSAGE_CHILDREN (its largest pool child); psutil not used",
    }


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args):
    setups = [run_child("setup", args)["setup_s"] for _ in range(wl.sizes(args.smoke).setup_probes)]
    res = run_child("measure", args)
    setups.append(res["setup_s"])
    lat = res["latencies_s"]
    metrics = {
        "reps_per_s": (res["units_done"] / sum(lat), "1/s"),
        "call_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "call_p90_ms": (1000.0 * quantile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "reps_per_s": f"{res['units_done']} {res['unit']} / {sum(lat):.3f} s",
        "call_p50_ms": f"{len(lat)} samples",
        "call_p90_ms": f"{len(lat)} samples",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    return res, metrics, notes


def per_layer(args):
    res = run_child("trace", args)
    spans_out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(spans_out, exist_ok=True)
    shutil.move(os.path.join(args.work, "spans.jsonl"),
                os.path.join(spans_out, f"spans-{args.workload}.jsonl"))
    metrics = {}
    for name, value in res["layers"].items():
        unit = "s/op" if name.endswith("_s") else "count/op" if name.endswith("calls") else "frac"
        metrics[name] = (value, unit)
    metrics["simulate.parallel_eff"] = (res["parallel_eff"], "frac")
    metrics["trace.overhead_frac"] = (res["overhead"], "frac")
    for label, n in wl.sizes(args.smoke).scale_ns:
        probe = run_child("scale", args, "--n", str(n))
        metrics[f"bandwidth.dpi_lp.n{label}_s"] = (probe["dpi_s"], "s")
        metrics[f"locpoly.lp_infer_nn.n{label}_s"] = (probe["infer_nn_s"], "s")
        metrics[f"peak_rss_mb.n{label}"] = (probe["peak_rss_mb"], "MB")
        res["attempted"] += probe["ops"]
        res["gates_attempted"] += 1
        if not probe["ok"]:
            res["gates_failed"] += 1
            res["gate_messages"].append(f"scaling probe n={n}: RBC interval not finite and positive")
    notes = {"spans": res["spans"], "ops": res["ops"], "missing_targets": res["missing"]}
    return res, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test; not a measurement")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "npinfer", "__init__.py")):
        fail(f"no npinfer sources under {SRC}; run from the root of a source checkout")

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    args.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        if not wl.is_mc(args.workload):
            write_inputs(args)
        res, metrics, notes = (per_layer if args.trace else end_to_end)(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    attempted = res["attempted"] + res["gates_attempted"]
    failed = res["failed"] + res["gates_failed"]
    correct = res["gates_failed"] == 0
    for message in res["gate_messages"]:
        print(f"perfbench: gate failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} frac  ({failed}/{attempted} operations"
          f" and gate checks failed)")
    if args.trace:
        print(f"trace: {notes['spans']} spans over {notes['ops']} operations; "
              f"targets not found: {notes['missing_targets'] or 'none'}")
    print(json.dumps({"machine": machine_block(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "smoke": args.smoke}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
