"""In-memory span tracer around the public functions of each npinfer layer.

The tracer patches functions at run time from the benchmark; the library
itself is not changed.  A function imported by name into other npinfer
modules (``from .bandwidth import dpi_bandwidth_lp``) is replaced in every
namespace that binds it, so calls made inside the library are traced too.
Spans are kept in memory as (id, parent id, name, start, end) and written
out by ``write``; self time is accumulated as spans close.  Only
single-process work is traced: pool workers would not share the spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

_KS = "kernels.KernelSpec."

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = (
    ("npinfer.kernels", "kernel", "kernels.kernel"),
    ("npinfer.kernels", "induced_kernel", "kernels.induced_kernel"),
    ("npinfer.kernels", "minvar_derivative_kernel", "kernels.minvar_derivative_kernel"),
    ("npinfer.kernels", "derivative_part", "kernels.derivative_part"),
    ("npinfer.kernels", "KernelSpec.moment_mu", _KS + "moment_mu"),
    ("npinfer.kernels", "KernelSpec.moment_mu_exact", _KS + "moment_mu_exact"),
    ("npinfer.kernels", "KernelSpec.moment_theta", _KS + "moment_theta"),
    ("npinfer.kernels", "KernelSpec.power_weighted_integral", _KS + "power_weighted_integral"),
    ("npinfer.kernels", "KernelSpec.derivative", _KS + "derivative"),
    ("npinfer.kernels", "KernelSpec.eval_many", _KS + "eval_many"),
    ("npinfer.bandwidth", "dpi_bandwidth_lp", "bandwidth.dpi_bandwidth_lp"),
    ("npinfer.bandwidth", "dpi_bandwidth_density", "bandwidth.dpi_bandwidth_density"),
    ("npinfer.bandwidth", "mse_bandwidth_lp", "bandwidth.mse_bandwidth_lp"),
    ("npinfer.bandwidth", "global_poly_derivative", "bandwidth.global_poly_derivative"),
    ("npinfer.bandwidth", "minimize_ce_objective", "bandwidth.minimize_ce_objective"),
    ("npinfer.locpoly", "lp_fit", "locpoly.lp_fit"),
    ("npinfer.locpoly", "lp_residual_weights", "locpoly.lp_residual_weights"),
    ("npinfer.locpoly", "lp_infer", "locpoly.lp_infer"),
    ("npinfer.density", "density_infer", "density.density_infer"),
    ("npinfer.density", "density_derivative_estimate", "density.density_derivative_estimate"),
    ("npinfer.simulate", "gen_density_sample", "simulate.gen_density_sample"),
    ("npinfer.simulate", "gen_regression_sample", "simulate.gen_regression_sample"),
    ("npinfer.simulate", "run_mc", "simulate.run_mc"),
    ("npinfer.cli", "main", "cli.main"),
    ("npinfer.cli", "read_regression_table", "cli.read_table"),
    ("npinfer.cli", "read_density_table", "cli.read_table"),
)

# per-layer metric stem -> span names whose self time it sums
SELF_TIME = {
    "kernels.algebra_s": (
        "kernels.kernel", "kernels.induced_kernel", "kernels.minvar_derivative_kernel",
        "kernels.derivative_part", _KS + "moment_mu", _KS + "moment_mu_exact",
        _KS + "moment_theta", _KS + "power_weighted_integral", _KS + "derivative",
    ),
    "kernels.eval_s": (_KS + "eval_many",),
    "bandwidth.dpi_lp.self_s": ("bandwidth.dpi_bandwidth_lp",),
    "bandwidth.dpi_density.self_s": ("bandwidth.dpi_bandwidth_density",),
    "bandwidth.mse_lp.self_s": ("bandwidth.mse_bandwidth_lp",),
    "bandwidth.global_poly.self_s": ("bandwidth.global_poly_derivative",),
    "bandwidth.minimize.self_s": ("bandwidth.minimize_ce_objective",),
    "locpoly.lp_fit.self_s": ("locpoly.lp_fit",),
    "locpoly.residual_weights.hc3.self_s": ("locpoly.lp_residual_weights[hc3]",),
    "locpoly.residual_weights.nn.self_s": ("locpoly.lp_residual_weights[nn]",),
    "locpoly.lp_infer.self_s": ("locpoly.lp_infer",),
    "density.infer.self_s": ("density.density_infer",),
    "density.derivative_estimate.self_s": ("density.density_derivative_estimate",),
    "simulate.gen_sample.self_s": ("simulate.gen_density_sample", "simulate.gen_regression_sample"),
    "simulate.run_mc.self_s": ("simulate.run_mc",),
    "cli.read_table.self_s": ("cli.read_table",),
    "cli.main.self_s": ("cli.main",),
}

# per-layer metric -> span names whose calls it counts
CALLS = {
    "kernels.algebra_calls": SELF_TIME["kernels.algebra_s"],
    "bandwidth.dpi.calls": ("bandwidth.dpi_bandwidth_lp", "bandwidth.dpi_bandwidth_density"),
    "locpoly.lp_fit.calls": ("locpoly.lp_fit",),
}


def _residual_weights_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method")
    return f"locpoly.lp_residual_weights[{getattr(method, 'kind', '?')}]"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _lp_window(fn, args, kwargs, fit):
    """effective_n / n of one lp_fit call."""
    return fit.effective_n / _bound(fn, args, kwargs)["sample"].n


def _density_window(fn, args, kwargs, _result):
    """Share of observations with |x - X_i| <= h at one density_infer call."""
    import numpy as np

    a = _bound(fn, args, kwargs)
    return float(np.mean(np.abs(a["x"] - a["sample"].observations) <= a["h"]))


def _dpi_fallback(_fn, _args, _kwargs, choice):
    return float(choice.fallback)


# span name -> (observation name, function of (fn, args, kwargs, result))
OBSERVE = {
    "locpoly.lp_fit": ("locpoly.window_frac", _lp_window),
    "density.density_infer": ("density.window_frac", _density_window),
    "bandwidth.dpi_bandwidth_lp": ("bandwidth.dpi.fallback_frac", _dpi_fallback),
    "bandwidth.dpi_bandwidth_density": ("bandwidth.dpi.fallback_frac", _dpi_fallback),
}


class Tracer:
    """Spans and per-name totals for everything run inside ``active()``."""

    def __init__(self):
        self.spans = []
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.observations = defaultdict(list)
        self.missing = set()  # targets or observations the library no longer offers
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVE.get(name)
        namer = _residual_weights_name if name == "locpoly.lp_residual_weights" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((sid, parent, span, start, end))
                tracer.self_time[span] += duration - frame[1]
                tracer.calls[span] += 1
            if observe:
                try:
                    value = observe[1](fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    tracer.missing.add(observe[0])
                else:
                    tracer.observations[observe[0]].append(value)
            return result

        return traced

    def _patches(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        out = []
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # not imported by this workload
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                out.append((owner, method, original, self._wrap(name, original)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "npinfer" or mod_name.startswith("npinfer."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            out.append((mod, key, original, wrapper))
        return out

    @contextlib.contextmanager
    def active(self):
        """Trace every target for the duration of the block."""
        patches = self._patches()
        for owner, key, _original, wrapper in patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _wrapper in reversed(patches):
                setattr(owner, key, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation self times and counts, plus the observed ratios."""
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(tracer.self_time.get(n, 0.0) for n in names) / ops
    for metric, names in CALLS.items():
        out[metric] = sum(tracer.calls.get(n, 0) for n in names) / ops
    for metric in dict.fromkeys(name for name, _fn in OBSERVE.values()):
        values = tracer.observations.get(metric, [])
        out[metric] = sum(values) / len(values) if values else 0.0
    return out
