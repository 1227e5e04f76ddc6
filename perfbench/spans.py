"""Span tracing from outside the package.

``Tracer.install`` wraps every public module-level function of the layer
modules.  The wrapper replaces the function under every name that is bound
to it, in every layer module and in the package namespace, because the
modules import each other's functions with ``from .x import f``: patching
only the defining module would miss most calls.  ``uninstall`` restores the
originals, so untraced jobs run the unmodified code.

Spans are kept in memory with parent links (``[id, parent, name, start,
end]``) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "impact_bsde"
LAYERS = ("lattice", "scenario", "pricer", "bsde", "norms", "verify", "config", "cli")
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self._modules.append(importlib.import_module(PACKAGE))
        self._targets = {}
        for layer, module in zip(LAYERS, self._modules):
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._targets[obj] = f"{layer}.{name}"

    # --- patching ---------------------------------------------------------

    def install(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name) or (_check_report_hook if name.startswith("verify.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(self.counters, args, result)
            return result
        return traced

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, name, time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int):
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, total inclusive seconds)."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[span_id]
            entry[2] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# --- counters read from return values ---------------------------------------

def _h_norm_hook(counters, args, report):
    counters["norms.h_norm.iterations"] += report.iterations or 0


def _solve_picard_hook(counters, args, result):
    diag = result[1]
    counters["bsde.picard_iterations"] += diag.iterations
    if not diag.converged:
        counters["bsde.picard_wasted_iterations"] += diag.iterations


def _price_raw_hook(counters, args, result):
    counters["pricer.price_raw.nodes"] += (1 << (result.lattice.num_steps + 1)) - 1


def _check_report_hook(counters, args, report):
    if getattr(report, "status", None) == "skip":
        counters["verify.checks_skipped"] += 1


def _optimality_hook(counters, args, report):
    counters["verify.competitors"] += report.details["competitors"]


_HOOKS = {
    "norms.h_norm": _h_norm_hook,
    "bsde.solve_picard": _solve_picard_hook,
    "pricer.price_raw": _price_raw_hook,
    "verify.check_optimality": _optimality_hook,
}


# --- per-layer metrics --------------------------------------------------------

CALLS = ("lattice.conditional_expectation", "lattice.stochastic_integral",
         "scenario.evaluate_market", "pricer.price_raw", "norms.h_bmo_norm",
         "norms.h_norm", "norms.measure_kappa")
SELF = ("lattice.conditional_expectation", "lattice.build_lattice",
        "lattice.stochastic_integral", "scenario.evaluate_market", "pricer.price_raw",
        "bsde.solve_picard", "bsde.picard_map_raw", "bsde.solve_explicit_raw",
        "norms.h_bmo_norm", "norms.stacked_integrand", "norms.h_norm",
        "norms.measure_kappa", "verify.check_optimality", "config.load_config")
COUNTS = ("bsde.picard_iterations", "norms.h_norm.iterations", "verify.competitors",
          "verify.checks_skipped")


def layer_metrics(tracer: Tracer, jobs: int, bytes_written: int,
                  traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-job means over ``jobs`` traced jobs, plus ratios of totals."""
    times = tracer.self_times()
    c = tracer.counters
    zero = (0, 0.0, 0.0)
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = times.get(name, zero)[0] / jobs
    for name in SELF:
        out[f"{name}.self_s"] = times.get(name, zero)[1] / jobs
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(v[1] for k, v in times.items()
                                     if k.startswith(prefix)) / jobs
    for name in COUNTS:
        out[name] = c[name] / jobs
    price_s = times.get("pricer.price_raw", zero)[2]
    out["pricer.price_raw.nodes_per_s"] = c["pricer.price_raw.nodes"] / price_s if price_s else 0.0
    iters = c["bsde.picard_iterations"]
    picard_s = times.get("bsde.solve_picard", zero)[2]
    out["bsde.picard_s_per_iter"] = picard_s / iters if iters else 0.0
    out["bsde.picard_wasted_iter_frac"] = (c["bsde.picard_wasted_iterations"] / iters
                                           if iters else 0.0)
    out["cli.bytes_written"] = bytes_written / jobs
    out["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return out
