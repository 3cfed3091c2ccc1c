"""Per-layer tracing for the benchmark, installed from outside the library.

Each traced name is replaced where it is looked up, because most rtgle
modules bind their collaborators at import time (``from .estimate import
fit``): wrapping ``rtgle.estimate.fit`` alone would miss the calls made
through ``rtgle.sim.fit``.  ``install`` swaps the wrappers in and
``Tracer.restore`` puts every original object back.

Hot leaf functions (scalar quantile, Lambert W, the density kernels) are
aggregated into counts and times only.  Every other traced call is also
kept as a span (name, start, end, parent) in memory and written out when
the benchmark ends.  A span's self time is its duration minus the time of
the traced calls made inside it.

Objective-evaluation counts come from the ``nfev`` of each ``minimize``
result: ``estimate._OBJECTIVES`` holds direct references to the objective
functions, so wrapping those would miss most evaluations.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

METHODS = ("mle", "lse", "wlse", "ade", "cme")

# (module where the name is looked up, attribute, traced name, kept as span)
SITES = (
    ("rtgle.distribution", "lambert_wm1_exp", "special.lambert_wm1_exp", False),
    ("rtgle.distribution", "quantile", "distribution.quantile", False),
    ("rtgle.distribution", "sample", "distribution.sample", True),
    ("rtgle.sim", "sample", "distribution.sample", True),
    ("rtgle.cli", "sample", "distribution.sample", True),
    ("rtgle.estimate", "log_pdf", "distribution.log_pdf", False),
    ("rtgle.estimate", "cdf", "distribution.cdf", False),
    ("rtgle.estimate", "sf", "distribution.sf", False),
    ("rtgle.estimate", "minimize", "estimate.minimize", True),
    ("rtgle.estimate", "fit", "estimate.fit", True),
    ("rtgle.sim", "fit", "estimate.fit", True),
    ("rtgle.cli", "fit", "estimate.fit", True),
    ("rtgle.estimate", "standard_errors", "estimate.standard_errors", True),
    ("rtgle.estimate", "nll_gradient", "estimate.nll_gradient", False),
    ("rtgle.compare", "minimize", "compare.minimize", True),
    ("rtgle.compare", "fit_competitor", "compare.fit_competitor", True),
    ("rtgle.compare", "comparison_table", "compare.comparison_table", True),
    ("rtgle.compare", "gof_report", "gof.gof_report", True),
    ("rtgle.cli", "gof_report", "gof.gof_report", True),
    ("rtgle.gof", "p_value", "gof.p_value", True),
    ("rtgle.sim", "run_design", "sim.run_design", True),
    ("rtgle.properties", "moment_quadrature",
     "properties.moment_quadrature", True),
    ("rtgle.properties", "quantile_measures",
     "properties.quantile_measures", True),
    ("rtgle.cli", "load_dataset", "datasets.load_dataset", True),
    ("rtgle.cli", "main", "cli.main", True),
)

# Every per-layer metric the traced run reports: (name, unit, better).
# BENCHMARK.json lists the same names; a self-test keeps the two in step.
_TIMED = ("s", "self_s")
PER_LAYER = (
    [("special.lambert_wm1_exp.calls", "count", "lower")]
    + [(f"special.lambert_wm1_exp.{t}", "s", "lower") for t in _TIMED]
    + [("distribution.quantile.calls", "count", "lower")]
    + [(f"distribution.quantile.{t}", "s", "lower") for t in _TIMED]
    + [("distribution.sample.calls", "count", "lower"),
       ("distribution.sample.draws", "count", "higher")]
    + [(f"distribution.sample.{t}", "s", "lower") for t in _TIMED]
    + [item for k in ("log_pdf", "cdf", "sf") for item in
       [(f"distribution.{k}.calls", "count", "lower")]
       + [(f"distribution.{k}.{t}", "s", "lower") for t in _TIMED]]
    + [(f"estimate.nfev.{m}", "count", "lower") for m in METHODS]
    + [("estimate.minimize.calls", "count", "lower")]
    + [(f"estimate.minimize.{t}", "s", "lower") for t in _TIMED]
    + [("estimate.fit.calls", "count", "lower")]
    + [(f"estimate.fit.{t}", "s", "lower") for t in _TIMED]
    + [("estimate.fit.p50_ms", "ms", "lower"),
       ("estimate.fit.p90_ms", "ms", "lower"),
       ("estimate.fit.samples", "count", "higher"),
       ("estimate.starts", "count", "lower"),
       ("estimate.fit.worse_than_start", "count", "lower"),
       ("estimate.standard_errors.calls", "count", "lower")]
    + [(f"estimate.standard_errors.{t}", "s", "lower") for t in _TIMED]
    + [("estimate.nll_gradient.calls", "count", "lower")]
    + [(f"estimate.nll_gradient.{t}", "s", "lower") for t in _TIMED]
    + [("compare.fit_competitor.calls", "count", "lower")]
    + [(f"compare.fit_competitor.{t}", "s", "lower") for t in _TIMED]
    + [("compare.minimize.calls", "count", "lower"),
       ("compare.nfev", "count", "lower")]
    + [(f"compare.comparison_table.{t}", "s", "lower") for t in _TIMED]
    + [("gof.gof_report.calls", "count", "lower")]
    + [(f"gof.gof_report.{t}", "s", "lower") for t in _TIMED]
    + [("gof.p_value.calls", "count", "lower")]
    + [(f"gof.p_value.{t}", "s", "lower") for t in _TIMED]
    + [("gof.refits", "count", "lower"),
       ("gof.refits_per_report", "count", "lower"),
       ("sim.run_design.calls", "count", "lower"),
       ("sim.run_design.s", "s", "lower"),
       ("sim.self_s", "s", "lower"),
       ("properties.moment_quadrature.calls", "count", "lower")]
    + [(f"properties.moment_quadrature.{t}", "s", "lower") for t in _TIMED]
    + [(f"properties.quantile_measures.{t}", "s", "lower") for t in _TIMED]
    + [(f"datasets.load_dataset.{t}", "s", "lower") for t in _TIMED]
    + [("cli.main.calls", "count", "lower"),
       ("cli.main.s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("trace.units", "count", "higher")]
)

# the self time of a module's entry point is reported under the module name
_SELF_ALIAS = {"sim.run_design.self_s": "sim.self_s",
               "cli.main.self_s": "cli.self_s"}


class Tracer:
    """Counts, times and spans for the traced names; one per traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self.fit_ms: list[float] = []
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.paused = False
        self._stack: list[list] = []       # [nearest kept span, child seconds]
        self._depth = defaultdict(int)
        self._method: str | None = None
        self._start_checks: list = []      # (method, start, data, objective)
        self._originals: list = []

    # --- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        """Replace every traced name with a wrapper that records into this
        tracer."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, keep in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, keep))
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # --- recording --------------------------------------------------------

    def _wrap(self, name, fn, keep_span):
        hooks = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            state = hooks[0](self, args, kwargs) if hooks else None
            start = perf_counter()
            if keep_span:
                sid = len(self.spans)
                self.spans.append([name, start, None, parent])
            else:
                sid = parent
            frame = [sid, 0.0]
            stack.append(frame)
            self._depth[name] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self._depth[name] -= 1
                dur = end - start
                if keep_span:
                    self.spans[sid][2] = end
                self.calls[name] += 1
                self.seconds[name] += dur
                self.self_seconds[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hooks:
                    hooks[1](self, state, args, kwargs, result, dur)

        traced.__wrapped__ = fn
        return traced

    def settle(self) -> None:
        """Evaluate the deferred objective-at-start checks, untraced."""
        from rtgle import estimate
        from rtgle.distribution import validate
        self.paused = True
        try:
            for method, start, data, objective in self._start_checks:
                at_start = estimate._OBJECTIVES[
                    estimate.EstimationMethod(method)](validate(*start), data)
                if objective > at_start:
                    self.counters["estimate.fit.worse_than_start"] += 1
        finally:
            self.paused = False
        self._start_checks.clear()

    # --- reporting --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two ``trace.*`` entries."""
        self.settle()
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            out[name] = 0
        names = {site[2] for site in SITES}
        for name in names:
            for key, value in ((f"{name}.calls", self.calls[name]),
                               (f"{name}.s", self.seconds[name]),
                               (f"{name}.self_s", self.self_seconds[name])):
                key = _SELF_ALIAS.get(key, key)
                if key in out:
                    out[key] = value
        for key, value in self.counters.items():
            if key in out:
                out[key] = value
        reports = self.counters["gof.bootstrap_reports"]
        out["gof.refits_per_report"] = (self.counters["gof.refits"] / reports
                                        if reports else 0)
        out["estimate.fit.samples"] = len(self.fit_ms)
        out["estimate.fit.p50_ms"] = _percentile(self.fit_ms, 0.5)
        out["estimate.fit.p90_ms"] = _percentile(self.fit_ms, 0.9)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


# --- per-name hooks: (before, after) -----------------------------------------

def _fit_before(tracer, args, kwargs):
    method = _arg(args, kwargs, 1, "method").value
    if tracer._depth["gof.p_value"]:
        tracer.counters["gof.refits"] += 1
    previous, tracer._method = tracer._method, method
    return previous


def _fit_after(tracer, previous, args, kwargs, result, dur):
    method, tracer._method = tracer._method, previous
    tracer.fit_ms.append(dur * 1e3)
    if result is None:
        return
    tracer.counters["estimate.starts"] += result.n_starts_used
    config = _arg(args, kwargs, 2, "config")
    if config is not None and config.start is not None:
        tracer._start_checks.append((method, config.start,
                                     _arg(args, kwargs, 0, "data"),
                                     result.objective))


def _estimate_minimize_after(tracer, state, args, kwargs, result, dur):
    if result is not None:
        tracer.counters[f"estimate.nfev.{tracer._method}"] += int(result.nfev)


def _compare_minimize_after(tracer, state, args, kwargs, result, dur):
    if result is not None:
        tracer.counters["compare.nfev"] += int(result.nfev)


def _sample_after(tracer, state, args, kwargs, result, dur):
    if result is not None:
        tracer.counters["distribution.sample.draws"] += len(result)


def _gof_report_before(tracer, args, kwargs):
    mode = _arg(args, kwargs, 4, "mode")
    if mode is not None and mode.value == "bootstrap":
        tracer.counters["gof.bootstrap_reports"] += 1


def _nothing(*_):
    return None


_HOOKS = {
    "estimate.fit": (_fit_before, _fit_after),
    "estimate.minimize": (_nothing, _estimate_minimize_after),
    "compare.minimize": (_nothing, _compare_minimize_after),
    "distribution.sample": (_nothing, _sample_after),
    "gof.gof_report": (_gof_report_before, _nothing),
}
