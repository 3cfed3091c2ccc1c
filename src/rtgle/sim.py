"""Monte Carlo bias/MSE study harness for the five estimation methods.

A design fixes the true parameters, sample sizes, methods, replicate count
and a master seed.  Each replicate draws a fresh sample with a seed derived
from (master seed, sample-size index, replicate index), so results are
bit-identical regardless of execution schedule, then fits every requested
method to the same sample.  Replicates whose fit fails with a typed error
(no start succeeded, degenerate or nonpositive data, invalid parameters)
are excluded from the averages and counted; any other error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import RtgleParams, sample, validate
# fit is looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .estimate import (EstimationMethod, OptimizerConfig, fit,  # noqa: F401
                       fit_many)

PARAM_LABELS = ("alpha", "beta", "gamma", "p")


def default_sim_optimizer(true_params: RtgleParams,
                          seed: int = 0) -> OptimizerConfig:
    """A lean optimizer setup for replicated fits: a single local search
    started at the truth, with looser stopping rules than the one-shot
    fitter.  Dispersed multi-start search is deliberately avoided here; it
    occasionally hops to distant near-equivalent optima, which inflates the
    spread of the error distribution the study is trying to measure."""
    return OptimizerConfig(max_iterations=1000, tolerance=1e-9, n_starts=1,
                           seed=seed, step_tolerance=1e-6,
                           start=true_params.as_tuple())


@dataclass
class SimDesign:
    true_params: RtgleParams
    sample_sizes: tuple[int, ...]
    methods: tuple[EstimationMethod, ...]
    replicates: int
    seed: int = 0
    optimizer: OptimizerConfig | None = None

    def __post_init__(self):
        validate(*self.true_params.as_tuple())
        self.sample_sizes = tuple(int(n) for n in self.sample_sizes)
        self.methods = tuple(self.methods)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if any(n < 10 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 10")
        if not self.sample_sizes or not self.methods:
            raise ValueError("sample_sizes and methods must be nonempty")


@dataclass
class SimCell:
    """Accumulated results for one (sample size, method) pair."""
    bias: tuple[float, float, float, float]
    mse: tuple[float, float, float, float]
    n_used: int
    n_failed_fits: int


@dataclass
class SimReport:
    design: SimDesign
    cells: dict[tuple[int, str], SimCell] = field(default_factory=dict)

    def cell(self, n: int, method: EstimationMethod) -> SimCell:
        return self.cells[(n, method.value)]


def _replicate_seed(master: int, size_index: int, rep: int) -> int:
    ss = np.random.SeedSequence([master, size_index, rep])
    return int(ss.generate_state(1)[0])


def run_design(design: SimDesign) -> SimReport:
    """Run the full replicated study; deterministic given the design."""
    truth = np.array(design.true_params.as_tuple())
    config = design.optimizer or default_sim_optimizer(design.true_params,
                                                       seed=design.seed)
    report = SimReport(design=design)
    for si, n in enumerate(design.sample_sizes):
        err_sum = {m: np.zeros(4) for m in design.methods}
        err2_sum = {m: np.zeros(4) for m in design.methods}
        used = {m: 0 for m in design.methods}
        failed = {m: 0 for m in design.methods}
        samples = [sample(design.true_params, n,
                          seed=_replicate_seed(design.seed, si, rep))
                   for rep in range(design.replicates)]
        for row in fit_many(samples, design.methods, config):
            for m, result in zip(design.methods, row):
                # fit_many returns typed errors only, and raises the rest
                if (isinstance(result, Exception)
                        or not np.isfinite(result.objective)):
                    failed[m] += 1
                    continue
                err = np.array(result.params.as_tuple()) - truth
                err_sum[m] += err
                err2_sum[m] += err * err
                used[m] += 1
        for m in design.methods:
            k = used[m]
            bias = err_sum[m] / k if k else np.full(4, np.nan)
            mse = err2_sum[m] / k if k else np.full(4, np.nan)
            report.cells[(n, m.value)] = SimCell(
                bias=tuple(float(v) for v in bias),
                mse=tuple(float(v) for v in mse),
                n_used=k, n_failed_fits=failed[m])
    return report


def report_to_table(report: SimReport) -> str:
    """Render the report as a fixed-layout text grid: one row per
    (n, method), column groups Bias(alpha..p) then MSE(alpha..p),
    4-decimal cells, an em dash for cells with no successful fits."""
    header = (["n", "method"]
              + [f"bias({s})" for s in PARAM_LABELS]
              + [f"mse({s})" for s in PARAM_LABELS]
              + ["failed"])
    rows = [header]
    for n in report.design.sample_sizes:
        for m in report.design.methods:
            cell = report.cells.get((n, m.value))
            if cell is None:
                rows.append([str(n), m.value.upper()] + ["—"] * 9)
                continue
            def fmt(v):
                return "—" if not np.isfinite(v) else f"{v:.4f}"
            rows.append([str(n), m.value.upper()]
                        + [fmt(v) for v in cell.bias]
                        + [fmt(v) for v in cell.mse]
                        + [str(cell.n_failed_fits)])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)
