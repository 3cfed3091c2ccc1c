"""Monte Carlo bias/MSE study harness for the five estimation methods.

A design fixes the true parameters, sample sizes, methods, replicate count
and a master seed.  Each replicate draws a fresh sample with a seed derived
from (master seed, sample-size index, replicate index), so results are
bit-identical regardless of execution schedule, then fits every requested
method to the same sample.  Replicates whose fit fails with a typed error
(no start succeeded, degenerate or nonpositive data, invalid parameters),
or whose sample cannot be drawn because a quantile underflows or
overflows, are excluded from the averages and counted as failed fits of
every method; any other error propagates.
The report holds numbers only; ``rtgle simulate`` prints it as a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import (QuantileOverflow, QuantileUnderflow, RtgleParams,
                           _index, sample, validate)
# fit is looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .estimate import (EstimationMethod, OptimizerConfig, fit,  # noqa: F401
                       fit_many)

PARAM_LABELS = ("alpha", "beta", "gamma", "p")


def default_sim_optimizer(true_params: RtgleParams,
                          seed: int = 0) -> OptimizerConfig:
    """The optimizer setup of replicated fits: a single local search started
    at the truth, stopped by the one policy of every search.  A coordinate
    of a truth on the edge (a rate at 0, p at 0 or 1) starts at the fit's
    moment start instead.  Dispersed multi-start search is deliberately
    avoided here; it occasionally hops to distant near-equivalent optima,
    which inflates the spread of the error distribution the study is
    trying to measure."""
    return OptimizerConfig(n_starts=1, seed=seed,
                           start=true_params.as_tuple())


@dataclass
class SimDesign:
    true_params: RtgleParams
    sample_sizes: tuple[int, ...]
    methods: tuple[EstimationMethod, ...]
    replicates: int
    seed: int = 0

    def __post_init__(self):
        validate(*self.true_params.as_tuple())
        self.sample_sizes = tuple(_index(n, "sample_sizes")
                                  for n in self.sample_sizes)
        self.methods = tuple(self.methods)
        self.replicates = _index(self.replicates, "replicates")
        self.seed = _index(self.seed, "seed")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(n < 10 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 10")
        if not self.sample_sizes or not self.methods:
            raise ValueError("sample_sizes and methods must be nonempty")
        # a repeated entry would only repeat its cells
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ValueError("sample_sizes must not repeat")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("methods must not repeat")


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
    config = default_sim_optimizer(design.true_params, seed=design.seed)
    report = SimReport(design=design)
    for si, n in enumerate(design.sample_sizes):
        err_sum = {m: np.zeros(4) for m in design.methods}
        err2_sum = {m: np.zeros(4) for m in design.methods}
        used = {m: 0 for m in design.methods}
        failed = {m: 0 for m in design.methods}
        samples = []
        for rep in range(design.replicates):
            try:
                samples.append(sample(design.true_params, n, seed=(
                    _replicate_seed(design.seed, si, rep))))
            except (QuantileUnderflow, QuantileOverflow):
                # a draw outside the floats leaves nothing to fit
                for m in design.methods:
                    failed[m] += 1
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
