"""The three benchmark workloads and the checks on their outputs.

Each workload repeats a *unit* of work, in passes of ``pass_units`` units.
Unit ``k`` takes its inputs from ``(seed, k)`` only, so a run is
reproducible and the first units of two runs on one seed are identical.
A unit has two stages, each one call into rtgle timed through the
``timed`` function the harness passes in; the harness reports, for each
stage, the median over passes of the mean time in a pass as ``stage1_s``
and ``stage2_s``:

=========  =====================================  ===========================
workload   stage 1                                stage 2
=========  =====================================  ===========================
simstudy   ``sim.run_design`` at n = 50           ``sim.run_design`` at n = 200
realdata   ``rtgle compare`` (in-process CLI)     ``rtgle gof --bootstrap B``
kernels    bulk ``distribution.sample``           moment and quantile tables
=========  =====================================  ===========================

Every call into rtgle goes through a module attribute at call time, so the
tracing wrappers installed by ``tracing.Tracer`` see it.  The checks compare
outputs with the frozen values in ``tests/_reference.py``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from rtgle import cli, datasets, distribution, estimate, properties, sim


def derive_seed(*words: int) -> int:
    """A 32-bit seed that depends on every word, for per-unit inputs."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def load_reference(root):
    """The frozen acceptance values, read from the checkout's tests."""
    path = os.path.join(root, "tests", "_reference.py")
    spec = importlib.util.spec_from_file_location("_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Outcome:
    """What the checks found in one unit's outputs."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def timed_call(fn):
    """(seconds, result of ``fn()`` or the exception it raised)."""
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:     # reported as a failed operation
        traceback.print_exc()
        result = exc
    return perf_counter() - start, result


# --- simstudy ------------------------------------------------------------------

SIM_TRUTH = (1.2, 0.5, 1.5, 0.8)
SIM_SIZES = (50, 200)
SIM_REPLICATES = 2
# Unit k runs pool entry (seed + k) mod SIM_POOL.  The time of one fit
# varies by a factor of two or more from sample to sample, so with fresh
# samples in every unit the run medians spread by 6-13% across seeds.
# A run stops only after a whole pass over the pool, so every run, on any
# seed and at any speed, measures the same multiset of designs; the seed
# sets only the order.
SIM_POOL = 12


class Simstudy:
    """A slice of the criterion-11 Monte Carlo design: the truth
    (1.2, 0.5, 1.5, 0.8), n in {50, 200}, all five methods, the default
    simulation optimizer.  Nearly all the time is objective evaluations on
    small arrays."""

    name = "simstudy"
    count_units = 3
    pass_units = SIM_POOL

    def __init__(self, root, seed, out_dir):
        self.seed = seed
        self.methods = tuple(estimate.EstimationMethod)

    def prepare(self):
        self.truth = distribution.validate(*SIM_TRUTH)

    def inputs(self, k):
        return [sim.SimDesign(true_params=self.truth, sample_sizes=(n,),
                              methods=self.methods,
                              replicates=SIM_REPLICATES,
                              seed=derive_seed((self.seed + k) % SIM_POOL,
                                               i))
                for i, n in enumerate(SIM_SIZES)]

    def warm_up(self):
        sim.run_design(sim.SimDesign(
            true_params=self.truth, sample_sizes=(SIM_SIZES[0],),
            methods=(estimate.EstimationMethod.MLE,), replicates=1,
            seed=self.seed))

    def run_unit(self, k, timed):
        designs = self.inputs(k)
        return designs, [timed(lambda d=d: sim.run_design(d))
                         for d in designs]

    def check(self, outputs) -> Outcome:
        designs, reports = outputs
        out = Outcome()
        for design, report in zip(designs, reports):
            n = design.sample_sizes[0]
            for m in self.methods:
                cell = (None if isinstance(report, Exception)
                        else report.cells.get((n, m.value)))
                what = f"simstudy n={n} {m.value}"
                if cell is None:
                    for _ in range(design.replicates):
                        out.op(False, f"{what}: no cell")
                    continue
                consistent = (cell.n_used + cell.n_failed_fits
                              == design.replicates)
                finite = all(math.isfinite(v) for v in cell.bias + cell.mse)
                for i in range(design.replicates):
                    out.op(consistent and finite and i >= cell.n_failed_fits,
                           f"{what}: used {cell.n_used}, failed "
                           f"{cell.n_failed_fits}, finite {finite}")
        return out

    def figures(self, stage_s):
        fits = len(SIM_SIZES) * SIM_REPLICATES * len(self.methods)
        return {"fits_per_s": (fits / sum(stage_s), "fits/s")}


# --- realdata ------------------------------------------------------------------

COMPETITORS = ("RTGLE", "RTW", "W", "TW", "TL", "TLL", "RTLE", "LE")
BOOTSTRAP_B = 4


class Realdata:
    """The user path through the CLI on the outlier-trimmed failure-time
    data: ``rtgle compare`` then ``rtgle gof --bootstrap B`` at the
    reference estimate, both in-process.

    The workload seed permutes the rows of the data file and seeds the
    compare starts.  The bootstrap keeps the CLI's default seed, so its
    replicates, and hence its work, are the same on every workload seed:
    with B small, a seeded bootstrap would make ``stage2_s`` vary more
    from seed to seed than a regression bound can tolerate."""

    name = "realdata"
    count_units = 1
    pass_units = 1

    def __init__(self, root, seed, out_dir):
        self.seed = seed
        self.ref = load_reference(root)
        self.data_path = os.path.join(out_dir, f"realdata-{seed}.txt")
        self.compare_out = os.path.join(out_dir, f"compare-{seed}.json")
        self.gof_out = os.path.join(out_dir, f"gof-{seed}.json")

    def prepare(self):
        full = np.asarray(datasets.FAILURE_TIMES)
        trimmed = np.delete(full, datasets.flag_outliers_iqr(full))
        order = np.random.default_rng(self.seed).permutation(len(trimmed))
        with open(self.data_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(repr(float(v)) for v in trimmed[order]) + "\n")

    def inputs(self, k):
        compare = ["compare", "--data", self.data_path, "--format", "json",
                   "--out", self.compare_out,
                   "--seed", str(derive_seed(self.seed, k))]
        gof = ["gof", "--data", self.data_path,
               "--params", ",".join(repr(v) for v in self.ref.REAL_DATA_MLE),
               "--bootstrap", str(BOOTSTRAP_B), "--format", "json",
               "--out", self.gof_out]
        return compare, gof

    def warm_up(self):
        out = self.compare_out + ".warm"
        cli.main(["fit", "--data", self.data_path, "--n-starts", "1",
                  "--format", "json", "--out", out])
        os.remove(out)

    @staticmethod
    def _call(timed, argv, out_path):
        """The parsed JSON output of one CLI command, or its exit code."""
        if os.path.exists(out_path):
            os.remove(out_path)
        code = timed(lambda: cli.main(argv))
        if code != 0 or not os.path.exists(out_path):
            return code
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def run_unit(self, k, timed):
        compare, gof = self.inputs(k)
        return (self._call(timed, compare, self.compare_out),
                self._call(timed, gof, self.gof_out))

    def check(self, outputs) -> Outcome:
        rows, report = outputs
        ref = self.ref
        out = Outcome()
        by_model = ({r["model"]: r for r in rows}
                    if isinstance(rows, list) else {})
        for model in COMPETITORS:
            row = by_model.get(model)
            ok = row is not None and math.isfinite(row["-2logL"])
            what = f"compare {model}: {row!r}"
            if ok and model == "RTGLE":
                ok = row["-2logL"] <= ref.REAL_DATA_MINUS2LL + 0.01
            if ok and model == "W":
                params = dict(kv.split("=") for kv in row["params"].split("; "))
                mu, sigma = float(params["mu"]), float(params["sigma"])
                ok = (abs(mu - ref.REAL_DATA_WEIBULL[0])
                      <= 0.02 * ref.REAL_DATA_WEIBULL[0]
                      and abs(sigma - ref.REAL_DATA_WEIBULL[1])
                      <= 0.02 * ref.REAL_DATA_WEIBULL[1]
                      and abs(row["-2logL"] - ref.REAL_DATA_WEIBULL_MINUS2LL)
                      <= 0.5)
            out.op(ok, what)
        out.op(self._gof_ok(report), f"gof: {report!r}")
        return out

    def _gof_ok(self, report) -> bool:
        if not isinstance(report, dict):
            return False
        ref, b = self.ref.REAL_DATA_GOF, BOOTSTRAP_B
        stats_ok = (abs(report["ks"] - ref["ks"]) <= 0.005
                    and abs(report["cvm"] - ref["cvm"]) <= 0.01
                    and abs(report["ad"] - ref["ad"]) <= 0.05)
        p_ok = True
        for key in ("p_ks", "p_cvm", "p_ad"):
            exceed = report[key] * (b + 1) - 1.0
            p_ok &= (abs(exceed - round(exceed)) <= 1e-9
                     and 0 <= round(exceed) <= b)
        return (stats_ok and p_ok and report["n"] == 47
                and report["p_value_mode"] == f"bootstrap({b})")

    def figures(self, stage_s):
        return {"compare_s": (stage_s[0], "s"),
                "bootstrap_s": (stage_s[1], "s")}


# --- kernels -------------------------------------------------------------------

# criterion 6: beta = 0, alpha = 0, p = 0 and p = 1 reach every branch of
# the quantile and the Lambert W kernel
KERNEL_SETS = ((0.5, 0.5, 1.2, 0.2), (1.0, 0.0, 1.0, 0.5),
               (0.0, 1.0, 0.8, 0.9), (2.0, 0.3, 2.0, 0.0),
               (0.7, 1.5, 0.6, 1.0))
ROUNDTRIP_U = np.linspace(0.0005, 0.9995, 21)
KERNEL_DRAWS = 40_000


class Kernels:
    """Few huge calls instead of many tiny ones: bulk exact sampling on the
    criterion-6 parameter sets, then the paper's 28-row moment table and
    28-row quantile table.  No estimation runs here."""

    name = "kernels"
    count_units = 1
    pass_units = 1

    def __init__(self, root, seed, out_dir):
        self.seed = seed
        self.ref = load_reference(root)

    def prepare(self):
        self.sets = [distribution.validate(*s) for s in KERNEL_SETS]
        self.moment_params = [distribution.validate(*row[:4])
                              for row in self.ref.MOMENT_ROWS]
        self.quantile_params = [distribution.validate(*row[:4])
                                for row in self.ref.QUANTILE_ROWS]

    def inputs(self, k):
        return [(params, KERNEL_DRAWS, derive_seed(self.seed, k, i))
                for i, params in enumerate(self.sets)]

    def warm_up(self):
        distribution.sample(self.sets[0], 1000, self.seed)
        properties.moment_quadrature(self.moment_params[0], 1)
        properties.quantile_measures(self.quantile_params[0])

    def _draw(self, inputs):
        return [distribution.sample(*args) for args in inputs]

    def _tables(self):
        moments = []
        for params in self.moment_params:
            moments.append([properties.moment_quadrature(params, r)
                            for r in (1, 2, 3, 4)]
                           + [properties.variance(params),
                              properties.skewness(params),
                              properties.kurtosis(params)])
        quantiles = [properties.quantile_measures(params)
                     for params in self.quantile_params]
        return moments, quantiles

    def run_unit(self, k, timed):
        inputs = self.inputs(k)
        return timed(lambda: self._draw(inputs)), timed(self._tables)

    def check(self, outputs) -> Outcome:
        draws, tables = outputs
        out = Outcome()
        for i, params in enumerate(self.sets):
            x = None if isinstance(draws, Exception) else draws[i]
            ok = (x is not None and len(x) == KERNEL_DRAWS
                  and bool(np.all(np.isfinite(x))) and bool(np.all(x > 0.0)))
            q = distribution.quantile_vec(params, ROUNDTRIP_U)
            err = float(np.max(np.abs(distribution.cdf(params, q)
                                      - ROUNDTRIP_U)))
            out.op(ok and err <= 1e-10,
                   f"draws {params}: shape/finite ok {ok}, round trip {err}")
        moments, quantiles = (([None] * len(self.moment_params),
                               [None] * len(self.quantile_params))
                              if isinstance(tables, Exception) else tables)
        for row, got in zip(self.ref.MOMENT_ROWS, moments):
            worst = (math.inf if got is None else
                     max(abs(g - r) / abs(r) for g, r in zip(got, row[4:])))
            out.op(worst <= 2e-3, f"moment row {row[:4]}: rel err {worst}")
        for row, qm in zip(self.ref.QUANTILE_ROWS, quantiles):
            worst = moors_err = math.inf
            if qm is not None:
                params = distribution.validate(*row[:4])
                q = {u: distribution.quantile(params, u)
                     for u in (0.125, 0.325, 0.375, 0.625, 0.875)}
                # the frozen Moors column used the octile 0.325 for 0.375
                frozen = (q[0.875] - q[0.625] + q[0.325] - q[0.125]) / qm.iqr
                worst = max(abs(qm.median - row[4]), abs(qm.iqr - row[5]),
                            abs(qm.galton_skewness - row[6]),
                            abs(frozen - row[7]))
                moors = (q[0.875] - q[0.625] + q[0.375] - q[0.125]) / qm.iqr
                moors_err = abs(qm.moors_kurtosis - moors)
            out.op(worst <= 5e-4 and moors_err <= 1e-6,
                   f"quantile row {row[:4]}: abs err {worst}, "
                   f"Moors err {moors_err}")
        return out

    def figures(self, stage_s):
        rows = len(self.moment_params) + len(self.quantile_params)
        return {"draws_per_s": (len(self.sets) * KERNEL_DRAWS / stage_s[0],
                                "draws/s"),
                "moment_rows_per_s": (rows / stage_s[1], "rows/s")}


WORKLOADS = {w.name: w for w in (Simstudy, Realdata, Kernels)}
