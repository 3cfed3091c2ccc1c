"""Self-tests for the benchmark harness.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import dataclasses
import importlib
import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _realdata_outputs(ref):
    """Outputs of one realdata unit that pass every check."""
    rows = [{"model": m, "params": "", "-2logL": 300.0}
            for m in workloads.COMPETITORS]
    rows[0]["-2logL"] = ref.REAL_DATA_MINUS2LL
    mu, sigma = ref.REAL_DATA_WEIBULL
    rows[2].update({"params": f"mu={mu:.4f}; sigma={sigma:.4f}",
                    "-2logL": ref.REAL_DATA_WEIBULL_MINUS2LL})
    report = {k: ref.REAL_DATA_GOF[k] for k in ("ks", "cvm", "ad")}
    b = workloads.BOOTSTRAP_B
    report.update(p_ks=1.0, p_cvm=3.0 / (b + 1), p_ad=1.0 / (b + 1),
                  p_value_mode=f"bootstrap({b})", n=47)
    return rows, report


def test_checker_rejects_perturbed_realdata_output(tmp_path):
    wl = workloads.Realdata(ROOT, 0, str(tmp_path))
    rows, report = _realdata_outputs(wl.ref)
    assert wl.check((rows, report)).failed == 0

    rows[0]["-2logL"] += 1.0          # RTGLE -2logL off by 1
    out = wl.check((rows, report))
    assert out.failed == 1 and "RTGLE" in out.problems[0]

    rows, report = _realdata_outputs(wl.ref)
    rows[2]["params"] = "mu=0.8000; sigma=5.7710"
    assert wl.check((rows, report)).failed == 1

    rows, report = _realdata_outputs(wl.ref)
    report["p_ad"] += 0.01            # not of the form (1 + k) / (B + 1)
    assert wl.check((rows, report)).failed == 1

    assert wl.check((4, 4)).failed == len(workloads.COMPETITORS) + 1


def test_checker_rejects_non_finite_simulation_cell(tmp_path):
    wl = workloads.Simstudy(ROOT, 0, str(tmp_path))
    replicates = workloads.SIM_REPLICATES
    wl.prepare()
    designs = wl.inputs(0)
    reports = [workloads.sim.SimReport(design=d) for d in designs]
    for design, report in zip(designs, reports):
        for m in wl.methods:
            report.cells[(design.sample_sizes[0], m.value)] = \
                workloads.sim.SimCell((0.1,) * 4, (0.2,) * 4, replicates, 0)
    assert wl.check((designs, reports)).failed == 0
    reports[1].cells[(200, "ade")].mse = (0.2, math.nan, 0.2, 0.2)
    assert wl.check((designs, reports)).failed == replicates
    del reports[0].cells[(50, "mle")]
    assert wl.check((designs, reports)).failed == 2 * replicates


def test_checker_rejects_perturbed_moors_kurtosis(tmp_path):
    wl = workloads.Kernels(ROOT, 0, str(tmp_path))
    wl.prepare()
    draws, (moments, quantiles) = wl.run_unit(0, run._untimed)
    assert wl.check((draws, (moments, quantiles))).failed == 0
    qm = quantiles[3]
    quantiles[3] = dataclasses.replace(
        qm, moors_kurtosis=qm.moors_kurtosis + 1e-4)
    out = wl.check((draws, (moments, quantiles)))
    assert out.failed == 1 and "Moors" in out.problems[0]


def test_tracer_restores_the_original_functions():
    def current():
        return [getattr(importlib.import_module(mod), attr)
                for mod, attr, _, _ in tracing.SITES]

    before = current()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            during = current()
            assert all(w is not o and w.__wrapped__ is o
                       for w, o in zip(during, before))
            1 / 0
    assert all(a is b for a, b in zip(current(), before))


def _inputs(name, seed, out_dir):
    wl = workloads.WORKLOADS[name](ROOT, seed, str(out_dir))
    wl.prepare()
    if name == "simstudy":
        return [d.seed for d in wl.inputs(0)]
    if name == "realdata":
        with open(wl.data_path, encoding="utf-8") as fh:
            return fh.read(), wl.inputs(0)[0][-1]
    return [s for _, _, s in wl.inputs(0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed_changes_the_inputs(name, tmp_path):
    assert _inputs(name, 1, tmp_path) == _inputs(name, 1, tmp_path)
    assert _inputs(name, 1, tmp_path) != _inputs(name, 2, tmp_path)


def _traced_counts(name, seed, out_dir):
    wl = workloads.WORKLOADS[name](ROOT, seed, str(out_dir))
    wl.prepare()
    with tracing.Tracer() as tracer:
        outputs = wl.run_unit(0, run._untimed)
    assert wl.check(outputs).failed == 0
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {k: v for k, v in tracer.metrics().items()
            if units[k] == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_repeated_seed_reproduces_every_count(name, tmp_path):
    first = _traced_counts(name, 3, tmp_path)
    assert first == _traced_counts(name, 3, tmp_path)
    estimate_nfev = sum(first[f"estimate.nfev.{m}"] for m in tracing.METHODS)
    assert (estimate_nfev == 0) == (name == "kernels")
    if name == "realdata":
        assert first["gof.refits_per_report"] == 3 * workloads.BOOTSTRAP_B


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracing.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
