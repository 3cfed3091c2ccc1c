"""Benchmark entry point for rtgle.

    python3 bench/run.py --workload {simstudy,realdata,kernels} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
One process, one thread.  After set-up, the workload's unit of work
repeats in passes of ``pass_units`` units until the next pass would end
after ``--seconds``.

``--trace 0`` reports the end-to-end metrics: set-up time, peak memory,
and, for each stage, the median over passes of the pass's mean time.
``--trace 1`` runs every unit twice, once plain and once with the
per-layer tracing wrappers installed, and reports the per-layer metrics
of the first ``count_units`` traced units plus the tracing overhead.  The last line of
standard output is the result object; the line before it holds details:
the workload's own throughput figures, failure share, unit count, raw
timings and the machine and toolchain.

Times are corrected for the machine's varying speed: see bench/speed.py.
The raw times are in the detail line.
"""

import os

# one thread per process; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
MIN_UNITS = 2
# the end-to-end metrics of a --trace 0 run and their units
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "stage1_s": "s",
              "stage2_s": "s"}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import rtgle.cli; "
                 "print(time.perf_counter() - t)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simstudy", "realdata", "kernels"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _require_checkout():
    for rel in ("src/rtgle/__init__.py", "tests/_reference.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise SystemExit(f"bench: {rel} not found under {ROOT}; run from "
                             "the root of an rtgle checkout")


def _machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _import_seconds() -> float:
    """Import time of the whole library in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip())


def _set_up(workload_cls, seed):
    """Build, prepare and warm the workload SETUP_REPEATS times; each
    set-up is a fresh-interpreter import plus the in-process set-up.
    Returns the workload and [(start, end, seconds)] per set-up."""
    records = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        imported = _import_seconds()
        local = perf_counter()
        workload = workload_cls(ROOT, seed, OUT_DIR)
        workload.prepare()
        workload.warm_up()
        end = perf_counter()
        records.append((start, end, imported + end - local))
    return workload, records


def _keep_going(started, units, last, seconds, minimum):
    return units < minimum or perf_counter() - started + last <= seconds


def _check(workload, outputs, totals, tracer=None):
    if tracer is not None:
        tracer.paused = True
    try:
        outcome = workload.check(outputs)
    finally:
        if tracer is not None:
            tracer.paused = False
    totals["attempted"] += outcome.attempted
    totals["failed"] += outcome.failed
    for problem in outcome.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
        totals["problems"] += 1


def _plain_run(workload, seconds, totals):
    """The (start, end) of every call, per stage."""
    intervals = []

    def timed(fn):
        from workloads import timed_call
        start = perf_counter()
        elapsed, result = timed_call(fn)
        intervals.append((start, start + elapsed))
        return result

    started, units, last = perf_counter(), 0, 0.0
    while _keep_going(started, units, last, seconds,
                      max(MIN_UNITS, workload.pass_units)):
        pass_start = perf_counter()
        for _ in range(workload.pass_units):
            outputs = workload.run_unit(units, timed)
            _check(workload, outputs, totals)
            units += 1
        last = perf_counter() - pass_start
    return [intervals[0::2], intervals[1::2]], units


def _pass_median(times, pass_units):
    """Median over passes of the mean time of a pass's units."""
    return statistics.median(
        statistics.fmean(times[i:i + pass_units])
        for i in range(0, len(times), pass_units))


def _untimed(fn):
    from workloads import timed_call
    return timed_call(fn)[1]


def _traced_run(workload, seconds, totals, spans_path):
    """Pairs of plain and traced runs of each unit, alternating which goes
    first.  Per-layer metrics come from the first count_units traced
    units; the overhead compares all traced units with their plain twins,
    in reference seconds."""
    from speed import Speedometer
    from tracing import PER_LAYER, Tracer
    counted = Tracer()
    intervals = {False: [], True: []}
    started, units, last = perf_counter(), 0, 0.0
    with Speedometer() as meter:
        while _keep_going(started, units, last, seconds,
                          workload.count_units):
            tracer = counted if units < workload.count_units else Tracer()
            pair_start = perf_counter()
            for traced in ((False, True) if units % 2 else (True, False)):
                t0 = perf_counter()
                if traced:
                    with tracer:
                        outputs = workload.run_unit(units, _untimed)
                else:
                    outputs = workload.run_unit(units, _untimed)
                intervals[traced].append((t0, perf_counter()))
                _check(workload, outputs, totals, tracer)
            last = perf_counter() - pair_start
            units += 1
    plain, traced = (sum(meter.reference_seconds(s, e)
                         for s, e in intervals[t]) for t in (False, True))
    metrics = counted.metrics()
    metrics["trace.overhead"] = traced / plain - 1.0
    metrics["trace.units"] = workload.count_units
    counted.write_spans(spans_path)
    units_of = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()}, units


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_checkout()
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import rtgle
    if os.path.dirname(os.path.abspath(rtgle.__file__)) != os.path.join(
            SRC, "rtgle"):
        raise SystemExit(f"bench: imported rtgle from {rtgle.__file__}, "
                         f"not from {SRC}")
    from workloads import WORKLOADS

    totals = {"attempted": 0, "failed": 0, "problems": 0}
    detail = {"workload": args.workload, "seed": args.seed,
              "machine": _machine()}
    if args.trace:
        workload, _ = _set_up(WORKLOADS[args.workload], args.seed)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-"
                                  f"{args.seed}.json")
        metrics, units = _traced_run(workload, args.seconds, totals,
                                     spans_path)
        detail["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        from speed import Speedometer
        with Speedometer() as meter:
            workload, setups = _set_up(WORKLOADS[args.workload], args.seed)
            stages, units = _plain_run(workload, args.seconds, totals)
        stage_s = [_pass_median([meter.reference_seconds(s, e)
                                 for s, e in stage], workload.pass_units)
                   for stage in stages]
        values = {"setup_s": statistics.median(
                      seconds * meter.speed(s, e) for s, e, seconds in setups),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "stage1_s": stage_s[0],
                  "stage2_s": stage_s[1]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail["figures"] = {
            name: {"value": value, "unit": unit} for name, (value, unit)
            in workload.figures(stage_s).items()}
        detail["raw"] = {
            "setup_s": statistics.median(r[2] for r in setups),
            "stage_s": [_pass_median([e - s for s, e in stage],
                                     workload.pass_units)
                        for stage in stages],
            "probe_s": statistics.median(d for _, d in meter.samples)}
    detail["units"] = units
    detail["fail_frac"] = {"value": totals["failed"] / totals["attempted"],
                           "unit": "failed/attempted"}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": totals["problems"] == 0,
                      "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
