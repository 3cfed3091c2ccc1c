"""Command-line front end.

Commands: fit, gof, compare, simulate, table, sample.  Output formats are
text (default, 4-decimal tables), json (full-precision, stable field
names), and csv (header row).  Exit codes: 0 success, 2 usage error,
3 data error (including a sample too degenerate to fit), 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

import numpy as np

from . import compare as compare_mod
from . import sim as sim_mod
from .datasets import (NonPositiveValue, ParseError, flag_outliers_iqr,
                       load_dataset)
from .distribution import (InvalidParams, RtgleParams, cdf, pdf, quantile,
                           sample, validate)
from .estimate import (AllStartsFailed, DegenerateData, EstimationMethod,
                       NonPositiveData, OptimizerConfig, _check_fit_data, fit,
                       fit_many, neg_log_likelihood)
from .gof import gof_report
from .properties import _kurtosis, _raw_moments, _skewness, quantile_measures

EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(Exception):
    pass


def _parse_params(text: str) -> RtgleParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise DataError(f"--params needs 4 comma-separated values, "
                        f"got {text!r}")
    try:
        vals = [float(v) for v in parts]
    except ValueError as exc:
        raise DataError(str(exc)) from None
    try:
        return validate(*vals)
    except InvalidParams as exc:
        raise DataError(str(exc)) from None


def _parse_param_rows(text: str) -> list[RtgleParams]:
    return [_parse_params(row) for row in text.split(";") if row.strip()]


def _load(path_or_tag: str) -> np.ndarray:
    try:
        return load_dataset(path_or_tag).values
    except (ParseError, NonPositiveValue, OSError) as exc:
        raise DataError(str(exc)) from None


def _emit(rows: dict | list[dict], fmt: str, out,
          float_fmt: str = "{:.4f}"):
    """rows: one record (a dict), or a list of dicts with a shared key
    order.  JSON prints a dict as an object and a list as a list, [] when
    it is empty; text and csv print an empty list as nothing."""
    if fmt == "json":
        out.write(json.dumps(rows, indent=2))
        out.write("\n")
        return
    if isinstance(rows, dict):
        rows = [rows]
    if not rows:
        return
    keys = list(rows[0])
    str_rows = []
    for r in rows:
        str_rows.append([float_fmt.format(v) if isinstance(v, float)
                         else str(v) for v in r.values()])
    if fmt == "csv":
        w = csv.writer(out)
        w.writerow(keys)
        w.writerows(str_rows)
        return
    widths = [max(len(k), *(len(r[i]) for r in str_rows))
              for i, k in enumerate(keys)]
    out.write("  ".join(k.rjust(w) for k, w in zip(keys, widths)) + "\n")
    for r in str_rows:
        out.write("  ".join(s.rjust(w) for s, w in zip(r, widths)) + "\n")


def _open_out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


# --- subcommands ---------------------------------------------------------------

def _cmd_fit(args) -> int:
    x = _load(args.data)
    method = EstimationMethod(args.method)
    config = OptimizerConfig(n_starts=args.n_starts, seed=args.seed)
    result = fit(x, method, config)
    a, b, g, p = result.params.as_tuple()
    row = {"method": method.value, "alpha": a, "beta": b, "gamma": g, "p": p,
           "objective": result.objective, "converged": result.converged,
           "n_starts_used": result.n_starts_used}
    if result.standard_errors is not None:
        for name, se in zip(("alpha", "beta", "gamma", "p"),
                            result.standard_errors):
            row[f"se_{name}"] = se
    if method is EstimationMethod.MLE:
        row["minus2loglik"] = 2.0 * result.objective
    if args.format == "json":  # per coordinate, true on a closed edge
        row["at_boundary"] = dict(zip(("alpha", "beta", "gamma", "p"),
                                      result.at_boundary))
    with _open_out(args) as out:
        _emit(row, args.format, out, float_fmt="{:.6g}")
    return 0


def _cmd_gof(args) -> int:
    x = _load(args.data)
    params = _parse_params(args.params)
    if args.flag_outliers:
        idx = flag_outliers_iqr(x)
        vals = ", ".join(f"{x[i]:g}" for i in idx)
        print(f"flagged outlier indices: {[int(i) for i in idx]} "
              f"(values: {vals})",
              file=sys.stderr)
    m2ll = 2.0 * neg_log_likelihood(params, x)
    boot_f = None
    if args.bootstrap:
        boots = [sample(params, len(x), int(np.random.SeedSequence(
            [args.seed, b]).generate_state(1)[0]))
            for b in range(args.bootstrap)]
        fits = fit_many(boots, (EstimationMethod.MLE,),
                        OptimizerConfig(n_starts=4, seed=args.seed))
        boot_f = []
        for boot, (refit,) in zip(boots, fits):
            if isinstance(refit, Exception):
                raise refit
            boot_f.append(cdf(refit.params, np.sort(boot)))
    rep = gof_report(lambda t: cdf(params, t), x, minus2loglik=m2ll, r=4,
                     bootstrap_f=boot_f)
    with _open_out(args) as out:
        _emit(dataclasses.asdict(rep), args.format, out)
    return 0


def _cmd_compare(args) -> int:
    # data that not even the smallest model can be fitted to is a data
    # error, not a table of error rows
    x = _check_fit_data(_load(args.data), min(
        len(model.kinds) for model in compare_mod._SPECS.values()))
    config = OptimizerConfig(n_starts=args.n_starts, seed=args.seed)
    rows = compare_mod.comparison_table(x, config)
    table = []
    for r in rows:
        if r.error is not None:
            print(f"{r.model}: fit failed: {r.error}", file=sys.stderr)
            continue
        table.append({
            "model": r.model,
            "params": "; ".join(f"{k}={v:.4f}" for k, v in r.params.items()),
            "-2logL": r.gof.minus2loglik, "AIC": r.gof.aic,
            "KS": r.gof.ks, "p(KS)": r.gof.p_ks,
            "CvM": r.gof.cvm, "p(CvM)": r.gof.p_cvm,
            "AD": r.gof.ad, "p(AD)": r.gof.p_ad,
        })
    with _open_out(args) as out:
        _emit(table, args.format, out)
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.design, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read design file: {exc}") from None
    try:
        design = sim_mod.SimDesign(
            true_params=validate(*spec["true_params"]),
            sample_sizes=tuple(spec["sample_sizes"]),
            methods=tuple(EstimationMethod(m) for m in spec["methods"]),
            replicates=spec["replicates"],
            seed=spec.get("seed", 0))
    except (KeyError, ValueError, TypeError, InvalidParams) as exc:
        raise DataError(f"bad design: {exc}") from None
    report = sim_mod.run_design(design)
    table = []
    for n in design.sample_sizes:
        for m in design.methods:
            c = report.cell(n, m)
            table.append({"n": n, "method": m.value.upper(), **{
                f"{k}({s})": f"{v:.4f}" if np.isfinite(v) else "—"
                for k, values in (("bias", c.bias), ("mse", c.mse))
                for s, v in zip(sim_mod.PARAM_LABELS, values)},
                "failed": c.n_failed_fits})
    _emit(table, "text", sys.stdout)
    if args.out:
        cells = [{"n": n, "method": method, **dataclasses.asdict(cell)}
                 for (n, method), cell in report.cells.items()]
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"design": spec, "cells": cells}, fh, indent=2)
        labels = [f"{k}_{s}" for k in ("bias", "mse")
                  for s in sim_mod.PARAM_LABELS]
        rows = [{"n": c["n"], "method": c["method"],
                 **dict(zip(labels, c["bias"] + c["mse"])),
                 "n_used": c["n_used"], "n_failed_fits": c["n_failed_fits"]}
                for c in cells]
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            _emit(rows, "csv", fh, float_fmt="{!r}")
    return 0


def _cmd_table(args) -> int:
    rows = []
    for params in _parse_param_rows(args.params):
        a, b, g, p = params.as_tuple()
        base = {"alpha": a, "beta": b, "gamma": g, "p": p}
        try:
            if args.kind == "quantiles":
                qm = quantile_measures(params)
                base.update(median=qm.median, iqr=qm.iqr,
                            galton=qm.galton_skewness,
                            moors=qm.moors_kurtosis)
            else:
                m = _raw_moments(params, (1, 2, 3, 4))
                for r, mr in enumerate(m, start=1):
                    base[f"E(X^{r})"] = mr
                base["V(X)"] = m[1] - m[0] ** 2
                base["skewness"] = _skewness(m)
                base["kurtosis"] = _kurtosis(m)
        except ArithmeticError as exc:
            print(f"row {params.as_tuple()}: {exc}", file=sys.stderr)
            continue
        rows.append(base)
    with _open_out(args) as out:
        _emit(rows, args.format, out)
    return 0


def _cmd_sample(args) -> int:
    params = _parse_params(args.params)
    draws = [float(v) for v in sample(params, args.n, seed=args.seed)]
    curves = []
    if args.curves:
        lo = quantile(params, 1e-3)
        hi = quantile(params, 1.0 - 1e-3)
        curves = [{"x": x, "pdf": float(pdf(params, x)),
                   "cdf": float(cdf(params, x))}
                  for x in np.linspace(lo, hi, 200).tolist()]
    with _open_out(args) as out:
        if args.format == "json" and curves:
            _emit({"draws": draws, "curves": curves}, "json", out)
            return 0
        if args.format == "json":
            out.write(json.dumps(draws) + "\n")
        else:
            for v in draws:
                out.write(f"{v!r}\n")
        if curves:
            out.write("\n")
            _emit(curves, "csv", out, float_fmt="{!r}")
    return 0


# --- argument parsing -----------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a usage error."""
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtgle",
        description="RTGLE lifetime distribution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--format": dict(choices=("text", "json", "csv"), default="text"),
        "--out": dict(default=None, help="output file path"),
        "--seed": dict(type=_int_at_least(0), default=0),
        "--data": dict(required=True, help="data file or 'embedded'"),
        "--params": dict(required=True, help="alpha,beta,gamma,p"),
    }

    def command(name, func, help, reads):
        """A subcommand registering only the shared options it reads."""
        p = sub.add_parser(name, help=help)
        for option in reads:
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
        return p

    p = command("fit", _cmd_fit, "fit RTGLE parameters to data",
                ("--format", "--out", "--seed", "--data"))
    p.add_argument("--method", choices=[m.value for m in EstimationMethod],
                   default="mle")
    p.add_argument("--n-starts", type=_int_at_least(1), default=100)

    p = command("gof", _cmd_gof, "goodness-of-fit report at given params",
                ("--format", "--out", "--seed", "--data", "--params"))
    p.add_argument("--bootstrap", type=_int_at_least(0), default=0,
                   metavar="B",
                   help="use parametric bootstrap p-values with B replicates")
    p.add_argument("--flag-outliers", action="store_true",
                   help="report boxplot-rule outlier indices on stderr")

    p = command("compare", _cmd_compare,
                "fit RTGLE and 7 competitors, rank by AIC",
                ("--format", "--out", "--seed", "--data"))
    p.add_argument("--n-starts", type=_int_at_least(1), default=100)

    # the design file carries the seed, and the table is always text
    p = command("simulate", _cmd_simulate,
                "run a Monte Carlo bias/MSE design", ("--out",))
    p.add_argument("--design", required=True, help="JSON design file")

    p = command("table", _cmd_table,
                "quantile-measure or moment table rows",
                ("--format", "--out", "--params"))
    p.add_argument("--kind", choices=("quantiles", "moments"),
                   required=True)

    p = command("sample", _cmd_sample, "draw random variates",
                ("--format", "--out", "--seed", "--params"))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--curves", action="store_true",
                   help="also emit a CSV grid of (x, pdf, cdf)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, NonPositiveData, DegenerateData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AllStartsFailed, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
