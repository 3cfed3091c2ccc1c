"""The seven competitor lifetime models and the model-comparison pipeline.

W, RTW, LE and RTLE are RTGLE with some coordinates held fixed, so their
density and distribution function are those of their RTGLE image; TW, TL
and TLL carry their own closed forms.  Every competitor is fitted by
maximum likelihood on the estimation engine of ``estimate`` and carries
its free-parameter count for AIC.

Two printed-source corrections, both forced by normalization (a density
must integrate to 1):
  * the transmuted log-logistic density factor is
    (1+lam)*(a^b + x^b) - 2*lam*x^b, and
  * the linear exponential density is (alpha + beta*x) * exp(-(alpha*x +
    beta*x^2/2)) -- i.e. the RT linear exponential with p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from scipy.optimize import minimize  # noqa: F401

from . import estimate
from .distribution import (RtgleParams, cdf, linear_exponential, log_pdf,
                           rt_linear_exponential, rt_weibull, weibull)
from .estimate import (AllStartsFailed, EstimationMethod, HessianNotPD,
                       OptimizerConfig, _check_data, _delta_method_se,
                       _from_free, _search, _to_free)
from .gof import GofReport, PValueMode, gof_report


@dataclass(frozen=True)
class CompetitorModel:
    """A competitor distribution instance: kind tag plus parameter vector."""
    kind: str
    params: tuple[float, ...]

    @property
    def n_params(self) -> int:
        return len(_SPECS[self.kind].param_kinds)


@dataclass(frozen=True)
class _Spec:
    param_names: tuple[str, ...]
    param_kinds: tuple[str, ...]          # "pos" | "sym" (lambda) | "unit" (p)
    log_pdf: Callable
    cdf: Callable
    start: Callable                        # data -> natural-scale start


def _weibull_cdf(x, mu, sigma):
    return -np.expm1(-np.power(x / sigma, mu))


def _weibull_log_pdf(x, mu, sigma):
    t = x / sigma
    return (math.log(mu / sigma) + (mu - 1.0) * np.log(t) - np.power(t, mu))


def _transmute_cdf(g, lam):
    return (1.0 + lam) * g - lam * g * g


def _transmute_log_pdf(log_g_pdf, g, lam):
    factor = 1.0 + lam - 2.0 * lam * g
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_g_pdf + np.log(np.maximum(factor, 0.0))
    return np.where(factor > 0.0, out, -np.inf)


def _lindley_cdf(x, theta):
    return -np.expm1(np.log1p(theta * x / (theta + 1.0)) - theta * x)


def _lindley_log_pdf(x, theta):
    return (2.0 * math.log(theta) - math.log(theta + 1.0)
            + np.log1p(x) - theta * x)


def _loglogistic_cdf(x, a, b):
    xb = np.power(x, b)
    return xb / (a ** b + xb)


def _loglogistic_log_pdf(x, a, b):
    xb = np.power(x, b)
    return (math.log(b) + b * math.log(a) + (b - 1.0) * np.log(x)
            - 2.0 * np.log(a ** b + xb))


_SPECS: dict[str, _Spec] = {}


def _register(kind, names, kinds, log_pdf, cdf, start):
    _SPECS[kind] = _Spec(tuple(names), tuple(kinds), log_pdf, cdf, start)


def _register_nested(kind, names, kinds, image, start):
    """Register a competitor that is RTGLE at ``image(*params)``."""
    _register(kind, names, kinds,
              log_pdf=lambda x, *v: log_pdf(image(*v), x),
              cdf=lambda x, *v: cdf(image(*v), x), start=start)


_register_nested(
    "RTW", ("theta", "gamma", "p"), ("pos", "pos", "unit"),
    image=lambda th, g, p: rt_weibull(th ** (1.0 / g), g, p),
    start=lambda x: (1.0 / np.mean(x), 1.0, 0.5),
)
_register_nested(
    "W", ("mu", "sigma"), ("pos", "pos"),
    image=lambda mu, s: weibull(1.0 / s, mu),
    start=lambda x: (1.0, np.mean(x)),
)
_register(
    "TW", ("mu", "sigma", "lambda"), ("pos", "pos", "sym"),
    log_pdf=lambda x, mu, s, lam: _transmute_log_pdf(
        _weibull_log_pdf(x, mu, s), _weibull_cdf(x, mu, s), lam),
    cdf=lambda x, mu, s, lam: _transmute_cdf(_weibull_cdf(x, mu, s), lam),
    start=lambda x: (1.0, np.mean(x), 0.0),
)
_register(
    "TL", ("theta", "lambda"), ("pos", "sym"),
    log_pdf=lambda x, th, lam: _transmute_log_pdf(
        _lindley_log_pdf(x, th), _lindley_cdf(x, th), lam),
    cdf=lambda x, th, lam: _transmute_cdf(_lindley_cdf(x, th), lam),
    start=lambda x: (1.0 / np.mean(x), 0.0),
)
_register(
    "TLL", ("alpha", "beta", "lambda"), ("pos", "pos", "sym"),
    log_pdf=lambda x, a, b, lam: _transmute_log_pdf(
        _loglogistic_log_pdf(x, a, b), _loglogistic_cdf(x, a, b), lam),
    cdf=lambda x, a, b, lam: _transmute_cdf(_loglogistic_cdf(x, a, b), lam),
    start=lambda x: (np.median(x), 1.0, 0.0),
)
_register_nested(
    "RTLE", ("alpha", "beta", "p"), ("pos", "pos", "unit"),
    image=rt_linear_exponential,
    start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2, 0.5),
)
_register_nested(
    "LE", ("alpha", "beta"), ("pos", "pos"),
    image=linear_exponential,
    start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2),
)

COMPETITOR_KINDS = tuple(_SPECS)


def make_competitor(kind: str, *params: float) -> CompetitorModel:
    spec = _SPECS[kind]
    if len(params) != len(spec.param_kinds):
        raise ValueError(f"{kind} takes {len(spec.param_kinds)} parameters")
    for v, k in zip(params, spec.param_kinds):
        if k == "pos" and not v > 0.0:
            raise ValueError(f"{kind}: parameter must be > 0, got {v!r}")
        if k == "sym" and not -1.0 <= v <= 1.0:
            raise ValueError(f"{kind}: lambda must lie in [-1, 1], got {v!r}")
        if k == "unit" and not 0.0 <= v <= 1.0:
            raise ValueError(f"{kind}: p must lie in [0, 1], got {v!r}")
    return CompetitorModel(kind, tuple(float(v) for v in params))


def competitor_log_pdf(model: CompetitorModel, x):
    x = np.asarray(x, dtype=float)
    xp = np.where(x > 0.0, x, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _SPECS[model.kind].log_pdf(xp, *model.params)
    out = np.where(x > 0.0, out, -np.inf)
    out = np.where(np.isnan(out), -np.inf, out)
    return out if np.ndim(out) else float(out)


def competitor_pdf(model: CompetitorModel, x):
    with np.errstate(over="ignore"):
        return np.exp(competitor_log_pdf(model, x))


def competitor_cdf(model: CompetitorModel, x):
    x = np.asarray(x, dtype=float)
    xp = np.maximum(x, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        out = _SPECS[model.kind].cdf(xp, *model.params)
    out = np.where(x <= 0.0, 0.0, out)
    return out if np.ndim(out) else float(out)


# --- fitting -------------------------------------------------------------------

@dataclass
class CompetitorFit:
    model: CompetitorModel
    minus2loglik: float
    converged: bool
    n_starts_used: int
    standard_errors: tuple[float, ...] | None = None


def fit_competitor(kind: str, data,
                   config: OptimizerConfig | None = None) -> CompetitorFit:
    """Maximum likelihood fit of one competitor on the estimation engine."""
    config = config or OptimizerConfig()
    x = _check_data(data)
    spec = _SPECS[kind]
    kinds = spec.param_kinds

    def nll(theta):  # the engine evaluates it with warnings off
        total = float(np.sum(spec.log_pdf(x, *_from_free(theta, kinds))))
        return -total if math.isfinite(total) else math.inf

    opt = _search(nll, _to_free(spec.start(x), kinds), 1.0, config,
                  f"likelihood for {kind}")
    values = _from_free(opt.x, kinds)
    try:
        se = _delta_method_se(nll, opt.x, values, kinds)
    except HessianNotPD:
        se = None
    return CompetitorFit(model=CompetitorModel(kind, values),
                         minus2loglik=2.0 * float(opt.fun),
                         converged=bool(opt.success),
                         n_starts_used=config.n_starts, standard_errors=se)


# --- comparison pipeline --------------------------------------------------------

@dataclass
class ComparisonRow:
    model: str
    params: dict[str, float]
    standard_errors: dict[str, float] | None
    gof: GofReport | None
    error: str | None = None


def comparison_table(data, config: OptimizerConfig | None = None,
                     mode: PValueMode = PValueMode.ASYMPTOTIC,
                     kinds: tuple[str, ...] | None = None
                     ) -> list[ComparisonRow]:
    """Fit RTGLE and the competitors, compute GoF for each, sort by AIC.

    Per-model failures are kept as error rows so partial results survive.
    """
    x = _check_data(data)
    rows: list[ComparisonRow] = []

    if kinds is None or "RTGLE" in (kinds or ()):
        try:
            rf = estimate.fit(x, EstimationMethod.MLE, config)
            pr: RtgleParams = rf.params
            rep = gof_report(lambda t: cdf(pr, t), x,
                             minus2loglik=2.0 * rf.objective, r=4, mode=mode)
            names = ("alpha", "beta", "gamma", "p")
            ses = (dict(zip(names, rf.standard_errors))
                   if rf.standard_errors else None)
            rows.append(ComparisonRow("RTGLE", dict(zip(names, pr.as_tuple())),
                                      ses, rep))
        except (AllStartsFailed, ValueError) as exc:
            rows.append(ComparisonRow("RTGLE", {}, None, None, str(exc)))

    for kind in (kinds or COMPETITOR_KINDS):
        if kind == "RTGLE":
            continue
        spec = _SPECS[kind]
        try:
            cf = fit_competitor(kind, x, config)
            rep = gof_report(lambda t, m=cf.model: competitor_cdf(m, t), x,
                             minus2loglik=cf.minus2loglik,
                             r=len(spec.param_kinds), mode=mode)
            ses = (dict(zip(spec.param_names, cf.standard_errors))
                   if cf.standard_errors else None)
            rows.append(ComparisonRow(kind,
                                      dict(zip(spec.param_names,
                                               cf.model.params)), ses, rep))
        except (AllStartsFailed, ValueError) as exc:
            rows.append(ComparisonRow(kind, {}, None, None, str(exc)))

    rows.sort(key=lambda r: (r.gof is None, r.gof.aic if r.gof else 0.0))
    return rows
