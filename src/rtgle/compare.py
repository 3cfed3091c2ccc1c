"""The seven competitor lifetime models and the model-comparison pipeline.

Every competitor is a log density ``log_pdf(x, x2, *params)`` and a log
survival ``log_sf(x, x2, *params)``, with x > 0 and x2 = x*x tabulated once
per fit; the parameters are floats, or (R, 1) columns of the R parameter
vectors one step of the estimation engine evaluates.  W, RTW, LE and RTLE
are RTGLE with some coordinates held fixed and evaluate the RTGLE kernels
at that image; TW, TL and TLL transmute a Weibull, Lindley or log-logistic
G into G(1 + lam - lam*G) (Shaw & Buckley, 2009).  Each is a model record
of ``estimate``'s engine, fitted by maximum likelihood through its one fit
routine, as RTGLE is.

Two printed-source corrections, both forced by normalization (a density
must integrate to 1):
  * the transmuted log-logistic density factor is
    (1+lam)*(a^b + x^b) - 2*lam*x^b, and
  * the linear exponential density is (alpha + beta*x) * exp(-(alpha*x +
    beta*x^2/2)) -- i.e. the RT linear exponential with p = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import estimate
from .distribution import (_checked, _libm, _log, _log_pdf_kernel,
                           _log_sf_kernel, _on_support, cdf)
from .estimate import (AllStartsFailed, EstimationMethod, HessianNotPD,
                       OptimizerConfig, _check_data, _delta_method_se,
                       _from_free, _lockstep_fits, _Model)
# looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .estimate import minimize  # noqa: F401
from .gof import GofReport, gof_report


@dataclass(frozen=True)
class CompetitorModel:
    """A competitor distribution instance: kind tag plus parameter vector."""
    kind: str
    params: tuple[float, ...]

    @property
    def n_params(self) -> int:
        return len(_SPECS[self.kind].kinds)


def _nested(image):
    """log_pdf, log_sf and image of the competitor that is RTGLE at
    image(*params)."""
    return (lambda x, x2, *v: _log_pdf_kernel(x, x2, *image(*v)),
            lambda x, x2, *v: _log_sf_kernel(x, x2, *image(*v)), image)


def _transmuted(base_log_pdf, base_log_sf):
    """log_pdf and log_sf of G(1 + lam - lam*G) for a baseline G whose
    parameters come before lam: S = S_G (1 - lam*G), f = g (1 + lam -
    2*lam*G); no RTGLE image."""
    def log_pdf(x, x2, *v):
        *base, lam = v
        g = -np.expm1(base_log_sf(x, x2, *base))
        return base_log_pdf(x, x2, *base) + np.log(1.0 + lam - 2.0 * lam * g)

    def log_sf(x, x2, *v):
        *base, lam = v
        log_s = base_log_sf(x, x2, *base)
        return log_s + np.log1p(lam * np.expm1(log_s))
    return log_pdf, log_sf, None


def _lindley_log_pdf(x, x2, theta):
    return (2.0 * _log(theta) - _log(theta + 1.0)
            + np.log1p(x) - theta * x)


def _lindley_log_sf(x, x2, theta):
    return np.log1p(theta * x / (theta + 1.0)) - theta * x


def _loglogistic_log_pdf(x, x2, a, b):
    t = x / a
    return (_log(b / a) + (b - 1.0) * np.log(t)
            - 2.0 * np.log1p(np.power(t, b)))


def _loglogistic_log_sf(x, x2, a, b):
    return -np.log1p(np.power(x / a, b))


def _root(th, g):
    """th ** (1/g); through _libm on per-row arrays."""
    if isinstance(th, np.ndarray):
        return _libm(np.power, th, 1.0 / g)
    return th ** (1.0 / g)


_WEIBULL = _nested(lambda mu, s: (1.0 / s, 0.0, mu, 0.0))

# the competitors as model records of the estimation engine; each fit
# starts at its own start, since config.start is an RTGLE start
_SPECS: dict[str, _Model] = {m.name: m for m in (
    _Model("RTW", ("theta", "gamma", "p"), ("pos", "pos", "unit"),
           *_nested(lambda th, g, p: (_root(th, g), 0.0, g, p)),
           start=lambda x: (1.0 / np.mean(x), 1.0, 0.5)),
    _Model("W", ("mu", "sigma"), ("pos", "pos"), *_WEIBULL,
           start=lambda x: (1.0, np.mean(x))),
    _Model("TW", ("mu", "sigma", "lambda"), ("pos", "pos", "sym"),
           *_transmuted(*_WEIBULL[:2]),
           start=lambda x: (1.0, np.mean(x), 0.0)),
    _Model("TL", ("theta", "lambda"), ("pos", "sym"),
           *_transmuted(_lindley_log_pdf, _lindley_log_sf),
           start=lambda x: (1.0 / np.mean(x), 0.0)),
    _Model("TLL", ("alpha", "beta", "lambda"), ("pos", "pos", "sym"),
           *_transmuted(_loglogistic_log_pdf, _loglogistic_log_sf),
           start=lambda x: (np.median(x), 1.0, 0.0)),
    _Model("RTLE", ("alpha", "beta", "p"), ("pos", "pos", "unit"),
           *_nested(lambda a, b, p: (a, b, 1.0, p)),
           start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2, 0.5)),
    _Model("LE", ("alpha", "beta"), ("pos", "pos"),
           *_nested(lambda a, b: (a, b, 1.0, 0.0)),
           start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2)),
)}

COMPETITOR_KINDS = tuple(_SPECS)


def make_competitor(kind: str, *params: float) -> CompetitorModel:
    spec = _SPECS[kind]
    if len(params) != len(spec.kinds):
        raise ValueError(f"{kind} takes {len(spec.kinds)} parameters")
    for v, k in zip(params, spec.kinds):
        if not math.isfinite(v):
            raise ValueError(f"{kind}: parameter must be finite, got {v!r}")
        if k == "pos" and not v > 0.0:
            raise ValueError(f"{kind}: parameter must be > 0, got {v!r}")
        if k == "sym" and not -1.0 <= v <= 1.0:
            raise ValueError(f"{kind}: lambda must lie in [-1, 1], got {v!r}")
        if k == "unit" and not 0.0 <= v <= 1.0:
            raise ValueError(f"{kind}: p must lie in [0, 1], got {v!r}")
    try:  # a nested kind is evaluated as RTGLE at its image
        image = _checked(*spec.image(*params)) if spec.image else ()
    except (OverflowError, ValueError):
        image = (math.nan,)
    if not all(map(math.isfinite, image)):
        raise ValueError(f"{kind}: {params!r} has no valid finite RTGLE image")
    return CompetitorModel(kind, tuple(float(v) for v in params))


def competitor_log_pdf(model: CompetitorModel, x):
    spec = _SPECS[model.kind]
    return _on_support(lambda x, x2: spec.log_pdf(x, x2, *model.params),
                       x, -np.inf, -np.inf)


def competitor_pdf(model: CompetitorModel, x):
    spec = _SPECS[model.kind]
    return _on_support(
        lambda x, x2: np.exp(spec.log_pdf(x, x2, *model.params)),
        x, 0.0, 0.0)


def competitor_cdf(model: CompetitorModel, x):
    spec = _SPECS[model.kind]
    return _on_support(
        lambda x, x2: -np.expm1(spec.log_sf(x, x2, *model.params)),
        x, 0.0, 1.0)


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
    """Maximum likelihood fit of one competitor: the engine's one fit
    routine on one sample, plus the standard errors.  Raises
    NonPositiveData, DegenerateData or AllStartsFailed."""
    config = config or OptimizerConfig()
    model = _SPECS[kind]
    objective, ((opt,),) = _lockstep_fits([data], (EstimationMethod.MLE,),
                                          config, model)
    if isinstance(opt, Exception):
        raise opt
    values = _from_free(opt.x, model.kinds)
    try:
        se = _delta_method_se(objective, opt.x, values, model.kinds)
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
                     kinds: tuple[str, ...] | None = None
                     ) -> list[ComparisonRow]:
    """Fit RTGLE and the competitors, compute GoF for each, sort by AIC.

    Per-model failures are kept as error rows so partial results survive.
    """
    x = _check_data(data)
    rows: list[ComparisonRow] = []
    for kind in kinds or ("RTGLE",) + COMPETITOR_KINDS:
        try:
            if kind == "RTGLE":
                rf = estimate.fit(x, EstimationMethod.MLE, config)
                params, se = asdict(rf.params), rf.standard_errors
                m2ll, model_cdf = 2.0 * rf.objective, partial(cdf, rf.params)
            else:
                cf = fit_competitor(kind, x, config)
                params = dict(zip(_SPECS[kind].param_names, cf.model.params))
                se, m2ll = cf.standard_errors, cf.minus2loglik
                model_cdf = partial(competitor_cdf, cf.model)
            rep = gof_report(model_cdf, x, minus2loglik=m2ll, r=len(params))
            rows.append(ComparisonRow(kind, params,
                                      dict(zip(params, se)) if se else None,
                                      rep))
        except (AllStartsFailed, ValueError) as exc:
            rows.append(ComparisonRow(kind, {}, None, None, str(exc)))

    rows.sort(key=lambda r: (r.gof is None, r.gof.aic if r.gof else 0.0))
    return rows
