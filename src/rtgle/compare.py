"""The seven competitor lifetime models and the model-comparison pipeline.

Every competitor is a log density ``log_pdf(x, x2, *params)`` and a log
survival ``log_sf(x, x2, *params)``, with x > 0 and x2 = x*x tabulated once
per fit; the parameters are scalars, or (R, 1) columns of the R parameter
vectors one step of the estimation engine evaluates.  W, RTW, LE and RTLE
are RTGLE with some coordinates held fixed and evaluate the RTGLE kernels
at that image; TW, TL and TLL transmute a Weibull, Lindley or log-logistic
G into G(1 + lam - lam*G) (Shaw & Buckley, 2009).  Each is a model record
of ``estimate``'s engine, fitted by maximum likelihood through its one fit
routine.  W, LE and RTLE are searched in their own parameters, with the
derivatives of the RTGLE kernels through the Jacobian of their image;
RTW is searched on its image's free coordinates (alpha, gamma, p) and
reported as (theta, gamma, p), theta = alpha^gamma.  RTGLE is the first
entry of the model registry ``_SPECS``, and ``comparison_table`` fits all
eight models by that one routine.

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
from functools import partial

import numpy as np

from .distribution import (InvalidParams, _checked, _d_log_pdf_kernel,
                           _d_log_sf_kernel, _libm, _log, _log_pdf_kernel,
                           _log_sf_kernel, _on_support)
from .estimate import (_RTGLE, AllStartsFailed, DegenerateData,
                       EstimationMethod, HessianNotPD, NonPositiveData,
                       OptimizerConfig, _box, _check_data, _lockstep_fits,
                       _Model, _standard_errors)
# looked up here by the benchmark's per-layer tracing (bench/tracing.py)
from .estimate import minimize  # noqa: F401
from .gof import GofReport, gof_report


@dataclass(frozen=True)
class CompetitorModel:
    """A registry model instance (RTGLE or a competitor): kind tag plus
    parameter vector."""
    kind: str
    params: tuple[float, ...]

    @property
    def n_params(self) -> int:
        return len(_SPECS[self.kind].kinds)


def _nested(image, index=None, slope=None):
    """log_pdf, log_sf, their derivative kernels and the image of the
    competitor that is RTGLE at image(*params).  index gives, per
    coordinate, the RTGLE coordinate image maps it to, one to one, for the
    chain rule; slope(*params) the first and second derivative of the maps
    that are not the identity, by coordinate (W's alpha = 1/sigma).
    Without index there are no derivative kernels.  Since the Jacobian is
    constant over a row, a Hessian is J^T H J of RTGLE's summed one, plus
    the second derivative times the summed derivative by that
    coordinate."""
    pick = (slice(None),) + np.ix_(index, index) if index else None

    def chain(d_kernel):
        def d(x, x2, *v):
            value, grad, second = d_kernel(x, x2, *image(*v))
            slopes = slope(*v) if slope else {}
            grad_v = tuple(slopes[c][0] * grad[i] if c in slopes else grad[i]
                           for c, i in enumerate(index))

            def second_v(weights):
                h = second(weights)[pick]
                for c, (first, curvature) in slopes.items():
                    first = np.reshape(first, (-1, 1))
                    h[:, c] *= first
                    h[:, :, c] *= first
                    h[:, c, c] += np.reshape(curvature, -1) * np.reshape(
                        np.add.reduce(weights * grad[index[c]], axis=-1), -1)
                return h
            return value, grad_v, second_v
        return d if index else None
    return (lambda x, x2, *v: _log_pdf_kernel(x, x2, *image(*v)),
            lambda x, x2, *v: _log_sf_kernel(x, x2, *image(*v)),
            chain(_d_log_pdf_kernel), chain(_d_log_sf_kernel), image)


def _summed(x, entries, layout, weights):
    """The weighted sum over the points of a k x k Hessian, (R, k, k), from
    its distinct per-point entries (broadcast against x) and layout, the
    entry of each of its elements, row by row."""
    sums = np.matmul(np.stack(np.broadcast_arrays(x, *entries)[1:], axis=-2),
                     weights[..., None])
    k = math.isqrt(len(layout))
    return sums.reshape(-1, len(entries))[:, layout].reshape(-1, k, k)


def _transmuted(base_d_log_pdf, base_d_log_sf):
    """log_pdf, log_sf and their derivative kernels of G(1 + lam - lam*G)
    for a baseline G, given by its derivative kernels, whose parameters
    come before lam: S = S_G (1 - lam*G), f = g (1 + lam - 2*lam*G); no
    RTGLE image.  The factors are written so that they do not cancel as G
    -> 1 or G -> 0: 1 + lam - 2 lam G as (1 - lam) + 2 lam S_G for lam >=
    0 and (1 + lam) - 2 lam G below, and 1 - lam G as (1 - lam) + lam S_G
    in the upper tail S_G < 1/2, and below it as log1p(-lam G), which keeps
    the digits of a small G.  With dG = -S_G d log S_G, d
    log f = d log g - 2 lam dG / (1 + lam - 2 lam G) and d log S = d log
    S_G - lam dG / (1 - lam G) by the baseline's parameters, and (1 - 2G)
    / (1 + lam - 2 lam G) and -G / (1 - lam G) by lam.  The plain kernels
    are the values of these.  For a factor M = 1 + lam - 2 lam G (N = 1 -
    lam G) and c = 2 lam S_G / M (lam S_G / N), d2 log M by the baseline's
    parameters is c (d2 log S_G + d log S_G d log S_G^T) - c^2 d log S_G d
    log S_G^T, by them and lam 2 S_G / M^2 d log S_G (S_G / N^2 d log S_G),
    and by lam -((1 - 2G) / M)^2 (-(G / N)^2)."""
    def summed(weights, d_log_s, base, c, cross, by_lam):
        """The weighted sum of the Hessian of log f or log S: base the
        baseline's part, d log S_G (k - 1 arrays), and the factor's c,
        cross and derivative by lam."""
        d = np.stack(d_log_s, axis=-2)
        k = len(d_log_s) + 1
        block = base + np.matmul(d * (weights * (c - c * c))[..., None, :],
                                 np.swapaxes(d, -1, -2)).reshape(-1, k - 1,
                                                                 k - 1)
        h = np.empty((len(block), k, k))
        h[:, :-1, :-1] = block
        h[:, -1, :-1] = h[:, :-1, -1] = np.matmul(
            d, (weights * cross)[..., None]).reshape(-1, k - 1)
        h[:, -1, -1] = np.reshape(np.add.reduce(
            weights * -(by_lam * by_lam), axis=-1), -1)
        return h

    def d_log_pdf(x, x2, *v):
        *base, lam = v
        log_s, d_log_s, sf_second = base_d_log_sf(x, x2, *base)
        log_g, d_log_g, pdf_second = base_d_log_pdf(x, x2, *base)
        g, s = -np.expm1(log_s), np.exp(log_s)
        size = np.abs(lam)
        mix = (1.0 - size) + 2.0 * size * np.where(lam >= 0.0, s, g)
        c = 2.0 * lam * s / mix
        grad = tuple([a + c * b for a, b in zip(d_log_g, d_log_s)]
                     + [(1.0 - 2.0 * g) / mix])
        return log_g + np.log(mix), grad, lambda w: summed(
            w, d_log_s, pdf_second(w) + sf_second(w * c), c,
            2.0 * s / mix / mix, grad[-1])

    def d_log_sf(x, x2, *v):
        *base, lam = v
        log_s, d_log_s, sf_second = base_d_log_sf(x, x2, *base)
        g, s = -np.expm1(log_s), np.exp(log_s)
        tail = s < 0.5
        lam_t = lam * np.where(tail, s, -g)
        mix = np.where(tail, 1.0 - lam, 1.0) + lam_t
        c = 1.0 + lam * s / mix
        grad = tuple([c * b for b in d_log_s] + [-g / mix])
        return (log_s + np.where(tail, np.log(mix), np.log1p(lam_t)), grad,
                lambda w: summed(w, d_log_s, sf_second(w * c), c - 1.0,
                                 s / mix / mix, grad[-1]))
    return (lambda *a: d_log_pdf(*a)[0], lambda *a: d_log_sf(*a)[0],
            d_log_pdf, d_log_sf, None)


def _lindley_d_log_pdf(x, x2, theta):
    """d log f = 2/theta - 1/(theta+1) - x, d2 log f = 1/(theta+1)^2 -
    2/theta^2."""
    return (2.0 * _log(theta) - _log(theta + 1.0) + np.log1p(x) - theta * x,
            (2.0 / theta - 1.0 / (theta + 1.0) - x,),
            lambda w: _summed(x, (1.0 / (theta + 1.0) ** 2
                                  - 2.0 / theta ** 2,), [0], w))


def _lindley_d_log_sf(x, x2, theta):
    """d log S = x / D - x with D = (theta+1)(theta+1+theta x), d2 log S =
    -x (2 (theta+1) + (2 theta + 1) x) / D^2."""
    t1 = theta + 1.0
    d = t1 * (t1 + theta * x)
    return (np.log1p(theta * x / t1) - theta * x, (x / d - x,),
            lambda w: _summed(x, (-x * (2.0 * t1 + (2.0 * theta + 1.0) * x)
                                  / (d * d),), [0], w))


def _loglogistic_d_log_pdf(x, x2, a, b):
    """With u = (x/a)^b and q = (u-1)/(u+1): d log f = (b/a) q by a and
    1/b - log(x/a) q by b; with v = u/(1+u)^2, d2 log f = -(b/a^2)(q +
    2 b v), (q + 2 b v log(x/a))/a and -1/b^2 - 2 v log(x/a)^2."""
    t = x / a
    log_t = np.log(t)
    u = np.power(t, b)
    q = (u - 1.0) / (u + 1.0)

    def second(w):
        v = u / (u + 1.0) ** 2
        return _summed(x, (-b / (a * a) * (q + 2.0 * b * v),
                           (q + 2.0 * b * v * log_t) / a,
                           -1.0 / (b * b) - 2.0 * v * log_t * log_t),
                       [0, 1, 1, 2], w)
    return (_log(b / a) + (b - 1.0) * log_t - 2.0 * np.log1p(u),
            (b / a * q, 1.0 / b - log_t * q), second)


def _loglogistic_d_log_sf(x, x2, a, b):
    """With s = u/(1+u): d log S = (b/a) s by a and -log(x/a) s by b; with
    v = u/(1+u)^2, d2 log S = -(b/a^2)(s + b v), (s + b v log(x/a))/a and
    -v log(x/a)^2."""
    t = x / a
    log_t = np.log(t)
    u = np.power(t, b)
    q = u / (1.0 + u)

    def second(w):
        v = q / (1.0 + u)
        return _summed(x, (-b / (a * a) * (q + b * v),
                           (q + b * v * log_t) / a, -v * log_t * log_t),
                       [0, 1, 1, 2], w)
    return -np.log1p(u), (b / a * q, -log_t * q), second


_WEIBULL = _nested(lambda mu, s: (1.0 / s, 0.0, mu, 0.0), (2, 0),
                   lambda mu, s: {1: (-1.0 / (s * s), 2.0 / (s * s * s))})

# RTW is searched on its image's free coordinates (alpha, gamma, p), alpha
# = theta^(1/gamma), and reported by theta = alpha^gamma: in theta the
# power bends the likelihood's valley, and starts at a large gamma crawl
# along it (parameter-effects curvature, Bates & Watts 1980).  The
# (theta, gamma, p) record in _SPECS has no derivative kernels and serves
# evaluation only (competitor_*, make_competitor): a fit scores each
# optimum on this record, at the image of its theta
_RTW_IMAGE = _Model(
    "RTW", ("alpha", "gamma", "p"), ("pos", "pos", "unit"),
    *_nested(lambda a, g, p: (a, 0.0, g, p), (0, 2, 3)),
    start=lambda x: (1.0 / np.mean(x), 1.0, 0.5))


def _rtw_jacobian(a, g, p):
    """d (theta, gamma, p) / d (alpha, gamma, p) at theta = alpha^gamma."""
    theta = a ** g
    return ((g * theta / a, theta * math.log(a), 0.0), (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0))

# the model registry: RTGLE, then the competitors, as model records of the
# estimation engine; a competitor fit starts at its own start, since
# config.start is an RTGLE start
_SPECS: dict[str, _Model] = {m.name: m for m in (
    _RTGLE,
    _Model("RTW", ("theta", "gamma", "p"), ("pos", "pos", "unit"),
           *_nested(lambda th, g, p: (_libm(np.power, th, 1.0 / g), 0.0,
                                     g, p)),
           start=_RTW_IMAGE.start,   # theta = alpha at gamma = 1
           search=(_RTW_IMAGE,
                   lambda a, g, p: (_libm(np.power, a, g), g, p),
                   lambda th, g, p: (_libm(np.power, th, 1.0 / g), g, p),
                   _rtw_jacobian)),
    _Model("W", ("mu", "sigma"), ("pos", "pos"), *_WEIBULL,
           start=lambda x: (1.0, np.mean(x))),
    _Model("TW", ("mu", "sigma", "lambda"), ("pos", "pos", "sym"),
           *_transmuted(*_WEIBULL[2:4]),
           start=lambda x: (1.0, np.mean(x), 0.0)),
    _Model("TL", ("theta", "lambda"), ("pos", "sym"),
           *_transmuted(_lindley_d_log_pdf, _lindley_d_log_sf),
           start=lambda x: (1.0 / np.mean(x), 0.0)),
    _Model("TLL", ("alpha", "beta", "lambda"), ("pos", "pos", "sym"),
           *_transmuted(_loglogistic_d_log_pdf, _loglogistic_d_log_sf),
           start=lambda x: (np.median(x), 1.0, 0.0)),
    _Model("RTLE", ("alpha", "beta", "p"), ("rate", "rate", "unit"),
           *_nested(lambda a, b, p: (a, b, 1.0, p), (0, 1, 3)),
           start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2, 0.5)),
    _Model("LE", ("alpha", "beta"), ("rate", "rate"),
           *_nested(lambda a, b: (a, b, 1.0, 0.0), (0, 1)),
           start=lambda x: (1.0 / np.mean(x), 0.1 / np.mean(x) ** 2)),
)}

COMPETITOR_KINDS = tuple(_SPECS)[1:]


def make_competitor(kind: str, *params: float) -> CompetitorModel:
    if kind not in COMPETITOR_KINDS:
        raise KeyError(f"unknown competitor kind {kind!r}")
    spec = _SPECS[kind]
    if len(params) != len(spec.kinds):
        raise ValueError(f"{kind} takes {len(spec.kinds)} parameters")
    # the search's box; an open lower edge (a shape or scale) is excluded
    box = (a.tolist() for a in _box(spec.kinds))
    for name, v, low, high, closed in zip(spec.param_names, params, *box):
        if not math.isfinite(v):
            raise ValueError(f"{kind}: {name} must be finite, got {v!r}")
        if not (low <= v <= high and (closed or v > low)):
            raise ValueError(
                f"{kind}: {name} must lie in {'[' if closed else '('}{low:g},"
                f" {high:g}{']' if high < math.inf else ')'}, got {v!r}")
    if spec.image:  # a nested kind is evaluated as RTGLE at its image
        with np.errstate(over="ignore"):
            image = spec.image(*params)
        try:
            _checked(*image)
        except ValueError:
            raise ValueError(f"{kind}: {params!r} has no valid finite RTGLE "
                             "image") from None
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
    diagnostics: str = ""
    # per coordinate: on a closed edge of the parameter space (a rate at
    # 0, p at 0 or 1, lambda at -1 or 1) at the optimum
    at_boundary: tuple[bool, ...] = ()


def fit_competitor(kind: str, data,
                   config: OptimizerConfig | None = None) -> CompetitorFit:
    """Maximum likelihood fit of one registry model (RTGLE or a
    competitor): the engine's one fit routine on one sample, plus the
    standard errors.  Where the information matrix is not positive definite
    or the estimate is on an edge, they are None and diagnostics says why.
    Raises NonPositiveData, DegenerateData or AllStartsFailed."""
    config = config or OptimizerConfig()
    model = _SPECS[kind]
    ((opt,),) = _lockstep_fits([data], (EstimationMethod.MLE,), config, model)
    if isinstance(opt, Exception):
        raise opt
    values, objective, _, converged, at_boundary = opt
    result = CompetitorFit(model=CompetitorModel(kind, values),
                           minus2loglik=2.0 * objective, converged=converged,
                           n_starts_used=config.n_starts,
                           at_boundary=at_boundary)
    try:
        result.standard_errors = _standard_errors(model, values, data)
    except HessianNotPD as exc:
        result.diagnostics = str(exc)
    return result


# --- comparison pipeline --------------------------------------------------------

@dataclass
class ComparisonRow:
    model: str
    params: dict[str, float]
    standard_errors: dict[str, float] | None
    gof: GofReport | None
    error: str | None = None
    diagnostics: str = ""        # why standard_errors is None, if it is


def comparison_table(data, config: OptimizerConfig | None = None
                     ) -> list[ComparisonRow]:
    """Fit every model of the registry (RTGLE and the seven competitors)
    with fit_competitor, compute GoF for each, sort by AIC.

    A model whose fit raises a typed fit error (NonPositiveData,
    DegenerateData, InvalidParams, AllStartsFailed) is kept as an error row
    so partial results survive; any other error propagates.
    """
    x = _check_data(data)
    rows: list[ComparisonRow] = []
    for kind, spec in _SPECS.items():
        try:
            cf = fit_competitor(kind, x, config)
            params = dict(zip(spec.param_names, cf.model.params))
            se = cf.standard_errors
            rep = gof_report(partial(competitor_cdf, cf.model), x,
                             minus2loglik=cf.minus2loglik, r=len(params))
            rows.append(ComparisonRow(kind, params,
                                      dict(zip(params, se)) if se else None,
                                      rep, diagnostics=cf.diagnostics))
        except (NonPositiveData, DegenerateData, InvalidParams,
                AllStartsFailed) as exc:
            rows.append(ComparisonRow(kind, {}, None, None, str(exc)))

    rows.sort(key=lambda r: (r.gof is None, r.gof.aic if r.gof else 0.0))
    return rows
