"""Parameter estimation for RTGLE: maximum likelihood plus four
minimum-distance methods (least squares, weighted least squares,
Anderson-Darling, Cramer-von Mises).

One private engine serves these fits and the competitor fits in
``compare``.  It searches a smooth unconstrained reparametrization chosen
per coordinate kind (log for positive values, logit for probabilities,
atanh for values in [-1, 1]) by multi-start Nelder-Mead, with an optional
analytic-gradient BFGS polish.  Standard errors come from the inverse
observed information (central-difference Hessian in transformed
coordinates, mapped back by the delta method).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

# log_pdf, cdf and sf are looked up here by the benchmark's per-layer
# tracing (bench/tracing.py)
from .distribution import (RtgleParams, _checked, _log_pdf_kernel,  # noqa: F401
                           _log_sf_kernel, cdf, log_pdf, sf, validate)
from .gof import _cvm, _cvm_positions


class EstimationMethod(enum.Enum):
    MLE = "mle"
    LSE = "lse"
    WLSE = "wlse"
    ADE = "ade"
    CME = "cme"


class NonPositiveData(ValueError):
    """Input sample contains values <= 0 (support is x > 0)."""


class DegenerateData(ValueError):
    """The sample has fewer than two distinct values, so no fit exists."""


class AllStartsFailed(RuntimeError):
    """Every optimizer start failed to produce a finite objective."""


@dataclass
class OptimizerConfig:
    max_iterations: int = 2000
    tolerance: float = 1e-10
    n_starts: int = 20
    seed: int = 0
    step_tolerance: float = 1e-8
    start: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.max_iterations <= 0 or self.tolerance <= 0 or self.n_starts <= 0:
            raise ValueError("optimizer config fields must be positive")
        if self.step_tolerance <= 0:
            raise ValueError("optimizer config fields must be positive")


@dataclass
class FitResult:
    params: RtgleParams
    objective: float
    converged: bool
    iterations: int
    n_starts_used: int
    method: EstimationMethod
    standard_errors: tuple[float, float, float, float] | None = None
    diagnostics: str = ""


def _check_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise NonPositiveData("data must be a nonempty 1-d vector")
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise NonPositiveData("all data values must be positive and finite")
    return x


# --- objectives ---------------------------------------------------------------
# _objective checks the data once per fit (and, for the distance methods,
# sorts it and tabulates every data-only array once) and returns the
# objective as a function of the plain floats (alpha, beta, gamma, p) on the
# interior kernels of ``distribution``.  The data are positive, so of the
# public functions' masking only NaN log density -> -inf can act.  Callers
# evaluate it under _IGNORE: far from the optimum the kernels overflow.

_IGNORE = dict(divide="ignore", invalid="ignore", over="ignore")


def _objective(method: EstimationMethod, data):
    x = _check_data(data)
    if method is EstimationMethod.MLE:
        x2 = np.square(x)

        def nll(a, b, g, p):
            lp = _log_pdf_kernel(a, b, g, p, x, x2)
            total = float(lp.sum())
            # a -inf or NaN log density is a zero density: +inf
            if not math.isfinite(total) and (np.isneginf(lp)
                                             | np.isnan(lp)).any():
                return math.inf
            return -total
        return nll

    x = np.sort(x)
    x2 = np.square(x)
    n = len(x)
    i = np.arange(1, n + 1)

    if method is EstimationMethod.ADE:
        coef = 2 * i - 1

        def ad(a, b, g, p):
            log_s = _log_sf_kernel(a, b, g, p, x, x2)
            f, s = -np.expm1(log_s), np.exp(log_s)
            if (f <= 0.0).any() or (s <= 0.0).any():
                return math.inf
            return float(-n - (coef * (np.log(f) + np.log(s[::-1]))).sum() / n)
        return ad

    def cdf_at(a, b, g, p):
        return -np.expm1(_log_sf_kernel(a, b, g, p, x, x2))

    if method is EstimationMethod.CME:
        mid = _cvm_positions(n)
        return lambda a, b, g, p: _cvm(cdf_at(a, b, g, p), mid)
    pos = i / (n + 1.0)
    if method is EstimationMethod.LSE:
        return lambda a, b, g, p: float(((cdf_at(a, b, g, p) - pos) ** 2).sum())
    w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
    return lambda a, b, g, p: float(
        (w * (cdf_at(a, b, g, p) - pos) ** 2).sum())


@np.errstate(**_IGNORE)
def _evaluate(method: EstimationMethod, params: RtgleParams, data) -> float:
    return _objective(method, data)(*params.as_tuple())


def neg_log_likelihood(params: RtgleParams, data) -> float:
    """Negative log-likelihood; +inf if any point has zero density."""
    return _evaluate(EstimationMethod.MLE, params, data)


def _nll_gradient(values, x: np.ndarray) -> np.ndarray:
    a, b, g, p = values
    if a <= 0.0 or b <= 0.0 or not (0.0 < p < 1.0):
        raise ValueError("gradient requires interior parameters "
                         "(alpha>0, beta>0, 0<p<1)")
    n = len(x)
    m = a * x + 0.5 * b * x * x
    z = np.power(m, g)
    logm = np.log(m)
    mix = (1.0 - p) + p * z
    zg1 = np.power(m, g - 1.0)

    dl_da = (np.sum(1.0 / (a + b * x))
             + (g - 1.0) * np.sum(x / m)
             + p * g * np.sum(x * zg1 / mix)
             - g * np.sum(x * zg1))
    x2h = 0.5 * x * x
    dl_db = (np.sum(x / (a + b * x))
             + (g - 1.0) * np.sum(x2h / m)
             + p * g * np.sum(x2h * zg1 / mix)
             - g * np.sum(x2h * zg1))
    dl_dg = (n / g
             + np.sum(logm)
             + p * np.sum(z * logm / mix)
             - np.sum(z * logm))
    dl_dp = np.sum((z - 1.0) / mix)
    return -np.array([dl_da, dl_db, dl_dg, dl_dp])


def nll_gradient(params: RtgleParams, data) -> np.ndarray:
    """Analytic gradient of the negative log-likelihood w.r.t.
    (alpha, beta, gamma, p); requires interior parameters."""
    return _nll_gradient(params.as_tuple(), _check_data(data))


def ls_objective(params: RtgleParams, data) -> float:
    """Sum of squared deviations of F(x_(i)) from i/(n+1)."""
    return _evaluate(EstimationMethod.LSE, params, data)


def wls_objective(params: RtgleParams, data) -> float:
    """ls_objective with inverse-variance weights
    (n+1)^2 (n+2) / (i (n-i+1))."""
    return _evaluate(EstimationMethod.WLSE, params, data)


def ad_objective(params: RtgleParams, data) -> float:
    """Anderson-Darling distance; +inf when any F(x_(i)) hits 0 or 1."""
    return _evaluate(EstimationMethod.ADE, params, data)


def cvm_objective(params: RtgleParams, data) -> float:
    """Cramer-von Mises distance 1/(12n) + sum (F(x_(i)) - (2i-1)/(2n))^2."""
    return _evaluate(EstimationMethod.CME, params, data)


_OBJECTIVES = {
    EstimationMethod.MLE: neg_log_likelihood,
    EstimationMethod.LSE: ls_objective,
    EstimationMethod.WLSE: wls_objective,
    EstimationMethod.ADE: ad_objective,
    EstimationMethod.CME: cvm_objective,
}


# --- estimation engine ---------------------------------------------------------
# A parameter vector is described by the kind of each coordinate: "pos"
# (> 0), "unit" (a probability) or "sym" (in [-1, 1]).

_LOGIT_CLAMP = 40.0
# largest free-coordinate gradient, relative to 1 + |objective|, at which a
# BFGS polish that stopped on precision loss still counts as converged
_STATIONARY_GTOL = 1e-6
_RTGLE_KINDS = ("pos", "pos", "pos", "unit")


def _to_free(values, kinds) -> np.ndarray:
    """Map interior natural-scale values to unconstrained coordinates."""
    out = []
    for v, k in zip(values, kinds):
        if k == "pos" and v > 0.0:
            out.append(math.log(v))
        elif k == "unit" and 0.0 < v < 1.0:
            out.append(math.log(v / (1.0 - v)))
        elif k == "sym" and -1.0 < v < 1.0:
            out.append(math.atanh(v))
        else:
            raise ValueError("transform requires interior parameters")
    return np.array(out)


def _logistic(t: float) -> float:
    t = min(max(t, -_LOGIT_CLAMP), _LOGIT_CLAMP)
    return 1.0 / (1.0 + math.exp(-t))


_INVERSE = {"pos": math.exp, "unit": _logistic, "sym": math.tanh}


def _from_free(theta, kinds) -> tuple[float, ...]:
    """Inverse of _to_free; logit coordinates are clamped to |t| <= 40."""
    return tuple([_INVERSE[k](t) for t, k in
                  zip(np.asarray(theta, dtype=float).tolist(), kinds)])


def _jacobian(values, kinds) -> np.ndarray:
    """Derivative of each natural-scale value by its free coordinate."""
    return np.array([v if k == "pos" else v * (1.0 - v) if k == "unit"
                     else 1.0 - v * v for v, k in zip(values, kinds)])


def transform(params: RtgleParams) -> np.ndarray:
    """Map interior params to unconstrained R^4 (log, log, log, logit)."""
    return _to_free(params.as_tuple(), _RTGLE_KINDS)


def _untransform_values(theta) -> tuple[float, float, float, float]:
    """untransform as validated floats, without building RtgleParams."""
    return _checked(*_from_free(theta, _RTGLE_KINDS))


def untransform(theta) -> RtgleParams:
    """Inverse of transform; the logit coordinate is clamped to |t| <= 40."""
    return RtgleParams(*_untransform_values(theta))


@np.errstate(**_IGNORE)
def _search(objective, center: np.ndarray, scale, config: OptimizerConfig,
            what: str, gradient=None):
    """Multi-start Nelder-Mead on an objective of the free coordinates.

    The starts are center and config.n_starts - 1 normal perturbations of
    it with standard deviation scale (Philox keyed by config.seed).  An
    objective raising ArithmeticError or ValueError counts as +inf; it runs
    with floating-point warnings off (_IGNORE).  With a
    gradient, a BFGS polish from the best simplex optimum is kept unless it
    raises the objective.  Returns that optimum's OptimizeResult, whose
    ``success`` is that of the step that produced it.
    """
    def guarded(theta):
        try:
            return objective(theta)
        except (ArithmeticError, ValueError):
            return math.inf

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    best = None
    for i in range(config.n_starts):
        theta0 = center if i == 0 else \
            center + rng.normal(scale=scale, size=len(center))
        if not np.isfinite(guarded(theta0)):
            continue
        res = minimize(guarded, theta0, method="Nelder-Mead",
                       options={"maxiter": config.max_iterations,
                                "fatol": config.tolerance,
                                "xatol": config.step_tolerance,
                                "adaptive": True})
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise AllStartsFailed(f"no start produced a finite {what}")

    if gradient is not None:
        try:
            polished = minimize(guarded, best.x, jac=gradient, method="BFGS",
                                options={"maxiter": 200, "gtol": 1e-8})
            if np.isfinite(polished.fun) and polished.fun <= best.fun:
                best.x, best.fun = polished.x, polished.fun
                best.nit += polished.nit
                # a stop on precision loss at a stationary point converged
                best.success = polished.success or (
                    polished.status == 2
                    and np.max(np.abs(polished.jac))
                    <= _STATIONARY_GTOL * (1.0 + abs(polished.fun)))
        except ValueError:
            pass
    return best


class HessianNotPD(ArithmeticError):
    """Observed information matrix is not positive definite at the optimum."""


@np.errstate(**_IGNORE)
def _delta_method_se(f, theta: np.ndarray, values,
                     kinds) -> tuple[float, ...]:
    """standard_errors for a negative log-likelihood ``f`` of the free
    coordinates, at free point ``theta`` = natural-scale ``values``."""
    k = len(theta)
    h = 1e-4 * (1.0 + np.abs(theta))
    hess = np.empty((k, k))
    f0 = f(theta)
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k); ei[i] = h[i]
            ej = np.zeros(k); ej[j] = h[j]
            if i == j:
                val = (f(theta + ei) - 2.0 * f0 + f(theta - ei)) / h[i] ** 2
            else:
                val = (f(theta + ei + ej) - f(theta + ei - ej)
                       - f(theta - ei + ej) + f(theta - ei - ej)) \
                    / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    if not np.all(np.isfinite(hess)):
        raise HessianNotPD("Hessian evaluation produced non-finite entries")
    try:
        cov_t = np.linalg.inv(hess)
    except np.linalg.LinAlgError as exc:
        raise HessianNotPD(f"Hessian is singular: {exc}") from exc
    diag = np.diag(cov_t)
    if np.any(diag <= 0.0):
        raise HessianNotPD("inverse information has non-positive diagonal")
    se = np.sqrt(diag) * np.abs(_jacobian(values, kinds))
    return tuple(float(v) for v in se)


# --- RTGLE fitting ---------------------------------------------------------------

def _start_center(data: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """A moment-flavored start in free coordinates, or config.start."""
    if config.start is not None:
        return transform(validate(*config.start))
    mean = float(np.mean(data))
    var = float(np.var(data))
    # exponential-rate center; beta sized so the quadratic term matters
    # at the sample scale; gamma from the coefficient-of-variation
    # direction
    a0 = 1.0 / mean
    b0 = max(1.0 / (mean * mean + var), 1e-3)
    cv2 = var / (mean * mean) if mean > 0 else 1.0
    g0 = min(max(1.0 / math.sqrt(cv2), 0.3), 3.0) if cv2 > 0 else 1.0
    return np.array([math.log(a0), math.log(b0 * 0.5), math.log(g0), 0.0])


def fit(data, method: EstimationMethod,
        config: OptimizerConfig | None = None,
        polish_gradient: bool = True,
        compute_se: bool = True) -> FitResult:
    """Minimize the chosen objective by multi-start Nelder-Mead.

    Deterministic given (data, method, config.seed).  For MLE an analytic
    gradient BFGS polish runs from the best simplex optimum when the result
    is interior.
    """
    config = config or OptimizerConfig()
    x = _check_data(data)
    if x.min() == x.max():
        raise DegenerateData("fitting needs at least two distinct data values")
    objective = _objective(method, x)

    def obj_t(theta):
        return objective(*_untransform_values(theta))

    grad_t = None
    if method is EstimationMethod.MLE and polish_gradient:
        def grad_t(th):
            values = _untransform_values(th)
            return _nll_gradient(values, x) * _jacobian(values, _RTGLE_KINDS)

    opt = _search(obj_t, _start_center(x, config), [1.0, 1.5, 0.5, 1.5],
                  config, f"{method.value} objective", grad_t)
    params = untransform(opt.x)
    result = FitResult(params=params, objective=float(opt.fun),
                       converged=bool(opt.success), iterations=int(opt.nit),
                       n_starts_used=config.n_starts, method=method)
    if method is EstimationMethod.MLE and compute_se:
        try:
            result.standard_errors = standard_errors(params, x)
        except HessianNotPD as exc:
            result.standard_errors = None
            result.diagnostics = str(exc)
    return result


def standard_errors(params_at_mle: RtgleParams, data
                    ) -> tuple[float, float, float, float]:
    """Delta-method standard errors from the inverse observed information.

    The Hessian of the negative log-likelihood is taken by central
    differences in transformed coordinates (step 1e-4 * (1 + |theta|)),
    inverted, and mapped to the natural scale.
    """
    nll = _objective(EstimationMethod.MLE, data)

    def f(th):
        return nll(*_untransform_values(th))

    return _delta_method_se(f, transform(params_at_mle),
                            params_at_mle.as_tuple(), _RTGLE_KINDS)
