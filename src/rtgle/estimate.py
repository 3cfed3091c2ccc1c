"""Parameter estimation for RTGLE: maximum likelihood plus four
minimum-distance methods (least squares, weighted least squares,
Anderson-Darling, Cramer-von Mises).

One private engine fits every model: RTGLE and the competitors in
``compare`` are model records (``_Model``) of one fit routine.  It searches
a smooth unconstrained reparametrization chosen per coordinate kind (log
for positive values, logit for probabilities, atanh for values in [-1,
1]) by multi-start Nelder-Mead, the one optimizer.  The Nelder-Mead
runs every start of a fit, or of many fits (``fit_many``), in lockstep on
row objectives, and takes scipy's adaptive Nelder-Mead steps to the bit.
``fit`` is ``fit_many`` on one sample, plus for an MLE the standard errors
from the inverse observed information (central-difference Hessian in
transformed coordinates, mapped back by the delta method).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# log_pdf, cdf and sf are looked up here by the benchmark's per-layer
# tracing (bench/tracing.py)
from .distribution import (InvalidParams, RtgleParams,  # noqa: F401
                           _columns, _libm, _log_pdf_kernel, _log_sf_kernel,
                           _valid_rows, cdf, log_pdf, sf, validate)
from .gof import _cvm_positions


class EstimationMethod(enum.Enum):
    MLE = "mle"
    LSE = "lse"
    WLSE = "wlse"
    ADE = "ade"
    CME = "cme"


class NonPositiveData(ValueError):
    """Input sample contains values <= 0 (support is x > 0)."""


class DegenerateData(ValueError):
    """The sample has fewer than two distinct values, or no more values
    than the model has free parameters, so no fit exists."""


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


def _check_fit_data(data, k: int) -> np.ndarray:
    """_check_data for a fit of k free parameters, which needs two distinct
    values and more than k of them."""
    x = _check_data(data)
    if x.min() == x.max():
        raise DegenerateData("fitting needs at least two distinct data values")
    if len(x) <= k:
        raise DegenerateData(f"fitting {k} parameters needs more than {k} "
                             f"data values, got {len(x)}")
    return x


# --- objectives ---------------------------------------------------------------
# _row_objective takes checked samples, sorts them and tabulates every
# data-only array once, and returns the objectives of many fits as one
# function of natural values, one row per evaluation, on the interior
# kernels of ``distribution`` or of a competitor in ``compare``.  A row's
# value does not depend on the other rows, to the bit; the public objectives
# are its value on one row.  Callers evaluate it under _IGNORE: far from the
# optimum the kernels overflow.

_IGNORE = dict(divide="ignore", invalid="ignore", over="ignore")


def _row_objective(methods, data: np.ndarray, log_pdf=_log_pdf_kernel,
                   log_sf=_log_sf_kernel):
    """objective(v, fits) -> (R,) for natural values v (R, k) and fit
    numbers fits (R,): fit f is method methods[f % M] on sample
    data[f // M] of the checked samples data (S, n), for the model with log
    density log_pdf(x, x2, *v) and log survival log_sf(x, x2, *v)."""
    n_methods, n = len(methods), data.shape[1]
    x2 = np.square(data)
    xs = np.sort(data, axis=1)
    xs2 = np.square(xs)
    i = np.arange(1, n + 1)
    coef = 2 * i - 1
    pos = i / (n + 1.0)
    # LSE, WLSE and CME are c0 + sum w (F(x_(i)) - position)^2; w = 1 and
    # c0 = 0 change no bit of the unweighted and unshifted sums
    ones = np.ones(n)
    least_squares = {
        EstimationMethod.LSE: (0.0, ones, pos),
        EstimationMethod.WLSE: (0.0, (n + 1.0) ** 2 * (n + 2.0)
                                / (i * (n - i + 1.0)), pos),
        EstimationMethod.CME: (1.0 / (12.0 * n), ones, _cvm_positions(n))}
    c0, w, target = (np.array(t) for t in zip(*(
        least_squares.get(m, (0.0, ones, pos)) for m in methods)))
    formula = np.array([0 if m is EstimationMethod.MLE
                        else 1 if m is EstimationMethod.ADE else 2
                        for m in methods])

    def rows(table, index):
        """The rows of a per-sample or per-method table; one row is
        broadcast instead of copied."""
        return table[0] if len(table) == 1 else table[index]

    def mle(v, s, j):
        total = log_pdf(rows(data, s), rows(x2, s), *_columns(v)).reshape(
            len(v), -1).sum(axis=1)
        # a non-finite total is a zero, infinite or undefined likelihood
        return np.where(np.isfinite(total), -total, np.inf)

    def ade(v, s, j):
        log_s = log_sf(rows(xs, s), rows(xs2, s), *_columns(v)).reshape(
            len(v), -1)
        f, sv = -np.expm1(log_s), np.exp(log_s)
        # a fit on its own takes np.log(s[::-1]) of a 1-d s: a
        # negative-stride view, so the C library's log
        terms = np.log(f) + _libm(np.log, sv)[:, ::-1]
        # every term is <= 0, so F = 0 or S = 0 makes the value +inf; it is
        # NaN where z overflowed, where S = 0
        out = -n - (coef * terms).sum(axis=1) / n
        out[np.isnan(out)] = np.inf
        return out

    def distance(f, j):
        return rows(c0, j) + (rows(w, j) * (f - rows(target, j)) ** 2
                              ).sum(axis=1)

    def squares(v, s, j):
        f = -np.expm1(log_sf(rows(xs, s), rows(xs2, s), *_columns(v)
                             ).reshape(len(v), -1))
        out = distance(f, j)
        bad = np.isnan(out)
        if bad.any():  # F is NaN where z overflowed; cdf's limit there is 1
            out[bad] = distance(np.fmin(f[bad], 1.0), j[bad])
        return out

    formulas = (mle, ade, squares)

    def objective(v, fits):
        if n_methods == 1:  # s = fits, and every per-method table has one row
            return formulas[formula[0]](v, fits, fits)
        s, j = np.divmod(fits, n_methods)
        kind = formula[j]
        out = np.empty(len(v))
        for k, evaluate in enumerate(formulas):
            sel = kind == k
            if sel.any():
                out[sel] = evaluate(v[sel], s[sel], j[sel])
        return out
    return objective


@np.errstate(**_IGNORE)
def _evaluate(method: EstimationMethod, params: RtgleParams, data) -> float:
    objective = _row_objective((method,), _check_data(data)[None])
    return float(objective(np.array([params.as_tuple()], dtype=float),
                           np.zeros(1, dtype=int))[0])


def neg_log_likelihood(params: RtgleParams, data) -> float:
    """Negative log-likelihood; +inf where the log-likelihood is not
    finite."""
    return _evaluate(EstimationMethod.MLE, params, data)


def nll_gradient(params: RtgleParams, data) -> np.ndarray:
    """Analytic gradient of the negative log-likelihood w.r.t.
    (alpha, beta, gamma, p); requires interior parameters."""
    x = _check_data(data)
    a, b, g, p = params.as_tuple()
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


def _interior(v: float, kind: str) -> bool:
    return (v > 0.0 if kind == "pos" else 0.0 < v < 1.0 if kind == "unit"
            else -1.0 < v < 1.0)


def _to_free(values, kinds) -> np.ndarray:
    """Map interior natural-scale values to unconstrained coordinates."""
    if not all(map(_interior, values, kinds)):
        raise ValueError("transform requires interior parameters")
    return np.array([math.log(v) if k == "pos" else math.log(v / (1.0 - v))
                     if k == "unit" else math.atanh(v)
                     for v, k in zip(values, kinds)])


def _inverse(kinds):
    """The inverse of _to_free on rows, logit coordinates clamped to |t| <=
    40: natural(theta (R, k)) -> (values (R, k), ok), where ok is None while
    every exp is positive and finite, else the (R,) mask of the rows where
    no finite "pos" coordinate overflowed."""
    kinds = np.array(kinds)
    unit = np.flatnonzero(kinds == "unit")
    sym = np.flatnonzero(kinds == "sym")
    # exp(theta) for "pos", exp(-theta) for "unit" and exp(0) for "sym";
    # above t = 40, 1 + exp(-t) rounds to 1, so only -t <= 40 needs the clamp
    sign = np.where(kinds == "unit", -1.0,
                    np.where(kinds == "sym", 0.0, 1.0))
    bound = np.where(kinds == "unit", _LOGIT_CLAMP, np.inf)

    def natural(theta):
        values = _libm(np.exp, np.minimum(theta * sign, bound))
        ok = None
        if not 0.0 < np.minimum.reduce(values, axis=None) \
                <= np.maximum.reduce(values, axis=None) < np.inf:
            ok = ~np.logical_or.reduce((values == np.inf) & (theta < np.inf),
                                       axis=1)
        for c in unit:
            values[:, c] = 1.0 / (1.0 + values[:, c])
        for c in sym:  # numpy's tanh rounds differently on every path
            values[:, c] = [math.tanh(t) for t in theta[:, c].tolist()]
        return values, ok
    return natural


@np.errstate(**_IGNORE)
def _from_free(theta, kinds) -> tuple[float, ...]:
    """_inverse at one point; OverflowError, as from math.exp, where a
    finite "pos" coordinate overflows."""
    values, ok = _inverse(kinds)(np.asarray(theta, dtype=float)[None])
    if ok is not None and not ok[0]:
        raise OverflowError("math range error")
    return tuple(values[0].tolist())


def _jacobian(values, kinds) -> np.ndarray:
    """Derivative of each natural-scale value by its free coordinate."""
    return np.array([v if k == "pos" else v * (1.0 - v) if k == "unit"
                     else 1.0 - v * v for v, k in zip(values, kinds)])


def transform(params: RtgleParams) -> np.ndarray:
    """Map interior params to unconstrained R^4 (log, log, log, logit)."""
    return _to_free(params.as_tuple(), _RTGLE.kinds)


def untransform(theta) -> RtgleParams:
    """Inverse of transform; the logit coordinate is clamped to |t| <= 40."""
    return validate(*_from_free(theta, _RTGLE.kinds))


def _free_objective(objective, kinds, valid=None):
    """objective(values, fits) of natural values (R, k) as a function of
    the free coordinates, theta (R, k) and fits (R,), through _inverse; the
    value is +inf on the rows where exp of a finite "pos" coordinate
    overflows or valid(values) is False.

    valid runs only on calls with a value at 0, inf or NaN: while every
    value is positive and finite, RTGLE and the competitors' RTGLE images
    pass their checks, or give a non-finite log-likelihood, +inf all the
    same.
    """
    natural = _inverse(kinds)

    def evaluate(values, fits):
        # one row runs on floats (_columns), whose arithmetic raises where
        # numpy's gives inf or NaN; the value is +inf either way
        if len(values) > 1:
            return objective(values, fits)
        try:
            return objective(values, fits)
        except (ArithmeticError, ValueError):
            return np.full(1, np.inf)

    def on_free(theta, fits):
        values, ok = natural(theta)
        if ok is None:
            return evaluate(values, fits)
        if valid is not None:
            ok &= valid(values)
        out = np.full(len(ok), np.inf)
        if ok.any():
            out[ok] = evaluate(values[ok], fits[ok])
        return out
    return on_free


def _nelder_mead(objective, x0: np.ndarray, fits: np.ndarray, maxiter: int,
                 xatol: float, fatol: float):
    """scipy's minimize(method="Nelder-Mead") with options adaptive=True,
    maxiter, xatol and fatol, run from every row of x0 (S, N) at once; row
    s minimizes objective(., fits[s]) of the rows (R, N) -> (R,).

    The searches advance in lockstep on (S, N+1, N) simplices and leave as
    they stop.  Each step evaluates the reflections in one call, the
    expansion or contraction points in a second and the shrunk simplices in
    a third.  Every row takes scipy's steps in scipy's arithmetic, so the
    returned x (S, N), fun, nit and success (S,) are scipy's to the bit.
    """
    n_rows, N = x0.shape
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    # the trial points k1 * xbar - k2 * x_last: reflection, expansion,
    # outside and inside contraction.  (1 - psi) xbar - (-psi) x_last is
    # scipy's (1 - psi) xbar + psi x_last to the bit
    k1 = np.array([2.0, 1 + chi, 1 + psi, 1 - psi])[:, None, None]
    k2 = np.array([1.0, chi, psi, -psi])[:, None, None]

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    d = np.arange(N)
    sim[:, d + 1, d] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = objective(sim.reshape(-1, N),
                     np.repeat(fits, N + 1)).reshape(n_rows, N + 1)
    rows = np.arange(n_rows)[:, None]
    for _ in range(2):  # scipy sorts the first simplex twice; ties can move
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]

    x, fun = np.empty((n_rows, N)), np.empty(n_rows)
    nit = np.empty(n_rows, dtype=int)
    ids = np.arange(n_rows)  # the rows of x0 still searching
    iterations = 1
    while iterations < maxiter:
        # scipy's stopping test, the cheaper function-value half first; in
        # a sorted simplex max |f_j - f_0| is f_N - f_0, NaN and inf alike
        stop = fsim[:, -1] - fsim[:, 0] <= fatol
        if stop.any():
            stop &= np.maximum.reduce(np.abs(sim[:, 1:] - sim[:, :1]).reshape(
                len(ids), -1), axis=1) <= xatol
            if stop.any():
                done = ids[stop]
                x[done], fun[done] = sim[stop, 0], fsim[stop].min(axis=1)
                nit[done] = iterations
                keep = ~stop
                ids, sim, fsim, fits = (ids[keep], sim[keep], fsim[keep],
                                        fits[keep])
                rows = rows[:len(ids)]
                if not ids.size:
                    break
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        last = sim[:, -1]
        trials = k1 * xbar - k2 * last
        new_x = trials[0]
        new_f = objective(new_x, fits)
        # scipy's choice: 0 take the reflection, 1 try an expansion,
        # 2 an outside and 3 an inside contraction
        case = np.where(new_f < fsim[:, 0], 1, np.where(
            new_f < fsim[:, -2], 0, 3 - (new_f < fsim[:, -1])))
        second = case.nonzero()[0]
        shrink = second[:0]
        if second.size:
            c = case[second]
            trial = trials[c, second]
            f_trial = objective(trial, fits[second])
            f_ref = np.where(c == 3, fsim[second, -1], new_f[second])
            # an outside contraction is taken on a tie, the others are not
            take = (f_trial < f_ref) | ((f_trial == f_ref) & (c == 2))
            taken = second[take]
            new_x[taken], new_f[taken] = trial[take], f_trial[take]
            shrink = second[(c > 1) & ~take]
            if shrink.size:
                new_x[shrink], new_f[shrink] = last[shrink], fsim[shrink, -1]
        sim[:, -1], fsim[:, -1] = new_x, new_f
        if shrink.size:
            best = sim[shrink, :1]
            shrunk = best + sigma * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = objective(
                shrunk.reshape(-1, N), np.repeat(fits[shrink], N)
            ).reshape(-1, N)
        iterations += 1
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, order], fsim[rows, order]
    x[ids], fun[ids], nit[ids] = sim[:, 0], fsim.min(axis=1), iterations
    return x, fun, nit, nit < maxiter


@dataclass(frozen=True)
class _Optimum:
    """The best optimum of one fit's search, in free coordinates."""
    x: np.ndarray
    fun: float
    nit: int
    success: bool


@np.errstate(**_IGNORE)
def _search(objective, centers: np.ndarray, scale,
            config: OptimizerConfig) -> list[_Optimum | None]:
    """Multi-start Nelder-Mead for many fits at once, all in one lockstep
    search (_nelder_mead).

    Fit f's objective is objective(., f) of the free coordinates (see
    _free_objective).  Its starts are centers[f] and config.n_starts - 1
    normal perturbations of it with standard deviation scale (Philox keyed
    by config.seed, the same for every fit); a start with a non-finite
    objective is dropped.  Runs with floating-point warnings off (_IGNORE).
    Returns for each fit the optimum of its best start as an _Optimum, or
    None where no start ended finite.
    """
    n_fits, k = centers.shape
    n = config.n_starts
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    starts = np.repeat(centers[:, None, :], n, axis=1)
    for i in range(1, n):
        starts[:, i] += rng.normal(scale=scale, size=k)
    starts = starts.reshape(-1, k)
    fits = np.repeat(np.arange(n_fits), n)
    live = np.isfinite(objective(starts, fits))
    x, fun = starts, np.full(len(starts), np.inf)
    nit = np.zeros(len(starts), dtype=int)
    success = np.zeros(len(starts), dtype=bool)
    if live.any():
        x[live], fun[live], nit[live], success[live] = _nelder_mead(
            objective, starts[live], fits[live], config.max_iterations,
            config.step_tolerance, config.tolerance)
    # each fit keeps the first of its best finite optima
    fun[~np.isfinite(fun)] = np.inf
    best = np.argmin(fun.reshape(n_fits, n), axis=1) + np.arange(n_fits) * n
    return [_Optimum(x=x[r], fun=fun[r], nit=int(nit[r]),
                     success=bool(success[r]))
            if np.isfinite(fun[r]) else None for r in best.tolist()]


def minimize(*args, **kwargs):
    """scipy's minimize: unused here, kept for bench/tracing.py (ROADMAP 1)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class HessianNotPD(ArithmeticError):
    """Observed information matrix is not positive definite at the optimum."""


@np.errstate(**_IGNORE)
def _delta_method_se(objective, theta: np.ndarray, values,
                     kinds) -> tuple[float, ...]:
    """standard_errors for the negative log-likelihood of a one-fit
    objective of the free coordinates (see _free_objective), at free point
    theta = natural-scale values; its 2k^2 + 1 points in one call."""
    k = len(theta)
    h = 1e-4 * (1.0 + np.abs(theta))
    e = np.diag(h)
    points = [theta]
    for i in range(k):
        up, down = theta + e[i], theta - e[i]
        points += [up, down] + [p for j in range(i + 1, k)
                                for p in (up + e[j], up - e[j],
                                          down + e[j], down - e[j])]
    values_at = iter(objective(np.array(points),
                               np.zeros(len(points), dtype=int)).tolist())
    f0 = next(values_at)
    hess = np.empty((k, k))
    for i in range(k):
        hess[i, i] = (next(values_at) - 2.0 * f0
                      + next(values_at)) / h[i] ** 2
        for j in range(i + 1, k):
            hess[i, j] = hess[j, i] = (
                next(values_at) - next(values_at) - next(values_at)
                + next(values_at)) / (4.0 * h[i] * h[j])
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


# --- models -----------------------------------------------------------------

@dataclass(frozen=True)
class _Model:
    """A model the engine fits: RTGLE, or a competitor in ``compare``."""
    name: str
    param_names: tuple[str, ...]
    kinds: tuple[str, ...]       # per coordinate: "pos", "unit" or "sym"
    log_pdf: Callable            # (x, x2, *params) -> log f
    log_sf: Callable             # (x, x2, *params) -> log S
    image: Callable | None       # params -> RTGLE params, if it has them
    start: Callable              # checked data -> natural-scale start
    spread: float | tuple[float, ...] = 1.0   # of the starts, free scale


def _moment_start(x: np.ndarray) -> tuple[float, float, float, float]:
    """A moment-flavored RTGLE start: an exponential-rate alpha, beta sized
    so the quadratic term matters at the sample scale, gamma from the
    coefficient-of-variation direction, and p = 1/2."""
    mean = float(np.mean(x))
    var = float(np.var(x))
    cv2 = var / (mean * mean)
    g0 = min(max(1.0 / math.sqrt(cv2), 0.3), 3.0) if cv2 > 0 else 1.0
    return (1.0 / mean, max(1.0 / (mean * mean + var), 1e-3) * 0.5, g0, 0.5)


_RTGLE = _Model("RTGLE", ("alpha", "beta", "gamma", "p"),
                ("pos", "pos", "pos", "unit"), _log_pdf_kernel,
                _log_sf_kernel, lambda *v: v, _moment_start,
                (1.0, 1.5, 0.5, 1.5))


def _model_objective(model: _Model, methods, data: np.ndarray):
    """_row_objective of model on the free coordinates, +inf where they map
    to no valid RTGLE image."""
    image = model.image
    return _free_objective(
        _row_objective(methods, data, model.log_pdf, model.log_sf),
        model.kinds, image and (lambda v: _valid_rows(*image(*v.T))))


def _lockstep_fits(samples, methods, config: OptimizerConfig,
                   model: _Model = _RTGLE):
    """The one fit routine: its objective and, for sample s and method j,
    the best optimum (an _Optimum in free coordinates) of model or the
    typed error of that fit.

    A fit starts at model.start(x), or for RTGLE at config.start, whose
    edge coordinates (a rate at 0, p at 0 or 1) take model.start(x)'s."""
    n_methods = len(methods)
    found: list = [None] * len(samples)
    fitted, data, centers = [], [], []
    for s, sample in enumerate(samples):
        try:
            x = _check_fit_data(sample, len(model.kinds))
            center = model.start(x)
            if model is _RTGLE and config.start is not None:
                center = [v if _interior(v, k) else c for v, c, k in zip(
                    validate(*config.start).as_tuple(), center, model.kinds)]
            centers.append(_to_free(center, model.kinds))
        except (NonPositiveData, DegenerateData, InvalidParams) as exc:
            found[s] = [exc] * n_methods
            continue
        fitted.append(s)
        data.append(x)
    if len({len(x) for x in data}) > 1:
        raise ValueError("fit_many: the samples must all have one size")
    objective = None
    if fitted:
        objective = _model_objective(model, methods, np.array(data))
        opts = _search(objective,
                       np.repeat(np.array(centers), n_methods, axis=0),
                       model.spread, config)
        for i, s in enumerate(fitted):
            found[s] = [AllStartsFailed(f"no start produced a finite "
                                        f"{m.value} objective for "
                                        f"{model.name}")
                        if opt is None else opt
                        for m, opt in zip(methods, opts[i * n_methods:])]
    return objective, found


def _fit_result(opt: _Optimum, method: EstimationMethod,
                config: OptimizerConfig) -> FitResult:
    return FitResult(params=untransform(opt.x), objective=float(opt.fun),
                     converged=bool(opt.success), iterations=int(opt.nit),
                     n_starts_used=config.n_starts, method=method)


def fit(data, method: EstimationMethod,
        config: OptimizerConfig | None = None) -> FitResult:
    """Minimize the chosen objective by multi-start Nelder-Mead.

    Deterministic given (data, method, config.seed).  This is
    fit_many([data], (method,), config)[0][0], raised if an error, plus for
    MLE the standard errors.
    """
    result = fit_many([data], (method,), config)[0][0]
    if isinstance(result, Exception):
        raise result
    if method is EstimationMethod.MLE:
        try:
            result.standard_errors = standard_errors(result.params, data)
        except HessianNotPD as exc:
            result.diagnostics = str(exc)
    return result


def fit_many(samples, methods, config: OptimizerConfig | None = None
             ) -> list[list[FitResult | ValueError | AllStartsFailed]]:
    """Every method fitted to every sample of one size in one lockstep
    search: results[s][j] is the fit of methods[j] on samples[s], or its
    typed error (NonPositiveData, DegenerateData, InvalidParams or
    AllStartsFailed).  Any other error propagates."""
    config = config or OptimizerConfig()
    _, found = _lockstep_fits(samples, methods, config)
    return [[opt if isinstance(opt, Exception)
             else _fit_result(opt, m, config) for m, opt in zip(methods, row)]
            for row in found]


def standard_errors(params_at_mle: RtgleParams, data
                    ) -> tuple[float, float, float, float]:
    """Delta-method standard errors from the inverse observed information.

    The Hessian of the negative log-likelihood is taken by central
    differences in transformed coordinates (step 1e-4 * (1 + |theta|)),
    inverted, and mapped to the natural scale.  An estimate on the edge of
    the parameter space (a rate at 0, p at 0 or 1) has no transformed
    coordinates and raises HessianNotPD naming that coordinate.
    """
    for name, v, kind in zip(_RTGLE.param_names, params_at_mle.as_tuple(),
                             _RTGLE.kinds):
        if not _interior(v, kind):
            raise HessianNotPD(f"{name}={v!r} is on the boundary of the "
                               "parameter space; no information matrix there")
    objective = _model_objective(_RTGLE, (EstimationMethod.MLE,),
                                 _check_data(data)[None])
    return _delta_method_se(objective, transform(params_at_mle),
                            params_at_mle.as_tuple(), _RTGLE.kinds)
