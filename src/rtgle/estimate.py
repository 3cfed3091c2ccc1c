"""Parameter estimation for RTGLE: maximum likelihood plus four
minimum-distance methods (least squares, weighted least squares,
Anderson-Darling, Cramer-von Mises).

One private engine fits every model: RTGLE and the competitors in
``compare`` are model records (``_Model``) of one fit routine,
``_lockstep_fits``.  A record carries its log density and log survival
and their analytic first and second derivatives by the natural
parameters, or names another record searched in its place
(``_Model.search``).  The engine searches the natural parameters inside
their box (rates >= 0, p in [0, 1], lambda in [-1, 1], shapes and scales
> 0) by a multi-start projected Levenberg-Marquardt search (``_search``),
the one optimizer: every start of a fit, or of many fits (``fit_many``),
advances in lockstep, one row per live search in each step's call of the
row objective (``_row_objective``), every row's value, gradient and
analytic Hessian, which the standard errors and the public objectives
call too.  Starts are placed in
unconstrained coordinates (log for positive values, logit for
probabilities, atanh for values in [-1, 1]) and mapped to the natural
scale.

Every search stops by one policy of module constants: ``_TOLERANCE`` is
the relative decrease of the objective the search's model may still predict
at a converged fit, its first-order certificate: ``converged`` is true only
with it.  ``_STEP_TOLERANCE`` is the relative step below which a search
that cannot lower its objective stops, and ``_MAX_ITERATIONS`` caps the
steps.  A fit reports the coordinates that end on a closed edge
(``at_boundary``).  ``fit`` is ``fit_many`` on one sample, plus for an MLE
the standard errors from the inverse observed information, the same
analytic Hessian on the natural scale, by the one rule every model's MLE
takes (``_standard_errors``).
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
                           _columns, _d_log_pdf_kernel, _d_log_sf_kernel,
                           _index, _libm, _log_pdf_kernel, _log_sf_kernel,
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


# the stopping policy of every search (_search)
_MAX_ITERATIONS = 2000
_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-8


@dataclass
class OptimizerConfig:
    """The starts of a fit (_lockstep_fits); the stopping policy is fixed."""
    n_starts: int = 100
    seed: int = 0
    start: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        self.n_starts = _index(self.n_starts, "n_starts")
        self.seed = _index(self.seed, "seed")
        if self.n_starts <= 0:
            raise ValueError("n_starts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    # per coordinate: on a closed edge of the parameter space (a rate at 0,
    # p at 0 or 1) at the optimum
    at_boundary: tuple[bool, bool, bool, bool] = (False,) * 4


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
# _row_objective takes a model record and checked samples, sorts them and
# tabulates every data-only array once, and returns the objectives of many
# fits as one function of natural values, one row per evaluation, from the
# record's derivative kernels.  A call makes one d_log_pdf call for its MLE
# rows, on the samples in input order, and one d_log_sf call for all its
# distance rows (LSE, WLSE, ADE, CME), on the sorted samples, each on one
# gather of its paired tables.  Rows of several formulas are taken grouped
# by formula (one stable sort), so each formula runs on a contiguous block.
# On the small calls of a lockstep search, a few rows of tens of points,
# the number of numpy calls sets the cost, not the rows.  The public
# objectives are RTGLE's value on one row, and nll_gradient its MLE
# gradient.  Callers evaluate it under _IGNORE: far from the optimum the
# kernels overflow.

_IGNORE = dict(divide="ignore", invalid="ignore", over="ignore")


def _row_objective(model: _Model, methods, data: np.ndarray):
    """objective(v, fits) -> (value (R,), gradient (R, k), Hessian (R, k,
    k)) for natural values v (R, k) of model and fit numbers fits (R,): fit
    f is method methods[f % M] on sample data[f // M] of the checked
    samples data (S, n).

    The model's derivative kernels d_log_pdf(x, x2, *v) and d_log_sf(x, x2,
    *v) return (the value of log_pdf or log_sf to the bit, its k
    derivatives, second), second(weights) the sum over the points of
    weights times the second derivatives, (R, k, k), with weights (n,) or
    (R, n).  An MLE row's Hessian is -sum d2 log f; an ADE row's takes d2
    log F = -(S/F) (d2 log S + d log S d log S^T / F); a squares row's (LSE,
    WLSE, CME) is 2 J^T W J + 2 sum w (F - position) d2 F, with J = dF = -S
    d log S and d2 F = -S (d2 log S + d log S d log S^T).

    A row whose natural values are not finite or have no valid RTGLE image
    (model.image) is +inf with zero derivatives.  The rows are checked only
    on calls with a value at or below 0, or not finite: while every value
    is positive and finite, RTGLE and the competitors' RTGLE images pass
    their checks, or give a non-finite log-likelihood, +inf all the same.
    A call of one row takes numpy's arithmetic like a call of many
    (_columns): a kernel that overflows or divides by zero gives inf or
    NaN, never an exception, and a row has the same value, gradient and
    Hessian alone as inside a larger call.  A call evaluates its rows and
    no others."""
    n_methods, n = len(methods), data.shape[1]
    x2 = np.square(data)
    xs = np.sort(data, axis=1)
    xs2 = np.square(xs)
    i = np.arange(1, n + 1)
    coef = 2 * i - 1
    coef_n = coef / n
    pos = i / (n + 1.0)
    # LSE, WLSE and CME are c0 + sum w (F(x_(i)) - position)^2; w = 1 and
    # c0 = 0 change no bit of the unweighted and unshifted sums
    ones = np.ones(n)
    minus_ones = -ones      # MLE: minus the summed d2 log f
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
    # the pairs a row takes together, one gather for both
    by_sample, by_sample_sorted = np.stack((data, x2)), np.stack((xs, xs2))
    by_method = np.stack((w, target))

    def rows(pair, index):
        """The two (R, n) tables of a per-sample or per-method pair (2, S,
        n); one row is broadcast instead of copied."""
        return pair[:, 0] if pair.shape[1] == 1 else pair[:, index]

    def kernel(derivative, tables, v):
        """(values (R, n), derivatives (R, k, n) and the kernel's
        second(weights))."""
        r = len(v)
        value, grad, second = derivative(*tables, *_columns(v))
        return (value.reshape(r, -1), np.concatenate(grad).reshape(
            len(grad), r, -1).swapaxes(0, 1), second)

    def mle(v, s):
        terms, score, second = kernel(model.d_log_pdf, rows(by_sample, s), v)
        total = np.add.reduce(terms, axis=1)
        # a non-finite total is a zero, infinite or undefined likelihood
        value = np.where(np.isfinite(total), -total, np.inf)
        return value, -np.add.reduce(score, axis=2), second(minus_ones)

    def ade(f, log_s, d_log_s):
        """(value, gradient, the Hessian but for its d2 log S part, the
        weights of d2 log S, no row flat)."""
        # a fit on its own takes np.log(s[::-1]) of a 1-d s: a
        # negative-stride view, so the C library's log
        s = np.exp(log_s)
        terms = np.log(f) + _libm(np.log, s)[:, ::-1]
        # every term is <= 0, so F = 0 or S = 0 makes the value +inf; it is
        # NaN where z overflowed, where S = 0
        out = -n - np.add.reduce(coef * terms, axis=1) / n
        out[np.isnan(out)] = np.inf
        # d log F = -(S/F) d log S; log S enters at position n+1-i
        ratio = s / f
        d_log_f = -ratio[:, None] * d_log_s
        grad = -(np.matmul(d_log_f, coef) + np.matmul(d_log_s, coef[::-1])
                 ) / n
        # d2 log F = -(S/F)(d2 log S + d log S d log S^T / F)
        ratio *= coef_n
        outer = np.matmul(d_log_s * (ratio / f)[:, None],
                          d_log_s.transpose(0, 2, 1))
        return (out, grad, outer, ratio - coef_n[::-1],
                np.zeros(len(f), dtype=bool))

    def distance(f, j, weight, position):
        return (c0[0] if len(c0) == 1 else c0[j]) + np.add.reduce(
            weight * (f - position) ** 2, axis=1)

    def squares(f, j, log_s, d_log_s):
        """As ade.  The Hessian of sum w (F - position)^2 is 2 J^T W J + 2
        sum w (F - position) d2 F, with J = dF = -S d log S and d2 F = -S
        (d2 log S + d log S d log S^T).  A row where z overflowed, where F
        is flat at S = 0 and d2 log S undefined, keeps 2 J^T W J."""
        weight, position = rows(by_method, j)
        out = distance(f, j, weight, position)
        bad = np.isnan(out).nonzero()[0]
        if bad.size:  # F is NaN where z overflowed; cdf's limit there is 1
            f[bad] = np.fmin(f[bad], 1.0)
            out[bad] = distance(f[bad], j[bad], *rows(by_method, j[bad]))
        s = np.exp(log_s)
        residual = f - position
        # -2 w S, and the weights of d2 log S, -2 w (F - position) S
        scale = -2.0 * weight * s
        weights = scale * residual
        grad = np.matmul(d_log_s, weights[..., None])[..., 0]
        # the weights of d log S d log S^T: 2 w S^2 from J^T W J, less
        # 2 w (F - position) S from d2 F
        outer = np.matmul(d_log_s * (scale * (residual - s))[:, None],
                          d_log_s.transpose(0, 2, 1))
        flat = np.zeros(len(f), dtype=bool)
        if bad.size:  # where S = 0, F is flat
            flat[bad] = True
            weights[bad] = 0.0
            jac = np.nan_to_num(-s[bad, None] * d_log_s[bad], nan=0.0,
                                posinf=0.0, neginf=0.0)    # dF = -S d log S
            jac_w = 2.0 * jac * (weight[bad, None] if weight.ndim > 1
                                 else weight)
            grad[bad] = np.matmul(jac_w, residual[bad, :, None])[..., 0]
            outer[bad] = np.matmul(jac_w, jac.transpose(0, 2, 1))
        return out, grad, outer, weights, flat

    def distances(v, s, j, n_ade):
        """Every distance row from one survival-kernel call on the sorted
        samples: ADE on the first n_ade rows, a squares formula on the
        rest."""
        log_s, d_log_s, second = kernel(model.d_log_sf,
                                        rows(by_sample_sorted, s), v)
        f = -np.expm1(log_s)
        if n_ade == len(v):
            out = ade(f, log_s, d_log_s)
        elif not n_ade:
            out = squares(f, j, log_s, d_log_s)
        else:
            out = tuple(map(np.concatenate, zip(
                ade(f[:n_ade], log_s[:n_ade], d_log_s[:n_ade]),
                squares(f[n_ade:], j[n_ade:], log_s[n_ade:],
                        d_log_s[n_ade:]))))
        value, grad, outer, weights, flat = out
        matrix = outer + second(weights)
        if flat.any():
            matrix[flat] = outer[flat]
        return value, grad, matrix

    def grouped(v, fits):
        if n_methods == 1:  # s = fits, and every per-method table has one row
            return (mle(v, fits) if formula[0] == 0 else distances(
                v, fits, fits, len(v) if formula[0] == 1 else 0))
        s, j = np.divmod(fits, n_methods)
        kind = formula[j]
        counts = np.bincount(kind, minlength=3).tolist()
        n_mle, n_ade = counts[:2]
        if n_mle == len(v):
            return mle(v, s)
        order = None
        if len(v) not in counts:  # take the rows grouped by formula
            order = kind.argsort(kind="stable")
            v, s, j = v[order], s[order], j[order]
        out = distances(v[n_mle:], s[n_mle:], j[n_mle:], n_ade)
        if n_mle:
            out = tuple(map(np.concatenate, zip(mle(v[:n_mle], s[:n_mle]),
                                                out)))
        if order is None:
            return out
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        return tuple(a[back] for a in out)

    def objective(v, fits):
        if 0.0 < np.minimum.reduce(v, axis=None) \
                <= np.maximum.reduce(v, axis=None) < np.inf:
            return grouped(v, fits)
        ok = _finite_rows(v)
        if model.image is not None:
            ok &= _valid_rows(*model.image(*v.T))
        r, k = v.shape
        out = (np.full(r, np.inf), np.zeros((r, k)), np.zeros((r, k, k)))
        if ok.any():
            for a, b in zip(out, grouped(v[ok], fits[ok])):
                a[ok] = b
        return out
    return objective


@np.errstate(**_IGNORE)
def _evaluate(method: EstimationMethod, params: RtgleParams, data) -> list:
    """[value, gradient (k,), Hessian (k, k)] of method's objective at
    params on data: its one row of RTGLE's _row_objective."""
    objective = _row_objective(_RTGLE, (method,), _check_data(data)[None])
    return [a[0] for a in objective(np.array([params.as_tuple()], dtype=float),
                                    np.zeros(1, dtype=int))]


def neg_log_likelihood(params: RtgleParams, data) -> float:
    """Negative log-likelihood; +inf where the log-likelihood is not
    finite."""
    return float(_evaluate(EstimationMethod.MLE, params, data)[0])


def nll_gradient(params: RtgleParams, data) -> np.ndarray:
    """Analytic gradient of the negative log-likelihood w.r.t.
    (alpha, beta, gamma, p), the gradient of the MLE row; requires
    interior parameters."""
    a, b, _, p = params.as_tuple()
    if a <= 0.0 or b <= 0.0 or not (0.0 < p < 1.0):
        raise ValueError("gradient requires interior parameters "
                         "(alpha>0, beta>0, 0<p<1)")
    return _evaluate(EstimationMethod.MLE, params, data)[1]


def ls_objective(params: RtgleParams, data) -> float:
    """Sum of squared deviations of F(x_(i)) from i/(n+1)."""
    return float(_evaluate(EstimationMethod.LSE, params, data)[0])


def wls_objective(params: RtgleParams, data) -> float:
    """ls_objective with inverse-variance weights
    (n+1)^2 (n+2) / (i (n-i+1))."""
    return float(_evaluate(EstimationMethod.WLSE, params, data)[0])


def ad_objective(params: RtgleParams, data) -> float:
    """Anderson-Darling distance; +inf when any F(x_(i)) hits 0 or 1."""
    return float(_evaluate(EstimationMethod.ADE, params, data)[0])


def cvm_objective(params: RtgleParams, data) -> float:
    """Cramer-von Mises distance 1/(12n) + sum (F(x_(i)) - (2i-1)/(2n))^2."""
    return float(_evaluate(EstimationMethod.CME, params, data)[0])


_OBJECTIVES = {
    EstimationMethod.MLE: neg_log_likelihood,
    EstimationMethod.LSE: ls_objective,
    EstimationMethod.WLSE: wls_objective,
    EstimationMethod.ADE: ad_objective,
    EstimationMethod.CME: cvm_objective,
}


# --- estimation engine ---------------------------------------------------------
# A parameter vector is described by the kind of each coordinate: "rate"
# (>= 0, a closed edge at 0), "pos" (> 0, a shape or scale), "unit" (a
# probability, in [0, 1]) or "sym" (in [-1, 1]).  The search runs on the
# natural scale inside that box, and standard errors are taken there;
# starts are placed in the unconstrained coordinates of _to_free.

_LOGIT_CLAMP = 40.0


def _interior(v: float, kind: str) -> bool:
    return (0.0 < v < 1.0 if kind == "unit" else -1.0 < v < 1.0
            if kind == "sym" else v > 0.0)


def _to_free(values, kinds) -> np.ndarray:
    """Map interior natural-scale values to unconstrained coordinates: log
    for "rate" and "pos", logit for "unit" and atanh for "sym"."""
    if not all(map(_interior, values, kinds)):
        raise ValueError("transform requires interior parameters")
    return np.array([math.log(v / (1.0 - v)) if k == "unit"
                     else math.atanh(v) if k == "sym" else math.log(v)
                     for v, k in zip(values, kinds)])


def _inverse(kinds):
    """The inverse of _to_free on rows, logit coordinates clamped to |t| <=
    40: natural(theta (R, k)) -> values (R, k); a log coordinate whose exp
    overflows is inf."""
    kinds = np.array(kinds)
    unit = np.flatnonzero(kinds == "unit")
    sym = np.flatnonzero(kinds == "sym")
    # exp(theta) for log coordinates, exp(-theta) for "unit" and exp(0) for
    # "sym"; above t = 40, 1 + exp(-t) rounds to 1, so only -t <= 40 needs
    # the clamp
    sign = np.where(kinds == "unit", -1.0,
                    np.where(kinds == "sym", 0.0, 1.0))
    bound = np.where(kinds == "unit", _LOGIT_CLAMP, np.inf)

    def natural(theta):
        values = _libm(np.exp, np.minimum(theta * sign, bound))
        for c in unit:
            values[:, c] = 1.0 / (1.0 + values[:, c])
        for c in sym:  # numpy's tanh rounds differently on every path
            values[:, c] = [math.tanh(t) for t in theta[:, c].tolist()]
        return values
    return natural


def _box(kinds):
    """(lower, upper, closed) per coordinate: the search's box; an open
    lower edge (a shape or scale) is never reached."""
    kinds = np.array(kinds)
    return (np.where(kinds == "sym", -1.0, 0.0),
            np.where((kinds == "unit") | (kinds == "sym"), 1.0, np.inf),
            kinds != "pos")


def _finite_rows(*arrays):
    """True on the rows where every entry of every (R, ...) array is
    finite."""
    ok = np.ones(len(arrays[0]), dtype=bool)
    for a in arrays:
        ok &= np.isfinite(a.reshape(len(a), -1)).all(axis=1)
    return ok


def _leave_edge(h, g, edge, at_lower, fixed, unit, length, d):
    """The second-order test of the closed edges of the box, in the scaled
    coordinates of _search (unit = 1/sqrt|diag h|): a coordinate i on an
    edge (edge[:, i]) whose Schur complement c = h_ii - h_iF h_FF^-1 h_Fi
    on the other free coordinates F is negative, with a gradient g_i too
    small to matter within one scaled unit (2|g_i| < -c), is a degenerate
    edge: moving into the box along u = e_i - h_FF^-1 h_Fi lowers the
    objective, as at the p = 0 edge of a nested model, where the gradient
    by p vanishes at the sub-model's optimum whichever way it rounds.
    There the step is length * u into the box, for the first such
    coordinate.  Returns the steps d and the mask of the searches that
    leave an edge."""
    eye = np.eye(h.shape[1])
    leaving = np.zeros(len(d), dtype=bool)
    for i in range(h.shape[1]):
        rows = np.flatnonzero(edge[:, i] & ~leaving)
        if not rows.size:
            continue
        others = fixed[rows].copy()
        others[:, i] = True
        scale = np.where(others, 0.0, unit[rows])
        b = h[rows, :, i] * scale * unit[rows, i, None]
        try:
            y = np.linalg.solve(h[rows] * scale[:, :, None] * scale[:, None, :]
                                + others[:, None] * eye, b[..., None])[..., 0]
        except np.linalg.LinAlgError:  # h_FF singular: no test this step
            continue
        schur = np.sign(h[rows, i, i]) - np.add.reduce(b * y, axis=1)
        leave = (schur < 0.0) & (2.0 * np.abs(g[rows, i] * unit[rows, i])
                                 < -schur)
        rows, y = rows[leave], y[leave]
        if not rows.size:
            continue
        inward = np.where(at_lower[rows, i], 1.0, -1.0)
        u = -y * inward[:, None]
        u[:, i] = inward
        d[rows] = length[rows, None] * u * unit[rows]
        leaving[rows] = True
    return d, leaving


def _search(objective, x, fits, f, g, h, box):
    """Projected Levenberg-Marquardt from every row of x (S, k) at once, on
    the natural scale inside box = (lower, upper, closed); row s minimizes
    objective(., fits[s]) -> (value, gradient, Hessian) of the rows (R, k)
    (_row_objective), whose values at x are (f, g, h).  Returns the
    optimum x (S, k), its value, the steps taken, the certificate and the
    coordinates (S, k) on a closed edge at the optimum.  After the starts,
    every objective call holds one row per live search, its trial point.

    A step first fixes the active set: the coordinates at a closed edge of
    the box whose gradient points out of it.  On the other, free,
    coordinates it scales the matrix to a unit diagonal (Marquardt's
    scaling) and takes its eigendecomposition V diag(l) V^T, in one batched
    np.linalg.eigh; with c = V^T g, the step is d = -V c / (|l| + mu),
    and the decrement sum c^2 / |l| (|l| floored at 1e-12) measures the
    decrease the model still predicts.  A search whose decrement is <=
    _TOLERANCE * |value| holds the certificate and stops: no relative
    decrease beyond _TOLERANCE / 2 is left on the free coordinates, and
    every active edge has the gradient pointing out of the box.  A search
    that holds it on an edge failing _leave_edge's second-order test first
    steps off that edge, with lengths 1, 1/2, ..., 1/32 while each is
    refused, and stops only when it is back on a certified point or has
    tried them all.  So does a search whose step, refused, has shrunk
    below _STEP_TOLERANCE * (|x| + _STEP_TOLERANCE) in every coordinate,
    and one that has taken _MAX_ITERATIONS steps, but only a certified
    search is converged.

    The trial point clips the step to the closed edges and takes it on a
    log scale for the open coordinates (x exp(d/x), shapes and scales,
    which stay positive).  One objective call evaluates the trials of every
    live search; a trial is taken only if its value is lower and its
    derivatives are finite.  mu starts at 1e-3 and follows Nielsen's rule
    (Nielsen, IMM-REP-1999-05): on a taken step it is scaled by max(1/3, 1
    - (2 rho - 1)^3), rho being the actual over the predicted decrease,
    down to 1e-10, and on a refused one by nu, which doubles on every
    refusal in a row.  A row's steps do not depend on the others.
    """
    lower, upper, closed = box
    n_rows, k = x.shape
    eye = np.eye(k)
    diagonal = np.arange(k)
    mu, nu = np.full(n_rows, 1e-3), np.full(n_rows, 2.0)
    found = (x.copy(), f.copy(), np.zeros(n_rows, dtype=int),
             np.zeros(n_rows, dtype=bool), np.zeros((n_rows, k), dtype=bool))
    ids = np.arange(n_rows)  # the rows of x still searching
    for step in range(_MAX_ITERATIONS + 1):
        edge = closed & ((x <= lower) | (x >= upper))
        active = edge & (((x <= lower) & (g >= 0.0))
                         | ((x >= upper) & (g <= 0.0)))
        diag = np.abs(h[:, diagonal, diagonal])
        unit = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        fixed = active | ~(diag > 0.0)
        scale = np.where(fixed, 0.0, unit)
        gs = g * scale
        level, vectors = np.linalg.eigh(
            h * scale[:, :, None] * scale[:, None, :] + fixed[:, None] * eye)
        c = np.matmul(gs[:, None, :], vectors)[:, 0]
        d = -np.matmul(vectors, (c / (np.abs(level) + mu[:, None]))[
            ..., None])[..., 0] * scale
        certified = (np.add.reduce(c * c / np.maximum(np.abs(level), 1e-12),
                                   axis=1) <= _TOLERANCE * np.abs(f))
        leaving = np.zeros(len(x), dtype=bool)
        probe = certified & edge.any(axis=1) & (nu < 128.0)
        if probe.any():
            d, leaving = _leave_edge(h, g, edge & probe[:, None], x <= lower,
                                     fixed, unit, 2.0 / nu, d)
        trial = np.where(closed, np.clip(x + d, lower, upper),
                         x * np.exp(d / np.where(closed, 1.0, x)))
        d = trial - x
        # a step refused and shrunk below _STEP_TOLERANCE: the search is
        # stuck
        stuck = (nu > 2.0) & ~(np.abs(d) > _STEP_TOLERANCE
                               * (np.abs(x) + _STEP_TOLERANCE)).any(axis=1)
        done = (certified & ~leaving) | stuck
        if step == _MAX_ITERATIONS:
            done[:] = True
        if done.any():
            for out, value in zip(found, (x, f, step, certified, edge)):
                out[ids[done]] = value if np.ndim(value) == 0 else value[done]
            keep = ~done
            if not keep.any():
                break
            ids, x, f, g, h, mu, nu, fits, trial, d, leaving = (
                a[keep] for a in (ids, x, f, g, h, mu, nu, fits, trial, d,
                                  leaving))
        predicted = -np.add.reduce(
            g * d + 0.5 * d * np.matmul(h, d[..., None])[..., 0], axis=1)
        f_trial, g_trial, h_trial = objective(trial, fits)
        take = (f_trial < f) & _finite_rows(g_trial, h_trial)
        rho = np.where(predicted > 0.0, (f - f_trial) / predicted, 1.0)
        mu = np.where(leaving, mu, np.where(take, np.maximum(mu * np.maximum(
            1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-10), mu * nu))
        nu = np.where(take, 2.0, 2.0 * nu)
        x = np.where(take[:, None], trial, x)
        f = np.where(take, f_trial, f)
        g = np.where(take[:, None], g_trial, g)
        h = np.where(take[:, None, None], h_trial, h)
    return found


def minimize(*args, **kwargs):
    """scipy's minimize: unused here, kept for bench/tracing.py (ROADMAP 1)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class HessianNotPD(ArithmeticError):
    """Observed information matrix is not positive definite at the optimum."""


# --- models -----------------------------------------------------------------

@dataclass(frozen=True)
class _Model:
    """A model the engine fits: RTGLE, or a competitor in ``compare``."""
    name: str
    param_names: tuple[str, ...]
    kinds: tuple[str, ...]       # per coordinate: "rate", "pos", "unit", "sym"
    log_pdf: Callable            # (x, x2, *params) -> log f
    log_sf: Callable             # (x, x2, *params) -> log S
    # (x, x2, *params) -> (log f, d log f, second), second(weights) the
    # sum over the points of weights * d2 log f
    d_log_pdf: Callable
    d_log_sf: Callable           # the same for log S
    image: Callable | None       # params -> RTGLE params, if it has them
    start: Callable              # checked data -> natural-scale start
    spread: float | tuple[float, ...] = 1.0   # of the starts, free scale
    # (record searched in this one's place, map of its values to these,
    # the inverse map, the Jacobian of the first: rows by these values)
    search: tuple[_Model, Callable, Callable, Callable] | None = None


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
                ("rate", "rate", "pos", "unit"), _log_pdf_kernel,
                _log_sf_kernel, _d_log_pdf_kernel, _d_log_sf_kernel,
                lambda *v: v, _moment_start, (1.0, 1.5, 0.5, 1.5))


@np.errstate(**_IGNORE)
def _lockstep_fits(samples, methods, config: OptimizerConfig,
                   model: _Model = _RTGLE):
    """The one fit routine: a multi-start bounded Levenberg-Marquardt
    search for every method on every sample, all in one lockstep search
    (_search).  For sample s and method j it returns the optimum of the
    best start, (values, objective, iterations, converged, at_boundary)
    with values on the natural scale and at_boundary the coordinates on a
    closed edge there, or the typed error of that fit.

    A model with a search record (model.search) is searched as that
    record, and each optimum is mapped to model's values and scored by the
    searched record's objective at the image of those values, model's
    objective there to the bit.  A fit starts at the searched record's
    start(x), or for RTGLE at config.start, whose edge coordinates (a rate
    at 0, p at 0 or 1) take model.start(x)'s.  Its starts are that center
    and config.n_starts - 1 normal perturbations of it in free coordinates
    (_to_free) with standard deviation spread (Philox keyed by
    config.seed, the same for every fit), mapped to the natural scale; a
    start with a non-finite objective or derivative is dropped.  Runs with
    floating-point warnings off (_IGNORE).
    """
    searched, to_values, from_values, _ = model.search or (model, None,
                                                           None, None)
    n_methods, k, n = len(methods), len(model.kinds), config.n_starts
    found: list = [None] * len(samples)
    fitted, data, centers = [], [], []
    for s, sample in enumerate(samples):
        try:
            x = _check_fit_data(sample, k)
            center = searched.start(x)
            if model is _RTGLE and config.start is not None:
                center = [v if _interior(v, kind) else c for v, c, kind in zip(
                    validate(*config.start).as_tuple(), center, model.kinds)]
            centers.append(_to_free(center, searched.kinds))
        except (NonPositiveData, DegenerateData, InvalidParams) as exc:
            found[s] = [exc] * n_methods
            continue
        fitted.append(s)
        data.append(x)
    if len({len(x) for x in data}) > 1:
        raise ValueError("fit_many: the samples must all have one size")
    if not fitted:
        return found
    data = np.array(data)
    objective = _row_objective(searched, methods, data)
    n_fits = len(fitted) * n_methods
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    centers = np.repeat(np.array(centers), n_methods, axis=0)
    starts = np.repeat(centers[:, None, :], n, axis=1)
    starts[:, 1:] += rng.normal(scale=searched.spread, size=(n - 1, k))
    x = _inverse(searched.kinds)(starts.reshape(-1, k))
    fits = np.repeat(np.arange(n_fits), n)
    f, g, h = objective(x, fits)
    live = np.isfinite(f) & _finite_rows(g, h)
    fun = np.full(len(x), np.inf)
    nit = np.zeros(len(x), dtype=int)
    success = np.zeros(len(x), dtype=bool)
    edge = np.zeros(x.shape, dtype=bool)
    if live.any():
        x[live], fun[live], nit[live], success[live], edge[live] = _search(
            objective, x[live], fits[live], f[live], g[live], h[live],
            _box(searched.kinds))
        if to_values:
            # each optimum is reported in model's values and scored at their
            # image, the searched values it maps back to
            x[live] = np.column_stack(to_values(*x[live].T))
            fun[live] = objective(np.column_stack(from_values(*x[live].T)),
                                  fits[live])[0]
    # each fit keeps the first of its best optima
    best = np.argmin(fun.reshape(n_fits, n), axis=1) + np.arange(n_fits) * n
    optima = [(tuple(x[r].tolist()), float(fun[r]), int(nit[r]),
               bool(success[r]), tuple(edge[r].tolist()))
              if np.isfinite(fun[r]) else None for r in best.tolist()]
    for i, s in enumerate(fitted):
        found[s] = [AllStartsFailed(f"no start produced a finite {m.value} "
                                    f"objective for {model.name}")
                    if opt is None else opt
                    for m, opt in zip(methods, optima[i * n_methods:])]
    return found


def fit(data, method: EstimationMethod,
        config: OptimizerConfig | None = None) -> FitResult:
    """Minimize the chosen objective by the multi-start bounded search.

    Deterministic given (data, method, config.seed).  This is
    fit_many([data], (method,), config)[0][0], raised if an error, plus for
    MLE the standard errors.
    """
    result = fit_many([data], (method,), config)[0][0]
    if isinstance(result, Exception):
        raise result
    if method is EstimationMethod.MLE:
        try:
            result.standard_errors = _standard_errors(
                _RTGLE, result.params.as_tuple(), data)
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
    return [[opt if isinstance(opt, Exception) else FitResult(
        params=validate(*opt[0]), objective=opt[1], converged=opt[3],
        iterations=opt[2], n_starts_used=config.n_starts, method=m,
        at_boundary=opt[4])
        for m, opt in zip(methods, row)]
        for row in _lockstep_fits(samples, methods, config)]


@np.errstate(**_IGNORE)
def _standard_errors(model: _Model, values, data) -> tuple[float, ...]:
    """Standard errors of model's maximum likelihood estimate values
    (natural scale) on data: the square roots of the diagonal of the
    inverse observed information, the analytic Hessian of the negative
    log-likelihood at values (_row_objective's MLE matrix).  A model with
    a search record (model.search) takes the Hessian of that record at the
    values it maps to, and maps the inverse through the Jacobian J of the
    record's map back to these values, J H^-1 J^T.  An estimate on the edge
    of the parameter space (a rate at 0, a probability at 0 or 1, lambda at
    -1 or 1) has no information matrix and raises HessianNotPD naming every
    such coordinate.
    """
    edges = [f"{name}={v!r}" for name, v, kind
             in zip(model.param_names, values, model.kinds)
             if not _interior(v, kind)]
    if edges:
        raise HessianNotPD(f"{', '.join(edges)} "
                           f"{'is' if len(edges) == 1 else 'are'} on the "
                           "boundary of the parameter space; no information "
                           "matrix there")
    searched, _, from_values, jacobian = model.search or (model, None, None,
                                                          None)
    v = np.array(from_values(*values) if from_values else values,
                 dtype=float)
    _, _, hess = _row_objective(searched, (EstimationMethod.MLE,),
                                _check_data(data)[None])(
        v[None], np.zeros(1, dtype=int))
    if not np.all(np.isfinite(hess)):
        raise HessianNotPD("Hessian evaluation produced non-finite entries")
    try:
        cov = np.linalg.inv(hess[0])
    except np.linalg.LinAlgError as exc:
        raise HessianNotPD(f"Hessian is singular: {exc}") from exc
    if jacobian:
        j = np.array(jacobian(*v))
        cov = j @ cov @ j.T
    diag = np.diag(cov)
    if np.any(diag <= 0.0):
        raise HessianNotPD("inverse information has non-positive diagonal")
    return tuple(float(v) for v in np.sqrt(diag))


def standard_errors(params_at_mle: RtgleParams, data
                    ) -> tuple[float, float, float, float]:
    """Delta-method standard errors of an RTGLE maximum likelihood estimate
    from the inverse observed information: the one rule of every MLE fit
    (see _standard_errors); HessianNotPD on the edge of the parameter
    space, naming the coordinate."""
    return _standard_errors(_RTGLE, params_at_mle.as_tuple(), data)
