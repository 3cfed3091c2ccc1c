"""Distributional summaries of RTGLE: moments, quantile measures, entropy,
and densities of ordered statistics.

Moments, L-moments, the MGF and Renyi entropy are integrals over the
record scale t = m(x)^gamma on (0, inf), with no cutoff.  The expectations
of one call share one node set of the trapezoid rule in log t, which
converges exponentially there (_expect, _log_trapezoid).  Renyi entropy,
whose integrand may be unbounded at t = 0, takes the same rule after one
smooth change of variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (RtgleParams, _log_gle_inverse, _log_pdf_kernel,
                           _log_sf_kernel, _on_support, hazard, log_pdf,
                           quantile_vec)
from .special import gamma_fn, log_beta


class QuadratureError(ArithmeticError):
    """A quadrature rule failed to reach its tolerance."""


@dataclass
class QuantileMeasures:
    median: float
    q1: float
    q3: float
    iqr: float
    galton_skewness: float
    moors_kurtosis: float


def _expect(params: RtgleParams, fns) -> list[float]:
    """E[exp(fn(log X, T))] for each fn, all on one node set.

    T = m(X)^gamma, the first upper record of a unit exponential with
    probability 1-p and the second with probability p, has density
    (1-p+p*t) e^-t on (0, inf), and log X = log G^-1(T) in closed form, so
    in u = log t each expectation is the integral of exp(L_j(u)), L_j =
    fn_j(log x, e^u) + log(1-p+p*e^u) - e^u + u, by _log_trapezoid.  Each
    fn maps arrays (log x, t) to an array."""
    p = params.p

    def log_integrand(u):
        t = np.exp(u)
        lx = _log_gle_inverse(params, u)
        return (np.array([fn(lx, t) for fn in fns])
                + (np.log((1.0 - p) + p * t) - t + u))
    return _log_trapezoid(log_integrand)


# the first window of _log_trapezoid has _FIRST_NODES nodes from _FIRST_U at
# step _FIRST_STEP, and grows by as many a side at a time
_FIRST_U, _FIRST_STEP, _FIRST_NODES = -48.0, 0.2, 271
_DROP = 44.0            # a window's ends lie e^-_DROP below every peak
_REL_TOL = 1e-14
_EPS = float(np.finfo(float).eps)
_MAX_U = 700.0
_MAX_NODES = 1 << 17
# a log integrand that peaks above _MAX_LOG_PEAK + _DROP has an integral
# beyond the float range unless its area is below e^-790, narrower than any
# step
_MAX_LOG_PEAK = 1500.0
# l_moment refuses a signed sum whose terms' absolute sum exceeds its value
# this many times: at 5e-17 of that ratio lost, beyond it fewer than 8
# digits are left
_L_MOMENT_CANCELLATION = 1e8


def _log_trapezoid(log_integrand) -> list[float]:
    """The integral over the real line of exp(L_j(u)) for each row j of
    log_integrand(u), an array (rows, len(u)), all rows on one node set.

    Each L_j must be smooth and decay at both ends, so the trapezoid rule
    converges exponentially in the step (Trefethen & Weideman, SIAM Review
    56, 2014); each sum is taken in log space, scaled by its row's peak.
    The window grows until both its ends lie e^-44 below every peak, and
    the step halves, reusing the nodes, until no integral moves by more
    than 1e-14 relative, or by the rounding of its L_j at the peak, whose
    terms are taken to be at most |L_j| + 2e^u + 4|u| in size, as on the
    record scale.  Raises OverflowError where an integrand or an integral is
    beyond the float range, and QuadratureError where the rule does not
    converge."""

    def checked(u):
        out = log_integrand(u)
        if not (out < math.inf).all():
            if np.isnan(out).any():
                raise QuadratureError("integrand is not a number")
            raise OverflowError("integrand overflows")
        return out

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u0, logs = _window(checked)
        peak = logs.max(axis=1)
        h, n = _FIRST_STEP, logs.shape[1]
        area = h * np.exp(logs - peak[:, None]).sum(axis=1)
        u_top = u0 + h * logs.argmax(axis=1)
        tol = _REL_TOL + _EPS * (np.abs(peak) + 2.0 * np.exp(u_top)
                                 + 4.0 * np.abs(u_top))
        while True:
            if 2 * n - 1 > _MAX_NODES:
                raise QuadratureError("trapezoid rule did not converge")
            mids = checked(u0 + h * (np.arange(n - 1) + 0.5))
            top = np.maximum(peak, mids.max(axis=1))
            coarse = area * np.exp(peak - top)
            peak = top
            area = 0.5 * (coarse
                          + h * np.exp(mids - peak[:, None]).sum(axis=1))
            h, n = 0.5 * h, 2 * n - 1
            if (np.abs(area - coarse) <= tol * area).all():
                break
    return [_times_exp(a, scale)
            for a, scale in zip(area.tolist(), peak.tolist())]


def _window(log_integrand) -> tuple[float, np.ndarray]:
    """(u0, logs): the log integrands at step _FIRST_STEP from u0 on, over a
    window that grows from the first one until both its ends lie e^-_DROP
    below every peak, then is cut to one node beyond the last above that."""
    u = _FIRST_U + _FIRST_STEP * np.arange(_FIRST_NODES)
    grow = _FIRST_STEP * np.arange(1, _FIRST_NODES)
    logs = log_integrand(u)
    while True:
        floor = logs.max(axis=1, keepdims=True) - _DROP
        if floor.max() > _MAX_LOG_PEAK:
            raise OverflowError("integral beyond the float range")
        grow_left, grow_right = (logs[:, [0, -1]] > floor).any(axis=0)
        if not (grow_left or grow_right):
            break
        if u[0] < -_MAX_U or u[-1] > _MAX_U:
            raise QuadratureError("integrand does not decay")
        left = u[0] - grow[::-1] if grow_left else grow[:0]
        right = u[-1] + grow if grow_right else grow[:0]
        new = log_integrand(np.concatenate((left, right)))
        u = np.concatenate((left, u, right))
        logs = np.concatenate((new[:, :len(left)], logs, new[:, len(left):]),
                              axis=1)
    if not np.isfinite(floor).all():
        raise QuadratureError("integrand vanishes on the window")
    inside = np.flatnonzero((logs > floor).any(axis=0))
    first, stop = max(inside[0] - 1, 0), inside[-1] + 2
    return float(u[first]), logs[:, first:stop]


def _times_exp(area: float, log_scale: float) -> float:
    """area * e^log_scale, raising OverflowError beyond the float range."""
    if log_scale < 700.0:
        return area * math.exp(log_scale)
    return math.exp(log_scale + math.log(area))


def _raw_moments(params: RtgleParams, orders) -> list[float]:
    """E[X^r] for each r in orders."""
    return _expect(params, [lambda lx, t, r=r: r * lx for r in orders])


def moment_quadrature(params: RtgleParams, r: int) -> float:
    """r-th raw moment E[X^r] by the trapezoid rule on the record scale."""
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    return _raw_moments(params, (r,))[0]


def recurrence_rhs(params: RtgleParams, r: int) -> float:
    """(1 + p*r/gamma) * Gamma(r/gamma + 1) == E[(alpha*X + beta*X^2/2)^r]."""
    g, p = params.gamma, params.p
    return (1.0 + p * r / g) * gamma_fn(r / g + 1.0)


def moment_recurrence_residual(params: RtgleParams, r: int) -> float:
    """|sum_i C(r,i) a^i (b/2)^(r-i) mu'_{2r-i} - (1+pr/gamma)Gamma(r/gamma+1)|."""
    a, b = params.alpha, params.beta
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    moms = _raw_moments(params, [2 * r - i for i in range(r + 1)])
    lhs = sum(math.comb(r, i) * a ** i * (b / 2.0) ** (r - i) * mom
              for i, mom in enumerate(moms))
    return abs(lhs - recurrence_rhs(params, r))


def variance(params: RtgleParams) -> float:
    """Var(X) from the raw moments E[X] and E[X^2]."""
    m1, m2 = _raw_moments(params, (1, 2))
    return m2 - m1 * m1


def _skewness(m) -> float:
    """Skewness from the raw moments m = (E X, E X^2, E X^3, ...)."""
    mu2 = m[1] - m[0] ** 2
    mu3 = m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3
    return mu3 / mu2 ** 1.5


def _kurtosis(m) -> float:
    """Kurtosis from the raw moments m = (E X, ..., E X^4)."""
    mu2 = m[1] - m[0] ** 2
    mu4 = (m[3] - 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1]
           - 3.0 * m[0] ** 4)
    return mu4 / mu2 ** 2


def skewness(params: RtgleParams) -> float:
    """Standardized third central moment (gamma_1)."""
    return _skewness(_raw_moments(params, (1, 2, 3)))


def kurtosis(params: RtgleParams) -> float:
    """Standardized fourth central moment (beta_2, not excess)."""
    return _kurtosis(_raw_moments(params, (1, 2, 3, 4)))


def quantile_measures(params: RtgleParams) -> QuantileMeasures:
    """Median, quartiles, IQR, Galton skewness, Moors kurtosis."""
    o = quantile_vec(params, np.arange(1, 8) / 8.0).tolist()  # the octiles
    q1, q2, q3 = o[1], o[3], o[5]
    iqr = q3 - q1
    gc = (q1 + q3 - 2.0 * q2) / iqr
    mc = (o[6] - o[4] + o[2] - o[0]) / iqr
    return QuantileMeasures(median=q2, q1=q1, q3=q3, iqr=iqr,
                            galton_skewness=gc, moors_kurtosis=mc)


def gini_mean_difference(params: RtgleParams) -> float:
    """Gini mean difference E|X - X'|, twice the second L-moment."""
    return 2.0 * l_moment(params, 2)


def l_moment(params: RtgleParams, r: int) -> float:
    """r-th L-moment, the standard signed sum of int_0^1 u^k Q(u) du =
    E[F(X)^k X] for k < r, where F(G^-1(t)) = 1 - (1+p*t) e^-t.  Raises
    QuadratureError where that sum cancels beyond _L_MOMENT_CANCELLATION
    (for the exponential from r = 12 on)."""
    if r < 1:
        raise ValueError("L-moment order r must be >= 1")
    p = params.p

    def log_cdf(t):
        return np.log(-np.expm1(np.log1p(p * t) - t))
    # k = 0 takes log x alone: log F is -inf where F underflows, and 0 * -inf
    # is NaN
    integrals = _expect(params, [lambda lx, t: lx]
                        + [lambda lx, t, k=k: k * log_cdf(t) + lx
                           for k in range(1, r)])
    terms = [(-1.0) ** (r - 1 - k) * math.comb(r - 1, k)
             * math.comb(r - 1 + k, k) * val
             for k, val in enumerate(integrals)]
    value = sum(terms)
    # the relative error of the signed sum is about 5e-17 sum |term| / |value|
    if sum(map(abs, terms)) > _L_MOMENT_CANCELLATION * abs(value):
        raise QuadratureError(f"L-moment of order r={r}: its signed sum "
                              "cancels beyond the digits of its terms")
    return value


class MgfDiverged(ArithmeticError):
    """E[exp(tX)] is infinite, or too large for a float."""


def mgf(params: RtgleParams, t: float) -> float:
    """Moment generating function E[exp(tX)] on the record scale.

    X grows like c*T^e in T = m(X)^gamma, with e = 1/(2 gamma), c =
    sqrt(2/beta) when beta > 0 and e = 1/gamma, c = 1/alpha when beta = 0,
    so for t > 0 the MGF is finite iff e < 1, or e = 1 and t*c < 1; outside
    that rule MgfDiverged is raised without integrating, and inside it
    where E[exp(tX)] is beyond the float range."""
    if t == 0.0:
        return 1.0
    a, b, g, _ = params.as_tuple()
    e, c = (0.5 / g, math.sqrt(2.0 / b)) if b > 0.0 else (1.0 / g, 1.0 / a)
    if t > 0.0 and (e > 1.0 or (e == 1.0 and t * c >= 1.0)):
        raise MgfDiverged(f"E[exp(tX)] is infinite for t={t!r}")
    try:
        return _expect(params, [lambda lx, _: t * np.exp(lx)])[0]
    except OverflowError:
        raise MgfDiverged(f"integrand overflows for t={t!r}") from None


def renyi_entropy(params: RtgleParams, rho: float) -> float:
    """Renyi entropy log(int f^rho) / (1-rho), rho > 0, rho != 1.

    int f^rho = E[f(X)^(rho-1)] is one integral over the record scale t =
    m(x)^gamma, in log t: f = (1-p+p*t) e^-t gamma t^(1-1/gamma) (alpha +
    beta*x).  Near 0, x ~ t^(1/g1), g1 = gamma (alpha > 0) or 2*gamma, the
    record density is ~ t^(q-1), q = 2 at p = 1, else 1, and f ~ x^e, e =
    g1*q - 1, so the integrand is ~ t^c, c = (rho-1)*e/g1 + q - 1: for c <=
    -1 (rho > 1, rho*e <= -1) int f^rho is infinite and the entropy -inf.
    Else _log_trapezoid runs on w, log t = w - (k-1) log(1 + e^-w) with k =
    1/(1+min(c, 0)): near c = -1 the integrand decays too slowly in log t,
    like e^((1+c) log t), but like e^w in w, as log t ~ k*w on the left."""
    if rho <= 0.0 or rho == 1.0:
        raise ValueError("rho must be positive and different from 1")
    a, b, g, p = params.as_tuple()
    g1, q = (g if a > 0.0 else 2.0 * g), (2.0 if p == 1.0 else 1.0)
    c = (rho - 1.0) * (g1 * q - 1.0) / g1 + q - 1.0
    if c <= -1.0:
        return -math.inf
    k = 1.0 / (1.0 + min(c, 0.0))
    log_1mp, log_p, log_a, log_b = (math.log(v) if v > 0.0 else -math.inf
                                    for v in (1.0 - p, p, a, b))

    def log_integrand(w):
        log_t = w - (k - 1.0) * np.logaddexp(0.0, -w)
        log_x = _log_gle_inverse(params, log_t)
        # log f^(rho-1) + log of the record density, plus log dt/dw
        return (rho * (np.logaddexp(log_1mp, log_p + log_t) - np.exp(log_t))
                + (rho - 1.0) * (math.log(g) + (1.0 - 1.0 / g) * log_t
                                 + np.logaddexp(log_a, log_b + log_x))
                + log_t + np.log1p((k - 1.0) / (1.0 + np.exp(w))))[None]
    return math.log(_log_trapezoid(log_integrand)[0]) / (1.0 - rho)


# --- order and record statistics ---------------------------------------------

def order_statistic_pdf(params: RtgleParams, r: int, n: int, x) -> float:
    """Density of the r-th order statistic of an n-sample,
    f(x) F(x)^(r-1) S(x)^(n-r) / B(r, n-r+1), summed in log space so that
    no factor overflows or underflows on its own."""
    if not (1 <= r <= n):
        raise ValueError(f"rank r={r} out of range for n={n}")
    v = params.as_tuple()

    def log_density(x, x2):
        log_s = _log_sf_kernel(x, x2, *v)
        out = _log_pdf_kernel(x, x2, *v) - log_beta(r, n - r + 1)
        # a power 0 drops its factor: 0 * log 0 would be NaN
        if r > 1:
            out = out + (r - 1) * np.log(-np.expm1(log_s))
        if r < n:
            out = out + (n - r) * log_s
        return out
    out = np.exp(_on_support(log_density, x, -np.inf, -np.inf))
    return out if np.ndim(out) else float(out)


def smallest_order_statistic_pdf(params: RtgleParams, n: int, x) -> float:
    """Density of the sample minimum: n * f(x) * sf(x)^(n-1)."""
    return order_statistic_pdf(params, 1, n, x)


def largest_order_statistic_pdf(params: RtgleParams, n: int, x) -> float:
    """Density of the sample maximum: n * f(x) * F(x)^(n-1)."""
    return order_statistic_pdf(params, n, n, x)


def cumulative_hazard(params: RtgleParams, x):
    """-log survival; equals z - log(1 + p*z); 0 for x <= 0."""
    v = params.as_tuple()
    return _on_support(lambda x, x2: -_log_sf_kernel(x, x2, *v),
                       x, 0.0, np.inf)


def record_pdf(params: RtgleParams, n: int, x) -> float:
    """Density of the n-th upper record, indexed so the first record is the
    parent: f_{R_n}(x) = H(x)^(n-1) / (n-1)! * f(x) with H the cumulative
    hazard.  This indexing is forced by normalization and R_1 ~ parent.
    Summed in log space, so that H^(n-1) and (n-1)! do not overflow.
    """
    if n < 1:
        raise ValueError("record index must be >= 1")
    v = params.as_tuple()

    def log_density(x, x2):
        out = _log_pdf_kernel(x, x2, *v)
        if n > 1:  # H^0 drops: 0 * log 0 would be NaN
            out = out + ((n - 1) * np.log(-_log_sf_kernel(x, x2, *v))
                         - math.lgamma(n))
        return out
    out = np.exp(_on_support(log_density, x, -np.inf, -np.inf))
    return out if np.ndim(out) else float(out)


def joint_record_log_pdf(params: RtgleParams, records) -> float:
    """Log joint density of the first n upper records r_1 < ... < r_n."""
    r = np.asarray(records, dtype=float)
    if r.ndim != 1 or len(r) < 1:
        raise ValueError("records must be a nonempty 1-d vector")
    # NaN compares false, so the diff test alone would let a NaN through
    if np.any(np.isnan(r)) or np.any(np.diff(r) <= 0.0):
        raise ValueError("record vector must be strictly increasing")
    return log_pdf(params, r[-1]) + float(np.log(hazard(params, r[:-1])).sum())

