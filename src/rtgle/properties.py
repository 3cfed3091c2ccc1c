"""Distributional summaries of RTGLE: moments, quantile measures, entropy,
and densities of ordered statistics.

Adaptive quadrature is the authoritative route for moments, the MGF and
Renyi entropy.  The series expansions (double sums over generalized binomial
coefficients) carry no convergence guarantee, so they are exposed as
secondary cross-checks with explicit divergence detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .distribution import (RtgleParams, _log_sf_kernel, _on_support, cdf,
                           hazard, log_pdf, pdf, quantile_vec, sf)
from .special import gamma_fn, log_beta

_TAIL_Q = 1.0 - 1e-12  # upper integration cutoff quantile
_MAX_TERMS = 200       # series terms summed at most: indices 0.._MAX_TERMS


class SeriesDiverged(ArithmeticError):
    """Series terms grew for 10 consecutive indices; sum is unusable."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass
class MomentReport:
    r: int
    value_quadrature: float
    value_series: float | None
    series_terms_used: int
    recurrence_residual: float


@dataclass
class QuantileMeasures:
    median: float
    q1: float
    q3: float
    iqr: float
    galton_skewness: float
    moors_kurtosis: float


def _cutoff_and(params: RtgleParams, *u: float) -> list[float]:
    """The upper integration cutoff Q(1-1e-12), then Q at each u: one
    quantile solve for all of them."""
    return quantile_vec(params, (_TAIL_Q,) + u).tolist()


def _quad(fn, lo, hi, *, points=None) -> float:
    val, err = quad(fn, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400,
                    points=points)
    if not math.isfinite(val):
        raise QuadratureError("integral is not finite")
    if err > max(1e-9, 1e-8 * abs(val)):
        raise QuadratureError(f"quadrature error estimate {err!r} too large")
    return val


def _expectations(params: RtgleParams, fns) -> list[float]:
    """E[fn(X)] for each fn by adaptive quadrature of fn(x) * pdf(x) over
    (0, Q(1-1e-12)) with breaks at Q(0.25), Q(0.5) and Q(0.9); the cutoff
    and the break points are solved once for all of them."""
    hi, *points = _cutoff_and(params, 0.25, 0.5, 0.9)
    return [_quad(lambda x, fn=fn: fn(x) * pdf(params, x), 0.0, hi,
                  points=points) for fn in fns]


def _raw_moments(params: RtgleParams, orders) -> list[float]:
    """E[X^r] for each r in orders, under one cutoff."""
    return _expectations(params, [lambda x, r=r: x ** r for r in orders])


def moment_quadrature(params: RtgleParams, r: int) -> float:
    """r-th raw moment E[X^r] by adaptive quadrature over (0, Q(1-1e-12))."""
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    return _raw_moments(params, (r,))[0]


def _gen_binom_terms(s: float):
    """Yield (j, binom(s, j)) for the generalized binomial coefficient."""
    c = 1.0
    yield 0, c
    for j in range(1, _MAX_TERMS + 1):
        c *= (s - (j - 1)) / j
        yield j, c
        if c == 0.0:
            return


def _lower_inc(a: float, x: float) -> float:
    """Lower incomplete gamma integral int_0^x t^(a-1) e^-t dt, a > 0."""
    import mpmath
    return float(mpmath.gammainc(a, 0, x))


def _upper_inc(a: float, x: float) -> float:
    """Upper incomplete gamma int_x^inf t^(a-1) e^-t dt; any real a, x > 0."""
    import mpmath
    return float(mpmath.gammainc(a, x, mpmath.inf))


def _sum_series(term, diverged: str) -> tuple[float, int]:
    """Sum term(0), term(1), ... until a term is at most 1e-12 of the
    partial sum or _MAX_TERMS + 1 terms are in; returns (sum, terms used).
    Raises SeriesDiverged(diverged) if |term| grows for 10 consecutive
    indices."""
    total = 0.0
    prev_abs = math.inf
    grow_run = 0
    for j in range(_MAX_TERMS + 1):
        t = term(j)
        total += t
        t = abs(t)
        if total != 0.0 and t <= 1e-12 * abs(total):
            return total, j + 1
        if t > prev_abs:
            grow_run += 1
            if grow_run >= 10:
                raise SeriesDiverged(diverged)
        elif t < prev_abs:
            grow_run = 0
        prev_abs = t
    return total, _MAX_TERMS + 1


def moment_series(params: RtgleParams, r: int) -> tuple[float, int]:
    """r-th raw moment via the binomial double series (alpha, beta > 0).

    The binomial expansion of (1 + tau*z^(1/gamma))^((r-i)/2) is only valid
    below the split point T = tau^(-gamma) (tau = 2*beta/alpha^2) and the
    reciprocal expansion only above it, so the two regions are kept separate
    as incomplete-gamma integrals; merging them into one complete gamma term
    per j produces a series that diverges from the first term.

    Sums over j with _sum_series: stops at a term below 1e-12 of the
    partial sum, raises SeriesDiverged if terms grow for 10 consecutive j.
    """
    a, b, g, p = params.as_tuple()
    if a <= 0.0 or b <= 0.0:
        raise ValueError("moment_series requires alpha > 0 and beta > 0")
    if r < 1:
        raise ValueError("moment order r must be >= 1")

    tau = 2.0 * b / (a * a)
    T = tau ** (-g)

    def mix_lower(q: float) -> float:
        # int_0^T (1-p+p*z) z^q e^-z dz
        return (1.0 - p) * _lower_inc(q + 1.0, T) + p * _lower_inc(q + 2.0, T)

    def mix_upper(q: float) -> float:
        return (1.0 - p) * _upper_inc(q + 1.0, T) + p * _upper_inc(q + 2.0, T)

    binom_i = [math.comb(r, i) for i in range(r + 1)]
    gen_cols = [dict(_gen_binom_terms((r - i) / 2.0)) for i in range(r + 1)]
    scale = a ** r / b ** r

    def term(j: int) -> float:
        out = 0.0
        for i in range(r + 1):
            cj = gen_cols[i].get(j, 0.0)
            if cj == 0.0:
                continue
            s = (r - i) / 2.0
            coef = (-1.0) ** i * binom_i[i] * cj * scale
            out += coef * (tau ** j * mix_lower(j / g)
                           + tau ** (s - j) * mix_upper((s - j) / g))
        return out

    return _sum_series(
        term, f"moment series terms grew for 10 consecutive j (r={r})")


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
    """Var(X); second raw moment from the r=1 recurrence when beta > 0."""
    m1 = moment_quadrature(params, 1)
    if params.beta > 0.0:
        m2 = 2.0 / params.beta * (recurrence_rhs(params, 1) - params.alpha * m1)
    else:
        m2 = moment_quadrature(params, 2)
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
    """Gini mean difference Delta = 2 * int_0^1 (2u - 1) Q(u) du, which is
    2 E[(2F(X) - 1) X] by u = F(x): a cdf per point, not a quantile."""
    return 2.0 * _expectations(
        params, [lambda x: (2.0 * cdf(params, x) - 1.0) * x])[0]


def l_moment(params: RtgleParams, r: int) -> float:
    """r-th L-moment, the standard signed sum of int_0^1 u^k Q(u) du =
    E[F(X)^k X] for k < r, integrated under one cutoff."""
    if r < 1:
        raise ValueError("L-moment order r must be >= 1")
    integrals = _expectations(params, [lambda x, k=k: cdf(params, x) ** k * x
                                       for k in range(r)])
    total = 0.0
    for k, val in enumerate(integrals):
        total += ((-1.0) ** (r - 1 - k) * math.comb(r - 1, k)
                  * math.comb(r - 1 + k, k) * val)
    return total


class MgfDiverged(ArithmeticError):
    """exp(t*x) * pdf(x) does not decay at the integration cutoff."""


def mgf(params: RtgleParams, t: float) -> float:
    """Moment generating function E[exp(tX)] by quadrature."""
    if t == 0.0:
        return 1.0
    hi, median = _cutoff_and(params, 0.5)

    def log_integrand(x):
        return t * x + log_pdf(params, x)

    if t > 0.0:
        logs = [log_integrand(x) for x in np.linspace(hi / 50.0, hi, 60)]
        if log_integrand(hi) > math.log(1e-10) + max(logs):
            raise MgfDiverged(f"integrand not decaying at cutoff for t={t!r}")
    try:
        return _quad(lambda x: math.exp(log_integrand(x)), 0.0, hi,
                     points=[median])
    except OverflowError:
        raise MgfDiverged(f"integrand overflows for t={t!r}") from None


def renyi_entropy(params: RtgleParams, rho: float) -> float:
    """Renyi entropy (1/(1-rho)) * log int f^rho, rho > 0, rho != 1."""
    if rho <= 0.0 or rho == 1.0:
        raise ValueError("rho must be positive and different from 1")
    hi, median = _cutoff_and(params, 0.5)
    val = _quad(lambda x: math.exp(rho * log_pdf(params, x)), 0.0, hi,
                points=[median])
    return math.log(val) / (1.0 - rho)


def renyi_entropy_series(params: RtgleParams, rho: float
                         ) -> tuple[float, int]:
    """Series route for the Renyi integral; same split-region treatment and
    truncation policy as moment_series.  Requires alpha, beta > 0.

    The mixing factor (1-p+p*z)^rho is expanded binomially in i; that
    expansion terminates only for integer rho, and is otherwise formal, so
    non-integer rho with p > 0 may trip the divergence detector.
    """
    a, b, g, p = params.as_tuple()
    if rho <= 0.0 or rho == 1.0:
        raise ValueError("rho must be positive and different from 1")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("series route requires alpha > 0 and beta > 0")

    tau = 2.0 * b / (a * a)
    T = tau ** (-g)
    m = (rho - 1.0) / 2.0
    base = (rho - 1.0) * (g - 1.0) / g
    binom_rho = dict(_gen_binom_terms(rho))
    binom_j = dict(_gen_binom_terms(m))

    def z_integral(q: float, j: int) -> float:
        # int_0^inf (alpha^2 + 2*beta*z^(1/gamma))^m z^q e^(-rho z) dz,
        # j-th binomial term, split at T; substitute t = rho*z
        lo_a = q + j / g + 1.0
        hi_a = q + (m - j) / g + 1.0
        lo = tau ** j * _lower_inc(lo_a, rho * T) / rho ** lo_a
        hi = tau ** (m - j) * _upper_inc(hi_a, rho * T) / rho ** hi_a
        return a ** (rho - 1.0) * (lo + hi)

    def term(k: int) -> float:
        # the anti-diagonal i + j = k, so both indices truncate together
        out = 0.0
        for i in range(k + 1):
            j = k - i
            if p == 0.0 and i > 0:
                continue
            if p == 1.0 and rho != i:
                continue
            ci = binom_rho.get(i, 0.0)
            cj = binom_j.get(j, 0.0)
            if ci == 0.0 or cj == 0.0:
                continue
            pw = p ** i if p == 1.0 else p ** i * (1.0 - p) ** (rho - i)
            out += ci * cj * pw * z_integral(base + i, j)
        return out

    total, n_used = _sum_series(
        term, "Renyi series terms grew for 10 consecutive indices")
    integral = g ** (rho - 1.0) * total
    if integral <= 0.0:
        raise SeriesDiverged("Renyi series produced a non-positive integral")
    return math.log(integral) / (1.0 - rho), n_used


# --- order and record statistics ---------------------------------------------

def order_statistic_pdf(params: RtgleParams, r: int, n: int, x) -> float:
    """Density of the r-th order statistic of an n-sample,
    f(x) F(x)^(r-1) S(x)^(n-r) / B(r, n-r+1)."""
    if not (1 <= r <= n):
        raise ValueError(f"rank r={r} out of range for n={n}")
    out = (pdf(params, x) * np.power(cdf(params, x), r - 1)
           * np.power(sf(params, x), n - r)
           * math.exp(-log_beta(r, n - r + 1)))
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
    """
    if n < 1:
        raise ValueError("record index must be >= 1")
    h = cumulative_hazard(params, x)
    out = np.power(h, n - 1) / math.factorial(n - 1) * pdf(params, x)
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


def moment_report(params: RtgleParams, r: int) -> MomentReport:
    """Bundle the quadrature moment, the series cross-check (where defined)
    and the recurrence residual."""
    vq = moment_quadrature(params, r)
    vs: float | None = None
    terms = 0
    if params.alpha > 0.0 and params.beta > 0.0:
        try:
            vs, terms = moment_series(params, r)
        except SeriesDiverged:
            vs = None
    resid = moment_recurrence_residual(params, r)
    return MomentReport(r=r, value_quadrature=vq, value_series=vs,
                        series_terms_used=terms, recurrence_residual=resid)
