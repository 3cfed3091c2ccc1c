"""Distributional summaries of RTGLE: moments, quantile measures, entropy,
and densities of ordered statistics.

Adaptive quadrature is the authoritative route for moments, L-moments, the
MGF and Renyi entropy: every expectation is one integral over the record
scale t = m(x)^gamma on (0, inf), with no cutoff.  The series expansions
(double sums over generalized binomial coefficients) carry no convergence
guarantee, so they are exposed as secondary cross-checks with explicit
divergence detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (RtgleParams, _log_gle_inverse, _log_sf_kernel,
                           _on_support, cdf, hazard, log_pdf, pdf,
                           quantile_vec, sf)
from .special import gamma_fn, log_beta

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


def _quad(fn, a: float = 0.0, b: float = math.inf) -> float:
    from scipy.integrate import quad
    val, err = quad(fn, a, b, epsabs=0.0, epsrel=1e-11, limit=400)
    if not math.isfinite(val):
        raise QuadratureError("integral is not finite")
    if err > max(1e-9, 1e-8 * abs(val)):
        raise QuadratureError(f"quadrature error estimate {err!r} too large")
    return val


def _expect(params: RtgleParams, fns) -> list[float]:
    """E[exp(fn(log X, T))] for each fn, by one quadrature each on the record
    scale: T = m(X)^gamma, the first upper record of a unit exponential with
    probability 1-p and the second with probability p, has density
    (1-p+p*t) e^-t on (0, inf), and log X = log G^-1(T) in closed form, so
    a node's X never overflows where its integrand is finite."""
    p, log_x = params.p, _log_gle_inverse(params)
    return [_quad(lambda t, fn=fn: math.exp(
        fn(log_x(math.log(t)), t) + math.log(1.0 - p + p * t) - t))
        for fn in fns]


def _raw_moments(params: RtgleParams, orders) -> list[float]:
    """E[X^r] for each r in orders."""
    return _expect(params, [lambda lx, t, r=r: r * lx for r in orders])


def moment_quadrature(params: RtgleParams, r: int) -> float:
    """r-th raw moment E[X^r] by adaptive quadrature on the record scale."""
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
    E[F(X)^k X] for k < r, where F(G^-1(t)) = 1 - (1+p*t) e^-t."""
    if r < 1:
        raise ValueError("L-moment order r must be >= 1")
    p = params.p

    def log_cdf(t):
        return math.log(-math.expm1(math.log1p(p * t) - t))
    integrals = _expect(params, [lambda lx, t, k=k: k * log_cdf(t) + lx
                                 for k in range(r)])
    return sum((-1.0) ** (r - 1 - k) * math.comb(r - 1, k)
               * math.comb(r - 1 + k, k) * val
               for k, val in enumerate(integrals))


class MgfDiverged(ArithmeticError):
    """E[exp(tX)] is infinite, or too large for a float."""


def mgf(params: RtgleParams, t: float) -> float:
    """Moment generating function E[exp(tX)] by quadrature.

    X grows like c*T^e in T = m(X)^gamma, with e = 1/(2 gamma), c =
    sqrt(2/beta) when beta > 0 and e = 1/gamma, c = 1/alpha when beta = 0,
    so for t > 0 the MGF is finite iff e < 1, or e = 1 and t*c < 1; outside
    that rule MgfDiverged is raised without quadrature."""
    if t == 0.0:
        return 1.0
    a, b, g, _ = params.as_tuple()
    e, c = (0.5 / g, math.sqrt(2.0 / b)) if b > 0.0 else (1.0 / g, 1.0 / a)
    if t > 0.0 and (e > 1.0 or (e == 1.0 and t * c >= 1.0)):
        raise MgfDiverged(f"E[exp(tX)] is infinite for t={t!r}")
    try:
        return _expect(params, [lambda lx, _: t * math.exp(lx)])[0]
    except OverflowError:
        raise MgfDiverged(f"integrand overflows for t={t!r}") from None


def renyi_entropy(params: RtgleParams, rho: float) -> float:
    """Renyi entropy log(int f^rho) / (1-rho), rho > 0, rho != 1.

    int f^rho = E[f(X)^(rho-1)] is one integral over the record scale t =
    m(x)^gamma, in log t: f = (1-p+p*t) e^-t gamma t^(1-1/gamma) (alpha +
    beta*x).  Near 0, x ~ t^(1/g1), g1 = gamma (alpha > 0) or 2*gamma, the
    record density is ~ t^(q-1), q = 2 at p = 1, else 1, and f ~ x^e, e =
    g1*q - 1, so the integrand is ~ t^c, c = (rho-1)*e/g1 + q - 1: for c <=
    -1 (rho > 1, rho*e <= -1) int f^rho is infinite and the entropy -inf,
    else t = s^k, k = 1/(1+c), makes it bounded on s in (0, 1)."""
    if rho <= 0.0 or rho == 1.0:
        raise ValueError("rho must be positive and different from 1")
    a, b, g, p = params.as_tuple()
    g1, q = (g if a > 0.0 else 2.0 * g), (2.0 if p == 1.0 else 1.0)
    c = (rho - 1.0) * (g1 * q - 1.0) / g1 + q - 1.0
    if c <= -1.0:
        return -math.inf
    k, log_x = 1.0 / (1.0 + min(c, 0.0)), _log_gle_inverse(params)
    log_1mp, log_p, log_a, log_b = (math.log(v) if v > 0.0 else -math.inf
                                    for v in (1.0 - p, p, a, b))

    def log_integrand(log_t):
        return (rho * (np.logaddexp(log_1mp, log_p + log_t) - math.exp(log_t))
                + (rho - 1.0) * (math.log(g) + (1.0 - 1.0 / g) * log_t
                                 + np.logaddexp(log_a, log_b + log_x(log_t))))
    val = (_quad(lambda s: math.exp(log_integrand(k * math.log(s))
                                    + math.log(k) + (k - 1.0) * math.log(s)),
                 0.0, 1.0)
           + _quad(lambda t: math.exp(log_integrand(math.log(t))), 1.0))
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
