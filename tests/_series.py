"""The paper's series for the RTGLE moments and Renyi entropy, kept as test
oracles for the trapezoid rule of ``rtgle.properties``.

With tau = 2*beta/alpha^2 and z = m(x)^gamma on the record scale, the
density of z is (1-p+p*z) e^-z, and x = (alpha/beta)(sqrt(1 + tau*z^(1/g))
- 1).  Expanding (sqrt(1 + tau*z^(1/g)) - 1)^r binomially in i and each
power (1 + tau*z^(1/g))^((r-i)/2) as a generalized binomial series in j
gives the raw moment

    E[X^r] = (alpha/beta)^r sum_i (-1)^i C(r, i) sum_j C((r-i)/2, j)
             tau^j int (1-p+p*z) z^(j/g) e^-z dz,

a double sum over generalized binomial coefficients.  The expansion in j
converges only below z = tau^-g; above it the reciprocal expansion holds,
so each term is split there into a lower and an upper incomplete gamma
integral (``moment_series``).  The Renyi integral int f^rho expands the
same way, with the mixing factor (1-p+p*z)^rho expanded binomially as well
(``renyi_entropy_series``).  Neither series carries a convergence
guarantee: ``_sum_series`` stops at a term below 1e-12 of the partial sum
and raises ``SeriesDiverged`` when terms grow for 10 consecutive indices.
"""

from __future__ import annotations

import math

import mpmath

from rtgle.distribution import RtgleParams

_MAX_TERMS = 200       # series terms summed at most: indices 0.._MAX_TERMS


class SeriesDiverged(ArithmeticError):
    """Series terms grew for 10 consecutive indices; sum is unusable."""


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
    return float(mpmath.gammainc(a, 0, x))


def _upper_inc(a: float, x: float) -> float:
    """Upper incomplete gamma int_x^inf t^(a-1) e^-t dt; any real a, x > 0."""
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
